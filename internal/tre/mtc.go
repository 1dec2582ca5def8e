package tre

import (
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// MTCServer is the MTC thin runtime environment: the MTC server plus the
// trigger monitor, a workflow.Tracker. A submitted workflow is parsed into
// constituent tasks; tasks whose dependencies are met enter the scheduling
// queue, and the trigger monitor watches completions, releasing dependents
// stage by stage (paper Section 3.1.2). Demand accounting sees every
// *ready* constituent task, the MTC variant of the resource management
// policy.
type MTCServer struct {
	*Server
	tracker workflow.Tracker
}

// NewMTCServer builds an MTC TRE server (FCFS, 3-second scans unless
// overridden by cfg.Params).
func NewMTCServer(engine *sim.Engine, prov *csf.ProvisionService, cfg Config) (*MTCServer, error) {
	base, err := newServer(engine, prov, cfg, sched.FCFS{})
	if err != nil {
		return nil, err
	}
	m := &MTCServer{Server: base}
	base.completeHook = m.triggerMonitor
	return m, nil
}

// SubmitWorkflow parses one workflow's tasks: ready tasks enter the queue,
// the rest wait on the trigger monitor, which refuses repeated task IDs and
// dependencies outside the workflow. systems.Workload.Validate refuses
// those and dependency cycles for every system before a run starts.
func (m *MTCServer) SubmitWorkflow(tasks []*job.Job) error {
	if m.destroyed {
		return fmt.Errorf("tre: %s destroyed, cannot submit", m.cfg.Name)
	}
	if err := m.tracker.Add(tasks, m.queue.Push); err != nil {
		return fmt.Errorf("tre: %s: %w", m.cfg.Name, err)
	}
	m.noteSubmit(len(tasks))
	return nil
}

// triggerMonitor fires on every completion: it notifies the MTC server of
// the change, releasing tasks whose dependency sets are now satisfied.
func (m *MTCServer) triggerMonitor(j *job.Job) { m.tracker.Done(j, m.queue.Push) }

// DestroyAfter makes the TRE tear itself down (releasing all nodes, the
// initial lease included) once that many tasks have completed: the
// paper's MTC provider ends its service after its workload's workflows
// run. Attach passes the workload's task count, so a later workflow
// keeps the TRE alive even after an earlier one drained. Zero, the
// default, keeps the TRE up.
func (m *MTCServer) DestroyAfter(tasks int) { m.destroyAfter = tasks }

// WaitingTasks reports tasks still blocked on dependencies.
func (m *MTCServer) WaitingTasks() int { return m.tracker.Waiting() }
