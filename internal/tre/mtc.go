package tre

import (
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// taskKey identifies a task across workflow submissions: task IDs only need
// to be unique within one workflow, so the server namespaces them by a
// per-submission sequence number.
type taskKey struct {
	wf, id int
}

// MTCServer is the MTC thin runtime environment: the MTC server plus the
// trigger monitor. A submitted workflow is parsed into constituent tasks;
// tasks whose dependencies are met enter the scheduling queue, and the
// trigger monitor watches completions, releasing dependents stage by stage
// (paper Section 3.1.2). Demand accounting sees every *ready* constituent
// task, the MTC variant of the resource management policy.
type MTCServer struct {
	*Server

	wfSeq      int
	keyOf      map[*job.Job]taskKey // active tasks -> namespaced key
	waiting    map[taskKey]*job.Job // tasks with unmet dependencies
	unmet      map[taskKey]int      // remaining unmet dependency counts
	dependents map[taskKey][]taskKey
}

// NewMTCServer builds an MTC TRE server (FCFS, 3-second scans unless
// overridden by cfg.Params).
func NewMTCServer(engine *sim.Engine, prov *csf.ProvisionService, cfg Config) (*MTCServer, error) {
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.FCFS{}
	}
	base, err := newServer(engine, prov, cfg)
	if err != nil {
		return nil, err
	}
	m := &MTCServer{
		Server:     base,
		keyOf:      make(map[*job.Job]taskKey),
		waiting:    make(map[taskKey]*job.Job),
		unmet:      make(map[taskKey]int),
		dependents: make(map[taskKey][]taskKey),
	}
	base.completeHook = m.triggerMonitor
	return m, nil
}

// SubmitWorkflow parses one workflow's tasks: ready tasks enter the queue,
// the rest wait on the trigger monitor. Task IDs must be unique within the
// workflow and every dependency must reference a task of the same workflow
// (validate DAGs with workflow.DAG.Validate before converting).
func (m *MTCServer) SubmitWorkflow(tasks []*job.Job) error {
	if m.destroyed {
		return fmt.Errorf("tre: %s destroyed, cannot submit", m.cfg.Name)
	}
	ids := make(map[int]bool, len(tasks))
	for _, t := range tasks {
		if ids[t.ID] {
			return fmt.Errorf("tre: %s: duplicate task ID %d in workflow", m.cfg.Name, t.ID)
		}
		ids[t.ID] = true
	}
	for _, t := range tasks {
		for _, dep := range t.Deps {
			if !ids[dep] {
				return fmt.Errorf("tre: %s: task %d depends on %d, absent from the workflow", m.cfg.Name, t.ID, dep)
			}
		}
	}
	m.wfSeq++
	wf := m.wfSeq
	for _, t := range tasks {
		key := taskKey{wf: wf, id: t.ID}
		m.keyOf[t] = key
		m.noteSubmit()
		if len(t.Deps) == 0 {
			m.queue.Push(t)
			continue
		}
		m.waiting[key] = t
		m.unmet[key] = len(t.Deps)
		for _, dep := range t.Deps {
			depKey := taskKey{wf: wf, id: dep}
			m.dependents[depKey] = append(m.dependents[depKey], key)
		}
	}
	return nil
}

// triggerMonitor fires on every completion: it notifies the MTC server of
// the change, releasing tasks whose dependency sets are now satisfied.
func (m *MTCServer) triggerMonitor(j *job.Job) {
	key, ok := m.keyOf[j]
	if !ok {
		return
	}
	delete(m.keyOf, j)
	for _, depKey := range m.dependents[key] {
		m.unmet[depKey]--
		if m.unmet[depKey] == 0 {
			t := m.waiting[depKey]
			delete(m.waiting, depKey)
			delete(m.unmet, depKey)
			m.queue.Push(t)
		}
	}
	delete(m.dependents, key)
}

// DestroyAfter makes the TRE tear itself down (releasing all nodes, the
// initial lease included) once that many tasks have completed: the
// paper's MTC provider ends its service after its workload's workflows
// run. Attach passes the workload's task count, so a later workflow
// keeps the TRE alive even after an earlier one drained. Zero, the
// default, keeps the TRE up.
func (m *MTCServer) DestroyAfter(tasks int) { m.destroyAfter = tasks }

// WaitingTasks reports tasks still blocked on dependencies.
func (m *MTCServer) WaitingTasks() int { return len(m.waiting) }
