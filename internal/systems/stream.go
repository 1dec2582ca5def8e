package systems

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tre"
)

// WorkflowGroup is one workflow of an MTC workload: its tasks in
// workload order, the submission time (earliest task submit) and the
// longest task runtime (the lookahead bound for streamed issue).
type WorkflowGroup struct {
	Key   string
	At    sim.Time
	Delta sim.Time
	Tasks []*job.Job
}

// WorkflowGroups splits jobs into workflows in first-seen order — the
// order every materialized MTC attach path schedules them, which
// streamed runs must reproduce for same-time ties.
func WorkflowGroups(jobs []job.Job) []WorkflowGroup {
	index := make(map[string]int)
	var groups []WorkflowGroup
	for i := range jobs {
		j := &jobs[i]
		gi, seen := index[j.Workflow]
		if !seen {
			gi = len(groups)
			index[j.Workflow] = gi
			groups = append(groups, WorkflowGroup{Key: j.Workflow, At: j.Submit})
		}
		g := &groups[gi]
		g.Tasks = append(g.Tasks, j)
		if j.Submit < g.At {
			g.At = j.Submit
		}
		if j.Runtime > g.Delta {
			g.Delta = j.Runtime
		}
	}
	return groups
}

// MTCWorkflowActions builds one submission action per workflow, in
// first-seen order, shared by the materialized attach loops (issued via
// engine.At) and the streamed action lanes (issued by the Feeder).
// errPrefix labels the panic on a rejected submission.
func MTCWorkflowActions(submit func([]*job.Job) error, name string, jobs []job.Job, errPrefix string) []stream.Action {
	groups := WorkflowGroups(jobs)
	actions := make([]stream.Action, 0, len(groups))
	for _, g := range groups {
		g := g
		actions = append(actions, stream.Action{At: g.At, Delta: g.Delta, Run: func() {
			if err := submit(g.Tasks); err != nil {
				panic(fmt.Sprintf("%s: submit workflow %s/%s: %v", errPrefix, name, g.Key, err))
			}
		}})
	}
	return actions
}

// fixedParams derives the runtime-environment policy parameters the
// fixed-size systems use for wl.
func fixedParams(wl *Workload) policy.Params {
	params := policy.Params{
		InitialNodes:      wl.FixedNodes,
		ThresholdRatio:    neverRatio,
		ScanInterval:      wl.Params.ScanInterval,
		IdleCheckInterval: wl.Params.IdleCheckInterval,
	}
	if params.ScanInterval <= 0 {
		params.ScanInterval = 60
	}
	if params.IdleCheckInterval <= 0 {
		params.IdleCheckInterval = 3600
	}
	return params
}

// AttachStream admits one provider workload fed through f instead of a
// materialized schedule. HTC jobs arrive from src (when src is nil the
// workload's own job slice is replayed as a source); MTC workloads keep
// their materialized job slice — whole workflows are the streamed unit —
// and ride f as an action lane so cross-lane ties replay exactly. The
// feeder must belong to this instance's engine and be started after
// every attach.
func (x *FixedInstance) AttachStream(wl *Workload, src stream.Source, f *stream.Feeder) error {
	if err := x.Claim(wl.Name); err != nil {
		return err
	}
	params := fixedParams(wl)
	switch wl.Class {
	case job.HTC:
		srv, err := tre.NewHTCServer(x.engine, x.prov, tre.Config{Name: wl.Name, Params: params})
		if err != nil {
			return err
		}
		if src == nil {
			src = stream.FromJobs(wl.Jobs)
		}
		err = f.AddJobs(wl.Name, src,
			func(first sim.Time) { startAt(x.engine, first, srv.Start) },
			func(j *job.Job) { srv.Submit(j) })
		if err != nil {
			return err
		}
		x.servers.Add(wl, srv)
	case job.MTC:
		if src != nil {
			return fmt.Errorf("systems: workload %s: MTC workloads stream as materialized workflows (source must be nil)", wl.Name)
		}
		srv, err := tre.NewMTCServer(x.engine, x.prov, tre.Config{
			Name:                wl.Name,
			Params:              params,
			DestroyOnCompletion: true,
		})
		if err != nil {
			return err
		}
		actions := MTCWorkflowActions(srv.SubmitWorkflow, wl.Name, wl.Jobs, "systems")
		err = f.AddActions(wl.Name, actions,
			func(first sim.Time) { startAt(x.engine, first, srv.Start) })
		if err != nil {
			return err
		}
		x.servers.Add(wl, srv)
	default:
		return fmt.Errorf("systems: workload %s: unknown class %v", wl.Name, wl.Class)
	}
	return nil
}

// drpStreamAgg accumulates one streamed DRP HTC provider's aggregate as
// records are delivered.
type drpStreamAgg struct {
	owners    []string
	submitted int
	completed int
}

// AttachStream admits one provider workload to an open DRP instance
// through f; see FixedInstance.AttachStream for the streaming contract.
// Note that DRP's per-end-user accounting is inherently O(total jobs):
// every delivered job creates an owner entry, so only the task schedule
// (not the accountant) is bounded by the feeder window.
func (x *DRPInstance) AttachStream(wl *Workload, src stream.Source, f *stream.Feeder) error {
	if err := x.Claim(wl.Name); err != nil {
		return err
	}
	switch wl.Class {
	case job.HTC:
		if src == nil {
			src = stream.FromJobs(wl.Jobs)
		}
		agg := &drpStreamAgg{}
		name := wl.Name
		err := f.AddJobs(wl.Name, src, nil, func(j *job.Job) {
			owner := fmt.Sprintf("%s/u%d", name, j.ID)
			agg.owners = append(agg.owners, owner)
			agg.submitted++
			l := &drpLease{engine: x.engine, prov: x.prov, owner: owner, j: j, completed: &agg.completed}
			l.fn = l.fire
			l.fire()
		})
		if err != nil {
			return err
		}
		x.runners = append(x.runners, func() ProviderAgg {
			return ProviderAgg{
				Name:      name,
				Class:     job.HTC,
				Owners:    agg.owners,
				Submitted: agg.submitted,
				Completed: agg.completed,
				Adjusted:  -1,
			}
		})
	case job.MTC:
		if src != nil {
			return fmt.Errorf("systems: workload %s: MTC workloads stream as materialized workflows (source must be nil)", wl.Name)
		}
		actions, collect := drpWorkflowActions(x.engine, x.prov, wl)
		if err := f.AddActions(wl.Name, actions, nil); err != nil {
			return err
		}
		x.runners = append(x.runners, collect)
	default:
		return fmt.Errorf("systems: workload %s: unknown class %v", wl.Name, wl.Class)
	}
	return nil
}
