package systems

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stream"
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
// order FeedWorkflows submits them in, on either feed.
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

// Stream switches the platform to streamed feeding and returns its one
// Feeder: every later FeedJobs and FeedWorkflows puts its arrivals on
// the feeder instead of scheduling them all at attach. sources maps
// workload names to HTC job sources; an HTC workload without one
// replays its own jobs, and an MTC workload must have none (whole
// workflows are the streamed unit). Call it before the first attach and
// Start the feeder after the last.
func (p *Platform) Stream(opts stream.Options, sources map[string]stream.Source) *stream.Feeder {
	p.feeder = stream.NewFeeder(p.engine, opts)
	p.sources = sources
	return p.feeder
}

// FeedJobs puts wl's job arrivals on the clock: start, if non-nil, runs
// at the first submission ahead of its delivery, and deliver receives
// each job at its submit time. A materialized platform schedules the
// start event and then every job as one batch; a streamed one hands
// both to its feeder as a job lane.
func (p *Platform) FeedJobs(wl *Workload, start func(), deliver func(*job.Job)) error {
	if p.feeder != nil {
		src := p.sources[wl.Name]
		if src == nil {
			src = stream.FromJobs(wl.Jobs)
		}
		return p.feeder.AddJobs(wl.Name, src, p.startHook(start), deliver)
	}
	if start != nil {
		p.engine.At(wl.FirstSubmit(), start)
	}
	jobs := wl.Jobs
	p.engine.ScheduleBatch(len(jobs),
		func(i int) sim.Time { return jobs[i].Submit },
		func(i int) { deliver(&jobs[i]) })
	return nil
}

// FeedWorkflows puts wl's workflows on the clock, each submitted whole
// at its earliest task's submit time, in first-seen order (see
// WorkflowGroups); start is as for FeedJobs. A materialized platform
// schedules the start event and then one event per workflow; a streamed
// one hands them to its feeder as an action lane. A refused submission
// is a configuration error and panics.
func (p *Platform) FeedWorkflows(wl *Workload, start func(), submit func(tasks []*job.Job) error) error {
	groups := WorkflowGroups(wl.Jobs)
	runs := make([]func(), len(groups))
	for i := range groups {
		g := &groups[i]
		runs[i] = func() {
			if err := submit(g.Tasks); err != nil {
				panic(fmt.Sprintf("systems: submit workflow %s/%s: %v", wl.Name, g.Key, err))
			}
		}
	}
	if p.feeder != nil {
		if p.sources[wl.Name] != nil {
			return fmt.Errorf("systems: workload %s: MTC workloads stream as materialized workflows (source must be nil)", wl.Name)
		}
		actions := make([]stream.Action, len(groups))
		for i, g := range groups {
			actions[i] = stream.Action{At: g.At, Delta: g.Delta, Run: runs[i]}
		}
		return p.feeder.AddActions(wl.Name, actions, p.startHook(start))
	}
	if start != nil {
		p.engine.At(wl.FirstSubmit(), start)
	}
	for i, g := range groups {
		p.engine.At(g.At, runs[i])
	}
	return nil
}

// startHook adapts start to the feeder's lane start hook, which issues
// the start event at the lane's first record.
func (p *Platform) startHook(start func()) func(first sim.Time) {
	if start == nil {
		return nil
	}
	return func(first sim.Time) { p.engine.At(first, start) }
}
