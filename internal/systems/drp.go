package systems

import (
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stream"
)

// DRP is the direct resource provision model (Deelman et al.): every
// end user leases virtual machines straight from the resource provider
// for exactly one job, with no runtime environment, no queuing and
// hourly billing. MTC workflows execute with unbounded parallelism,
// reusing a leased node for sequential tasks and releasing everything at
// the end. On the default pool the cloud is never capacity-bound, so
// leases are independent per end user and partitions need no gate.
var DRP = Backend{
	Name: "DRP",
	Open: func(capacity int, opts Options, _ int) (Instance, error) {
		return OpenDRP(capacity, opts)
	},
	DefaultCapacity: Unbounded,
}

// DRPInstance is an open direct-resource-provision simulation (see
// Instance).
type DRPInstance struct {
	Platform
	runners []func() ProviderAgg
}

// OpenDRP opens an empty DRP instance over a pool of capacity nodes.
func OpenDRP(capacity int, opts Options) (*DRPInstance, error) {
	p, err := NewPlatform(capacity, opts)
	if err != nil {
		return nil, err
	}
	return &DRPInstance{Platform: p}, nil
}

// Attach admits one provider workload, scheduling its end users' leases
// on the instance clock.
func (x *DRPInstance) Attach(wl *Workload) error {
	if err := x.Claim(wl.Name); err != nil {
		return err
	}
	switch wl.Class {
	case job.HTC:
		x.runners = append(x.runners, runDRPHTC(x.engine, x.prov, wl))
	case job.MTC:
		x.runners = append(x.runners, runDRPMTC(x.engine, x.prov, wl))
	default:
		return fmt.Errorf("systems: workload %s: unknown class %v", wl.Name, wl.Class)
	}
	return nil
}

// Finalize settles open leases at horizon and assembles the Result over
// every attached workload, in attach order.
func (x *DRPInstance) Finalize(horizon sim.Time) (Result, error) {
	return x.Settle("DRP", horizon, true, x.aggs()), nil
}

// Window snapshots every attached provider at virtual time t, for
// per-window streamed reports; see FixedInstance.Window. The collectors
// read live counters, so "completed" means completed by t when the call
// comes from an event at t.
func (x *DRPInstance) Window(t sim.Time) []ProviderWindow {
	return BuildWindow(x.acct, t, x.aggs())
}

// aggs collects every attached provider's aggregate, in attach order.
func (x *DRPInstance) aggs() []ProviderAgg {
	aggs := make([]ProviderAgg, 0, len(x.runners))
	for _, collect := range x.runners {
		aggs = append(aggs, collect())
	}
	return aggs
}

// drpLease is one end user's whole-job lease: submit acquires, the same
// node fires again at completion to release. One struct (from a single
// per-workload slab) and one bound callback cover both events, so the
// run's hot loop schedules completions without allocating.
type drpLease struct {
	engine    *sim.Engine
	prov      *csf.ProvisionService
	owner     string
	j         *job.Job
	completed *int
	leased    bool
	fn        func()
}

func (l *drpLease) fire() {
	if !l.leased {
		granted := l.prov.RequestDynamic(l.owner, l.j.Nodes)
		if granted < l.j.Nodes {
			// Capacity-bound cloud: the end user walks away (the
			// DRP model has no queue to wait in). Return any
			// partial best-effort grant.
			if granted > 0 {
				if err := l.prov.Release(l.owner, granted); err != nil {
					panic(fmt.Sprintf("systems: drp partial release: %v", err))
				}
			}
			return
		}
		l.leased = true
		l.engine.Schedule(l.j.Runtime, l.fn)
		return
	}
	if err := l.prov.Release(l.owner, l.j.Nodes); err != nil {
		panic(fmt.Sprintf("systems: drp release %s: %v", l.owner, err))
	}
	*l.completed++
}

// runDRPHTC schedules every independent job as its own end-user lease:
// acquire at submit, run immediately, release at completion. It returns a
// collector producing the provider aggregate after the run.
func runDRPHTC(engine *sim.Engine, prov *csf.ProvisionService, wl *Workload) func() ProviderAgg {
	owners := make([]string, 0, len(wl.Jobs))
	completed := new(int)
	leases := make([]drpLease, len(wl.Jobs))
	for i := range wl.Jobs {
		j := &wl.Jobs[i]
		owner := fmt.Sprintf("%s/u%d", wl.Name, j.ID)
		owners = append(owners, owner)
		l := &leases[i]
		*l = drpLease{engine: engine, prov: prov, owner: owner, j: j, completed: completed}
		l.fn = l.fire
	}
	engine.ScheduleBatch(len(leases),
		func(i int) sim.Time { return leases[i].j.Submit },
		func(i int) { leases[i].fire() })
	return func() ProviderAgg {
		return ProviderAgg{
			Name:      wl.Name,
			Class:     job.HTC,
			Owners:    owners,
			Submitted: len(wl.Jobs),
			Completed: *completed,
			Adjusted:  -1,
		}
	}
}

// drpWorkflowRun executes one workflow with unbounded leasing and node
// reuse: ready tasks start immediately, completed tasks return their nodes
// to an idle pool consumed before new leases, and the whole lease releases
// when the workflow drains.
type drpWorkflowRun struct {
	engine *sim.Engine
	prov   *csf.ProvisionService
	owner  string

	idle      int
	leased    int
	remaining int
	unmet     map[int]int
	deps      map[int][]*job.Job
	completed int
	first     sim.Time
	last      sim.Time

	// doneFree recycles task-completion timer nodes across the workflow's
	// events, keeping the start/complete cascade allocation-free once the
	// widest stage has run.
	doneFree []*drpTaskDone
}

// drpTaskDone is a reusable completion timer for one running task.
type drpTaskDone struct {
	r  *drpWorkflowRun
	t  *job.Job
	fn func()
}

func (n *drpTaskDone) run() {
	t := n.t
	n.t = nil
	r := n.r
	r.doneFree = append(r.doneFree, n)
	r.complete(t)
}

// scheduleComplete arms t's completion on a recycled node.
func (r *drpWorkflowRun) scheduleComplete(t *job.Job) {
	var n *drpTaskDone
	if k := len(r.doneFree); k > 0 {
		n = r.doneFree[k-1]
		r.doneFree = r.doneFree[:k-1]
	} else {
		n = &drpTaskDone{r: r}
		n.fn = n.run
	}
	n.t = t
	r.engine.Schedule(t.Runtime, n.fn)
}

func (r *drpWorkflowRun) start(t *job.Job) {
	take := t.Nodes
	if r.idle >= take {
		r.idle -= take
	} else {
		usedIdle := r.idle
		need := take - usedIdle
		r.idle = 0
		granted := r.prov.RequestDynamic(r.owner, need)
		if granted < need {
			// Capacity-bound cloud: the task cannot run; the workflow
			// stalls here (counted as incomplete). Keep whatever nodes
			// we hold for later tasks.
			r.idle = usedIdle + granted
			if granted > 0 {
				r.leased += granted
			}
			return
		}
		r.leased += need
	}
	r.scheduleComplete(t)
}

func (r *drpWorkflowRun) complete(t *job.Job) {
	r.idle += t.Nodes
	r.completed++
	r.remaining--
	r.last = r.engine.Now()
	for _, dep := range r.deps[t.ID] {
		r.unmet[dep.ID]--
		if r.unmet[dep.ID] == 0 {
			delete(r.unmet, dep.ID)
			r.start(dep)
		}
	}
	delete(r.deps, t.ID)
	if r.remaining == 0 && r.leased > 0 {
		if err := r.prov.Release(r.owner, r.leased); err != nil {
			panic(fmt.Sprintf("systems: drp workflow release: %v", err))
		}
		r.leased = 0
		r.idle = 0
	}
}

// runDRPMTC schedules a provider's workflows, one lease scope per provider.
func runDRPMTC(engine *sim.Engine, prov *csf.ProvisionService, wl *Workload) func() ProviderAgg {
	actions, collect := drpWorkflowActions(engine, prov, wl)
	for _, a := range actions {
		engine.At(a.At, a.Run)
	}
	return collect
}

// drpWorkflowActions builds one release action per workflow of wl — in
// first-seen order, for the materialized attach loop or a streamed
// action lane — plus the provider-aggregate collector over them.
func drpWorkflowActions(engine *sim.Engine, prov *csf.ProvisionService, wl *Workload) ([]stream.Action, func() ProviderAgg) {
	owner := wl.Name + "/mtc"
	groups := WorkflowGroups(wl.Jobs)
	runs := make([]*drpWorkflowRun, 0, len(groups))
	actions := make([]stream.Action, 0, len(groups))
	for _, g := range groups {
		tasks := g.Tasks
		run := &drpWorkflowRun{
			engine:    engine,
			prov:      prov,
			owner:     owner,
			remaining: len(tasks),
			unmet:     make(map[int]int),
			deps:      make(map[int][]*job.Job),
			first:     g.At,
		}
		runs = append(runs, run)
		actions = append(actions, stream.Action{At: g.At, Delta: g.Delta, Run: func() {
			for _, t := range tasks {
				if len(t.Deps) == 0 {
					continue
				}
				run.unmet[t.ID] = len(t.Deps)
				for _, d := range t.Deps {
					run.deps[d] = append(run.deps[d], t)
				}
			}
			for _, t := range tasks {
				if len(t.Deps) == 0 {
					run.start(t)
				}
			}
		}})
	}
	return actions, func() ProviderAgg {
		agg := ProviderAgg{
			Name:     wl.Name,
			Class:    job.MTC,
			Owners:   []string{owner},
			Adjusted: -1,
		}
		var span sim.Time
		var firstSet bool
		var first, last sim.Time
		for _, run := range runs {
			agg.Submitted += run.remaining + run.completed
			agg.Completed += run.completed
			if !firstSet || run.first < first {
				first = run.first
				firstSet = true
			}
			if run.last > last {
				last = run.last
			}
		}
		span = last - first
		if span > 0 {
			agg.TPS = float64(agg.Completed) / float64(span)
		}
		return agg
	}
}
