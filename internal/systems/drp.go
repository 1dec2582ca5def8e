package systems

import (
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workflow"
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
	collectors []func() ProviderAgg
}

// OpenDRP opens an empty DRP instance over a pool of capacity nodes.
func OpenDRP(capacity int, opts Options) (*DRPInstance, error) {
	p, err := NewPlatform(capacity, opts)
	if err != nil {
		return nil, err
	}
	return &DRPInstance{Platform: p}, nil
}

// Attach admits one provider workload: every arriving job (HTC) or
// workflow (MTC) is an end user leasing its nodes from the resource
// provider under the provider's accounting owner. DRP's accounting stays
// O(jobs) even when streamed: every delivered job adds a lease segment
// to its provider's account, so only the task schedule is bounded by
// the feeder window.
func (x *DRPInstance) Attach(wl *Workload) error {
	if err := x.Claim(wl.Name); err != nil {
		return err
	}
	switch wl.Class {
	case job.HTC:
		p := &drpHTC{engine: x.engine, prov: x.prov, name: wl.Name}
		x.collectors = append(x.collectors, p.agg)
		return x.FeedJobs(wl, nil, p.deliver)
	case job.MTC:
		p := &drpMTC{engine: x.engine, prov: x.prov, name: wl.Name, owner: wl.Name + "/mtc"}
		x.collectors = append(x.collectors, p.agg)
		return x.FeedWorkflows(wl, nil, p.submit)
	}
	return fmt.Errorf("systems: workload %s: unknown class %v", wl.Name, wl.Class)
}

// Finalize settles open leases at horizon and assembles the Result over
// every attached workload, in attach order.
func (x *DRPInstance) Finalize(horizon sim.Time) (Result, error) {
	return x.Settle("DRP", horizon, true, x.aggs())
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
	aggs := make([]ProviderAgg, 0, len(x.collectors))
	for _, collect := range x.collectors {
		aggs = append(aggs, collect())
	}
	return aggs
}

// drpHTC is one HTC provider's end users: every job is an end user
// leasing its nodes from the resource provider, under the provider's
// accounting owner.
type drpHTC struct {
	engine    *sim.Engine
	prov      *csf.ProvisionService
	name      string
	submitted int
	completed int

	// free recycles lease records across end users, so a run allocates
	// one per end user running at once, not one per job.
	free []*drpLease
}

// agg reports the provider aggregate so far.
func (p *drpHTC) agg() ProviderAgg {
	return ProviderAgg{
		Name:      p.name,
		Class:     job.HTC,
		Owner:     p.name,
		Submitted: p.submitted,
		Completed: p.completed,
		Adjusted:  -1,
	}
}

// drpLease is one running end user's whole-job lease, armed as its
// completion timer through one pre-bound callback.
type drpLease struct {
	p     *drpHTC
	j     *job.Job
	lease metrics.Lease
	fn    func()
}

// deliver is one end user's arrival: lease the job's nodes and run it at
// once, releasing them at completion.
func (p *drpHTC) deliver(j *job.Job) {
	p.submitted++
	lease, granted := p.prov.RequestLease(p.name, j.Nodes)
	if granted < j.Nodes {
		// Capacity-bound cloud: the end user walks away (the DRP model
		// has no queue to wait in). Return any partial best-effort
		// grant.
		if granted > 0 {
			if err := p.prov.ReleaseLease(p.name, lease); err != nil {
				panic(fmt.Sprintf("systems: drp partial release: %v", err))
			}
		}
		return
	}
	var l *drpLease
	if k := len(p.free); k > 0 {
		l = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		l = &drpLease{p: p}
		l.fn = l.done
	}
	l.j, l.lease = j, lease
	p.engine.Schedule(j.Runtime, l.fn)
}

// done completes the end user's job and closes its lease.
func (l *drpLease) done() {
	p := l.p
	if err := p.prov.ReleaseLease(p.name, l.lease); err != nil {
		panic(fmt.Sprintf("systems: drp release %s/u%d: %v", p.name, l.j.ID, err))
	}
	p.completed++
	l.j = nil
	p.free = append(p.free, l)
}

// drpMTC is one MTC provider's workflows, each an end user running with
// unbounded leasing on leases of its own under the owner <name>/mtc.
type drpMTC struct {
	engine *sim.Engine
	prov   *csf.ProvisionService
	name   string
	owner  string
	runs   []*drpWorkflowRun
}

// submit starts one arriving workflow: every root task starts at once.
func (p *drpMTC) submit(tasks []*job.Job) error {
	r := &drpWorkflowRun{
		engine:    p.engine,
		prov:      p.prov,
		owner:     p.owner,
		remaining: len(tasks),
		first:     p.engine.Now(),
	}
	p.runs = append(p.runs, r)
	return r.tracker.Add(tasks, r.start)
}

// agg reports the provider aggregate over the workflows delivered so
// far; throughput spans the first submission to the last completion.
func (p *drpMTC) agg() ProviderAgg {
	agg := ProviderAgg{
		Name:     p.name,
		Class:    job.MTC,
		Owner:    p.owner,
		Adjusted: -1,
	}
	var first, last sim.Time
	for i, r := range p.runs {
		agg.Submitted += r.remaining + r.completed
		agg.Completed += r.completed
		if i == 0 || r.first < first {
			first = r.first
		}
		if r.last > last {
			last = r.last
		}
	}
	if span := last - first; span > 0 {
		agg.TPS = float64(agg.Completed) / float64(span)
	}
	return agg
}

// drpWorkflowRun executes one workflow with unbounded leasing and node
// reuse: ready tasks start immediately, completed tasks return their nodes
// to an idle pool consumed before new leases, and the workflow closes
// exactly the leases it took when it drains.
type drpWorkflowRun struct {
	engine *sim.Engine
	prov   *csf.ProvisionService
	owner  string

	idle      int
	leases    []metrics.Lease
	remaining int
	tracker   workflow.Tracker
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
		lease, granted := r.prov.RequestLease(r.owner, need)
		if granted > 0 {
			r.leases = append(r.leases, lease)
		}
		if granted < need {
			// Capacity-bound cloud: the task cannot run; the workflow
			// stalls here (counted as incomplete). Keep whatever nodes
			// we hold for later tasks.
			r.idle = usedIdle + granted
			return
		}
	}
	r.scheduleComplete(t)
}

func (r *drpWorkflowRun) complete(t *job.Job) {
	r.idle += t.Nodes
	r.completed++
	r.remaining--
	r.last = r.engine.Now()
	r.tracker.Done(t, r.start)
	if r.remaining == 0 {
		for _, l := range r.leases {
			if err := r.prov.ReleaseLease(r.owner, l); err != nil {
				panic(fmt.Sprintf("systems: drp workflow release: %v", err))
			}
		}
		r.leases = nil
		r.idle = 0
	}
}
