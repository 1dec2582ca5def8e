package systems

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/tre"
)

// neverRatio is a threshold ratio no finite queue exceeds, disabling DR1
// for fixed-size runtime environments.
const neverRatio = 1e18

// DCS is the dedicated cluster system model: every service provider
// owns a fixed-size cluster sized by FixedNodes, with the same queueing
// behaviour as SSP. Consumption is size x period; no adjustments are
// counted because the provider owns the machines.
var DCS = fixedBackend("DCS", true)

// SSP is the static service provision model (Evangelinos et al.): each
// provider leases a fixed-size virtual cluster from the cloud for the
// whole period and runs a queuing system on it. Performance matches DCS
// by construction; only ownership (TCO, adjustments) differs.
var SSP = fixedBackend("SSP", false)

// fixedBackend describes the DCS/SSP emulated system of Figure 8:
// per-provider servers and schedulers with fixed resources and no
// resource provision service interaction after startup. The pool holds
// every RE at once; providers couple only through it, and with that
// capacity plus every MTC job fitting its own RE, no provider ever
// observes another's free capacity — per-partition pools sized the same
// way behave identically.
func fixedBackend(system string, owned bool) Backend {
	return Backend{
		Name: system,
		Open: func(capacity int, opts Options, _ int) (Instance, error) {
			return OpenFixed(system, owned, capacity, opts)
		},
		DefaultCapacity: SumFixedNodes,
		Gate: func(workloads []Workload) string {
			if !mtcFitsFixed(workloads) {
				return "an MTC job is wider than its runtime environment"
			}
			return ""
		},
	}
}

// FixedInstance is an open DCS/SSP simulation (see Instance).
type FixedInstance struct {
	Platform
	system  string
	owned   bool
	servers Servers
}

// OpenFixed opens an empty DCS (owned=true) or SSP (owned=false)
// instance over a pool of capacity nodes. Capacity must be explicit and
// positive: an open instance cannot derive it from workloads it has not
// seen yet (Run sums FixedNodes before opening).
func OpenFixed(system string, owned bool, capacity int, opts Options) (*FixedInstance, error) {
	p, err := NewPlatform(capacity, opts)
	if err != nil {
		return nil, err
	}
	return &FixedInstance{Platform: p, system: system, owned: owned}, nil
}

// Attach admits one provider workload: its runtime environment is
// created and its job arrivals are scheduled on the instance clock. The
// workload's first submission must not be in the instance's past.
func (x *FixedInstance) Attach(wl *Workload) error {
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
		if err := startAndFeedHTC(x.engine, srv, wl); err != nil {
			return err
		}
		x.servers.Add(wl, srv)
	case job.MTC:
		srv, err := tre.NewMTCServer(x.engine, x.prov, tre.Config{
			Name:                wl.Name,
			Params:              params,
			DestroyOnCompletion: true,
		})
		if err != nil {
			return err
		}
		if err := startAndFeedMTC(x.engine, srv, wl); err != nil {
			return err
		}
		x.servers.Add(wl, srv)
	default:
		return fmt.Errorf("systems: workload %s: unknown class %v", wl.Name, wl.Class)
	}
	return nil
}

// Finalize settles open leases at horizon and assembles the Result over
// every attached workload, in attach order.
func (x *FixedInstance) Finalize(horizon sim.Time) (Result, error) {
	return x.Settle(x.system, horizon, !x.owned, x.servers.Aggs(horizon, x.owned)), nil
}

// Window snapshots every attached provider at virtual time t, for
// per-window streamed reports. Call it from an event on the instance
// clock at t; leases stay open (see BuildWindow).
func (x *FixedInstance) Window(t sim.Time) []ProviderWindow {
	return BuildWindow(x.acct, t, x.servers.Aggs(t, x.owned))
}

// Server is the runtime-environment server surface result assembly
// reads; tre.Server and tre.MTCServer implement it.
type Server interface {
	Submitted() int
	CompletedBy(sim.Time) int
	TasksPerSecond() float64
}

// Servers lists the attached providers' servers in attach order, for
// the systems that run one runtime-environment server per provider.
type Servers []providerServer

type providerServer struct {
	wl  *Workload
	srv Server
}

// Add records wl's server.
func (s *Servers) Add(wl *Workload, srv Server) {
	*s = append(*s, providerServer{wl: wl, srv: srv})
}

// Aggs builds every provider's aggregate as of virtual time t, for
// Settle at the horizon or Snapshot mid-run. owned pins adjustments to
// 0: DCS providers own their machines.
func (s Servers) Aggs(t sim.Time, owned bool) []ProviderAgg {
	aggs := make([]ProviderAgg, 0, len(s))
	for _, p := range s {
		a := ProviderAgg{
			Name:      p.wl.Name,
			Class:     p.wl.Class,
			Owner:     p.wl.Name,
			Submitted: p.srv.Submitted(),
			Completed: p.srv.CompletedBy(t),
			Adjusted:  -1,
		}
		if owned {
			a.Adjusted = 0
		}
		if p.wl.Class == job.MTC {
			a.TPS = p.srv.TasksPerSecond()
		}
		aggs = append(aggs, a)
	}
	return aggs
}

// startAndFeedHTC starts the server at the workload's first submission and
// schedules every job submission on the virtual clock in one batch.
func startAndFeedHTC(engine *sim.Engine, srv *tre.Server, wl *Workload) error {
	if err := startAt(engine, wl.FirstSubmit(), srv.Start); err != nil {
		return err
	}
	jobs := wl.Jobs
	engine.ScheduleBatch(len(jobs),
		func(i int) sim.Time { return jobs[i].Submit },
		func(i int) { srv.Submit(&jobs[i]) })
	return nil
}

// startAndFeedMTC starts the MTC server and submits whole workflows at
// their first task's submission time (the service provider submits the
// workflow description; the trigger monitor stages the tasks).
func startAndFeedMTC(engine *sim.Engine, srv *tre.MTCServer, wl *Workload) error {
	if err := startAt(engine, wl.FirstSubmit(), srv.Start); err != nil {
		return err
	}
	for _, a := range MTCWorkflowActions(srv.SubmitWorkflow, wl.Name, wl.Jobs, "systems") {
		engine.At(a.At, a.Run)
	}
	return nil
}

// startAt runs start on the virtual clock at time t (immediately when the
// clock is already there), converting start errors into panics carrying
// context: server startup failure is a configuration error, and the paper's
// provision policy guarantees initial grants on an adequately sized pool.
func startAt(engine *sim.Engine, t sim.Time, start func() error) error {
	engine.At(t, func() {
		if err := start(); err != nil {
			panic(fmt.Sprintf("systems: server start at t=%d: %v", t, err))
		}
	})
	return nil
}
