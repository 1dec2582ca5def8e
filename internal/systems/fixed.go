package systems

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/policy"
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

// Attach admits one provider workload: its fixed-size runtime
// environment starts at the first submission, and each job (HTC) or
// whole workflow (MTC) goes to its server on arrival. An MTC runtime
// environment tears down once every task of the workload completed. The
// workload's first submission must not be in the instance's past, and
// its runtime environment must fit the pool.
func (x *FixedInstance) Attach(wl *Workload) error {
	if _, capacity := x.PoolLoad(); wl.FixedNodes > capacity {
		return fmt.Errorf("systems: workload %s: runtime environment of %d nodes exceeds the pool's %d", wl.Name, wl.FixedNodes, capacity)
	}
	if err := x.Claim(wl.Name); err != nil {
		return err
	}
	cfg := tre.Config{Name: wl.Name, Params: fixedParams(wl)}
	switch wl.Class {
	case job.HTC:
		srv, err := tre.NewHTCServer(x.engine, x.prov, cfg)
		if err != nil {
			return err
		}
		x.servers.Add(wl, srv)
		return x.FeedJobs(wl, x.Starter(srv.Start), srv.Submit)
	case job.MTC:
		srv, err := tre.NewMTCServer(x.engine, x.prov, cfg)
		if err != nil {
			return err
		}
		srv.DestroyAfter(len(wl.Jobs))
		x.servers.Add(wl, srv)
		return x.FeedWorkflows(wl, x.Starter(srv.Start), srv.SubmitWorkflow)
	}
	return fmt.Errorf("systems: workload %s: unknown class %v", wl.Name, wl.Class)
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

// Finalize settles open leases at horizon and assembles the Result over
// every attached workload, in attach order.
func (x *FixedInstance) Finalize(horizon sim.Time) (Result, error) {
	return x.Settle(x.system, horizon, !x.owned, x.servers.Aggs(horizon, x.owned))
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
