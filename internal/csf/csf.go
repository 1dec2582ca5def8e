// Package csf implements the Common Service Framework of DawningCloud
// (paper Section 3.1.2): the layer the resource provider runs to manage
// thin runtime environments. It provides
//
//   - the TRE lifecycle state machine (Inexistent -> Planning -> Created ->
//     Running -> Destroyed) with deployment emulation,
//   - the resource provision service, which resolves dynamic resource
//     negotiation against the cloud's node pool under a provision policy
//     and accounts every grant as a lease handle (metrics.Lease) that its
//     holder closes, and
//   - the framework registry that walks each new TRE through creation.
//
// Thin runtime environments (internal/tre) only implement workload-specific
// behaviour and delegate everything here, which is the paper's TRE concept.
// The setup cost of node adjustments is priced where a run's result is
// assembled (systems.Platform), from the accountant's adjustment counts.
package csf

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/nodepool"
	"repro/internal/policy"
	"repro/internal/sim"
)

// DefaultNodeSetupSeconds is the measured total cost of adjusting one node
// (stopping and uninstalling the previous RE packages, installing and
// starting new ones) the paper reports from the real Dawning 5000 test.
const DefaultNodeSetupSeconds = 15.743

// State is a TRE lifecycle phase (paper Figure 4).
type State int

const (
	// Inexistent is the initial state before a provider applies.
	Inexistent State = iota
	// Planning means the request was validated and deployment is queued.
	Planning
	// Created means the TRE software is deployed but not started.
	Created
	// Running means the TRE serves end users.
	Running
	// Destroyed is the terminal state after teardown.
	Destroyed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Inexistent:
		return "inexistent"
	case Planning:
		return "planning"
	case Created:
		return "created"
	case Running:
		return "running"
	case Destroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Lifecycle is the per-TRE state machine. The zero value starts Inexistent.
type Lifecycle struct {
	state State
}

// State reports the current phase.
func (l *Lifecycle) State() State { return l.state }

func (l *Lifecycle) transition(from, to State) error {
	if l.state != from {
		return fmt.Errorf("csf: invalid transition %v -> %v (current %v)", from, to, l.state)
	}
	l.state = to
	return nil
}

// Apply validates a provider's request and moves to Planning.
func (l *Lifecycle) Apply() error { return l.transition(Inexistent, Planning) }

// Deploy records successful package deployment and moves to Created.
func (l *Lifecycle) Deploy() error { return l.transition(Planning, Created) }

// Start brings the TRE components up and moves to Running.
func (l *Lifecycle) Start() error { return l.transition(Created, Running) }

// Destroy tears the TRE down from Running.
func (l *Lifecycle) Destroy() error { return l.transition(Running, Destroyed) }

// ProvisionService is the CSF's resource provision service: the single
// point where runtime environments and end users obtain and release
// nodes. It enforces pool capacity, applies the provision policy, and
// accounts every grant as a lease of its own.
type ProvisionService struct {
	pool   *nodepool.Pool
	acct   *metrics.Accountant
	policy policy.ProvisionPolicy

	rejected int // dynamic requests refused for lack of capacity
}

// NewProvisionService builds a provision service over a pool, accounting
// into acct under the given provision policy.
func NewProvisionService(pool *nodepool.Pool, acct *metrics.Accountant, pp policy.ProvisionPolicy) *ProvisionService {
	return &ProvisionService{pool: pool, acct: acct, policy: pp}
}

// RequestInitial grants a TRE its startup lease and returns its handle;
// the TRE holds it until it is destroyed. Initial resources must be
// available; the TRE cannot start otherwise.
func (s *ProvisionService) RequestInitial(owner string, n int) (metrics.Lease, error) {
	if err := s.pool.Allocate(owner, n); err != nil {
		return metrics.Lease{}, fmt.Errorf("csf: initial provision for %s: %w", owner, err)
	}
	return s.acct.AcquireLease(owner, n), nil
}

// RequestLease resolves a dynamic request for n nodes under the provision
// policy and accounts the grant as a lease of its own under owner: a
// runtime environment's dynamic grant, or an end user's job under its
// service provider. It returns the lease and the granted node count; a
// rejected request grants zero and no lease.
func (s *ProvisionService) RequestLease(owner string, n int) (metrics.Lease, int) {
	granted := s.policy.Grant(n, s.pool.Free())
	if granted <= 0 {
		s.rejected++
		return metrics.Lease{}, 0
	}
	if err := s.pool.Allocate(owner, granted); err != nil {
		// Grant computed from Free, so allocation cannot fail; treat a
		// failure as a policy rejection to stay robust.
		s.rejected++
		return metrics.Lease{}, 0
	}
	return s.acct.AcquireLease(owner, granted), granted
}

// ReleaseLease reclaims the nodes of a lease RequestInitial or
// RequestLease granted under owner (the paper's policy always accepts
// releases).
func (s *ProvisionService) ReleaseLease(owner string, l metrics.Lease) error {
	n, err := s.acct.CloseLease(l)
	if err != nil {
		return fmt.Errorf("csf: release accounting for %s: %w", owner, err)
	}
	if err := s.pool.Release(owner, n); err != nil {
		return fmt.Errorf("csf: release from %s: %w", owner, err)
	}
	return nil
}

// RejectedRequests reports how many dynamic requests the policy refused.
func (s *ProvisionService) RejectedRequests() int { return s.rejected }

// TRE is the lifecycle record the framework keeps per runtime environment.
type TRE struct {
	Name      string
	Class     string // "HTC" or "MTC"
	Lifecycle Lifecycle
}

// Framework is the CSF registry: it creates TREs on demand for service
// providers and walks them through their lifecycle, emulating the
// deployment service and agents with configurable delays. A TRE's server
// (internal/tre) tears itself down and returns its leases.
type Framework struct {
	engine *sim.Engine
	// DeployDelay emulates the deployment service downloading and
	// installing TRE packages (seconds of virtual time).
	DeployDelay sim.Time
	// StartDelay emulates agents starting TRE components.
	StartDelay sim.Time

	tres map[string]*TRE
}

// NewFramework builds a CSF over an engine.
func NewFramework(engine *sim.Engine) *Framework {
	return &Framework{engine: engine, tres: make(map[string]*TRE)}
}

// CreateTRE walks a new TRE through Planning -> Created -> Running,
// scheduling deployment and start delays on the virtual clock, then calls
// onRunning. It fails if the name is taken.
func (f *Framework) CreateTRE(name, class string, onRunning func()) (*TRE, error) {
	if _, dup := f.tres[name]; dup {
		return nil, fmt.Errorf("csf: TRE %q already exists", name)
	}
	t := &TRE{Name: name, Class: class}
	if err := t.Lifecycle.Apply(); err != nil {
		return nil, err
	}
	f.tres[name] = t
	f.engine.Schedule(f.DeployDelay, func() {
		if err := t.Lifecycle.Deploy(); err != nil {
			panic(err) // unreachable: transitions are framework-driven
		}
		f.engine.Schedule(f.StartDelay, func() {
			if err := t.Lifecycle.Start(); err != nil {
				panic(err)
			}
			if onRunning != nil {
				onRunning()
			}
		})
	})
	return t, nil
}
