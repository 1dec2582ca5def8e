// Package csf implements the Common Service Framework of DawningCloud
// (paper Section 3.1.2): the layer the resource provider runs to manage
// thin runtime environments. It provides
//
//   - the TRE lifecycle state machine (Inexistent -> Planning -> Created ->
//     Running -> Destroyed) with deployment emulation,
//   - the resource provision service, which resolves dynamic resource
//     negotiation against the cloud's node pool under a provision policy
//     and accounts every adjustment's setup cost, and
//   - the framework registry tying both together.
//
// Thin runtime environments (internal/tre) only implement workload-specific
// behaviour and delegate everything here, which is the paper's TRE concept.
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
// point where runtime environments obtain and release nodes. It enforces
// pool capacity, applies the provision policy, and accounts consumption
// plus adjustment setup costs.
type ProvisionService struct {
	pool      *nodepool.Pool
	acct      *metrics.Accountant
	policy    policy.ProvisionPolicy
	setupCost float64 // seconds per adjusted node

	rejected int // dynamic requests refused for lack of capacity
}

// NewProvisionService builds a provision service over a pool, accounting
// into acct under the given provision policy. setupCost is the per-node
// adjustment cost in seconds (use DefaultNodeSetupSeconds).
func NewProvisionService(pool *nodepool.Pool, acct *metrics.Accountant, pp policy.ProvisionPolicy, setupCost float64) *ProvisionService {
	return &ProvisionService{pool: pool, acct: acct, policy: pp, setupCost: setupCost}
}

// Pool exposes the underlying node pool (read-only use expected).
func (s *ProvisionService) Pool() *nodepool.Pool { return s.pool }

// Accountant exposes the consumption ledger.
func (s *ProvisionService) Accountant() *metrics.Accountant { return s.acct }

// RequestInitial grants a TRE its never-reclaimed startup lease. Initial
// resources must be available; the TRE cannot start otherwise.
func (s *ProvisionService) RequestInitial(owner string, n int) error {
	if err := s.pool.Allocate(owner, n); err != nil {
		return fmt.Errorf("csf: initial provision for %s: %w", owner, err)
	}
	s.acct.Acquire(owner, n)
	return nil
}

// RequestDynamic resolves a dynamic resource request under the provision
// policy: it returns the granted node count, zero when rejected.
func (s *ProvisionService) RequestDynamic(owner string, n int) int {
	granted := s.grant(owner, n)
	if granted > 0 {
		s.acct.Acquire(owner, granted)
	}
	return granted
}

// RequestLease resolves an end user's request for n nodes under the
// provision policy, as RequestDynamic does, and accounts the grant as a
// lease of its own under owner, the end user's service provider. It
// returns the lease and the granted node count; a rejected request
// grants zero and no lease.
func (s *ProvisionService) RequestLease(owner string, n int) (metrics.Lease, int) {
	granted := s.grant(owner, n)
	if granted <= 0 {
		return metrics.Lease{}, 0
	}
	return s.acct.AcquireLease(owner, granted), granted
}

// grant takes the nodes the provision policy grants for a request of n
// from the pool on owner's behalf, and counts a rejection when it grants
// none.
func (s *ProvisionService) grant(owner string, n int) int {
	granted := s.policy.Grant(n, s.pool.Free())
	if granted <= 0 {
		s.rejected++
		return 0
	}
	if err := s.pool.Allocate(owner, granted); err != nil {
		// Grant computed from Free, so allocation cannot fail; treat a
		// failure as a policy rejection to stay robust.
		s.rejected++
		return 0
	}
	return granted
}

// Release passively reclaims n nodes from owner (the paper's policy always
// accepts releases).
func (s *ProvisionService) Release(owner string, n int) error {
	if err := s.pool.Release(owner, n); err != nil {
		return fmt.Errorf("csf: release from %s: %w", owner, err)
	}
	if err := s.acct.Release(owner, n); err != nil {
		return fmt.Errorf("csf: release accounting for %s: %w", owner, err)
	}
	return nil
}

// ReleaseLease reclaims the nodes of a lease RequestLease granted under
// owner.
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

// SetupCostSeconds converts an adjusted-node count into setup seconds.
func (s *ProvisionService) SetupCostSeconds(nodesAdjusted int) float64 {
	return float64(nodesAdjusted) * s.setupCost
}

// ManagementOverhead reports the provider-side setup work implied by all
// adjustments so far, in seconds, and the average per hour over the given
// horizon (paper Section 4.5.4 reports ~341 s/hour for DawningCloud).
func (s *ProvisionService) ManagementOverhead(horizon sim.Time) (total, perHour float64) {
	total = s.SetupCostSeconds(s.acct.TotalNodesAdjusted())
	hours := float64(horizon) / 3600
	if hours > 0 {
		perHour = total / hours
	}
	return total, perHour
}

// TRE is the lifecycle record the framework keeps per runtime environment.
type TRE struct {
	Name      string
	Class     string // "HTC" or "MTC"
	Lifecycle Lifecycle
}

// Framework is the CSF registry: it creates TREs on demand for service
// providers and manages their lifecycle, emulating the deployment service
// and agents with configurable delays.
type Framework struct {
	engine    *sim.Engine
	provision *ProvisionService
	// DeployDelay emulates the deployment service downloading and
	// installing TRE packages (seconds of virtual time).
	DeployDelay sim.Time
	// StartDelay emulates agents starting TRE components.
	StartDelay sim.Time

	tres map[string]*TRE
}

// NewFramework builds a CSF over an engine and provision service.
func NewFramework(engine *sim.Engine, prov *ProvisionService) *Framework {
	return &Framework{engine: engine, provision: prov, tres: make(map[string]*TRE)}
}

// Provision exposes the resource provision service.
func (f *Framework) Provision() *ProvisionService { return f.provision }

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

// DestroyTRE tears a running TRE down, releasing all nodes it still holds.
func (f *Framework) DestroyTRE(name string) error {
	t, ok := f.tres[name]
	if !ok {
		return fmt.Errorf("csf: TRE %q not found", name)
	}
	if err := t.Lifecycle.Destroy(); err != nil {
		return err
	}
	if held := f.provision.Pool().Held(name); held > 0 {
		if err := f.provision.Release(name, held); err != nil {
			return err
		}
	}
	return nil
}

// TRECount reports how many TREs the framework has created (any state).
func (f *Framework) TRECount() int { return len(f.tres) }

// Get returns a TRE record by name.
func (f *Framework) Get(name string) (*TRE, bool) {
	t, ok := f.tres[name]
	return t, ok
}
