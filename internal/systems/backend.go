package systems

import (
	"context"
	"fmt"

	"repro/internal/csf"
	"repro/internal/metrics"
	"repro/internal/nodepool"
	"repro/internal/sim"
	"repro/internal/stream"
)

// UnboundedCapacity is the node count of the paper's "large cloud
// platform": a pool that never rejects a request in the reference
// experiments. It is the default pool of DRP and DawningCloud and of
// every federated instance that does not size its own.
const UnboundedCapacity = 1 << 20

// Backend describes one system to every driver: the blocking Run (serial
// or partitioned), the streamed run (internal/streamrun) and the
// federated run (internal/clustersim). A backend registered by name in
// internal/registry is reachable from all of them; its registry Runner
// is Run over the backend.
type Backend struct {
	// Name is the system's canonical name, stamped on every Result a
	// driver returns.
	Name string
	// Open opens an empty instance over a pool of capacity nodes
	// (positive). first is the serial index of the first workload the
	// instance will receive: non-zero only for a partition's chunk, so
	// positionally seeded systems can keep each workload's serial seed.
	Open func(capacity int, opts Options, first int) (Instance, error)
	// DefaultCapacity sizes the pool of a run whose options leave
	// PoolCapacity at 0: SumFixedNodes or Unbounded.
	DefaultCapacity func(workloads []Workload) int
	// Gate, if set, names why the providers of workloads would interact
	// on an unconstrained pool, so a partitioned run could not reproduce
	// the serial one; "" lets them partition.
	Gate func(workloads []Workload) string
}

// SumFixedNodes is the default capacity of the fixed-RE systems: room
// for every provider's runtime environment at once.
func SumFixedNodes(workloads []Workload) int {
	n := 0
	for i := range workloads {
		n += workloads[i].FixedNodes
	}
	return n
}

// Unbounded is the default capacity of the systems whose pool never
// rejects.
func Unbounded([]Workload) int { return UnboundedCapacity }

// Partitionable reports whether a run of b over workloads under opts
// takes the partitioned path, with the reason for the path taken.
// Partitions interact through nothing but their own pools, so the
// merged run is byte-identical to the serial one only when no provider
// can observe another's use of the shared pool: the pool must be
// unconstrained (its derived default) and b's Gate must pass.
func (b Backend) Partitionable(workloads []Workload, opts Options) (ok bool, reason string) {
	p := opts.PartitionCount(len(workloads))
	if p < 2 {
		return false, "serial: one partition"
	}
	if opts.PoolCapacity != 0 {
		return false, "serial: pool capacity-bound"
	}
	if b.Gate != nil {
		if why := b.Gate(workloads); why != "" {
			return false, "serial: " + why
		}
	}
	return true, fmt.Sprintf("partitioned P=%d", p)
}

// Run reproduces b's run over workloads and is the Runner of every
// registered backend. It validates the set, then either partitions the
// providers (see Partitionable and runPartitioned) or opens one
// instance, attaches every workload, runs to the horizon and finalizes.
// The context cancels the simulation mid-run; an aborted run returns an
// error wrapping ctx.Err(). Workloads are read-only.
func Run(ctx context.Context, b Backend, workloads []Workload, opts Options) (Result, error) {
	if err := ValidateWorkloads(workloads); err != nil {
		return Result{}, err
	}
	if ok, _ := b.Partitionable(workloads, opts); ok {
		return runPartitioned(ctx, b, workloads, opts)
	}
	horizon := opts.HorizonFor(workloads)
	capacity := opts.PoolCapacity
	if capacity == 0 {
		capacity = b.DefaultCapacity(workloads)
	}
	inst, err := b.Open(capacity, opts, 0)
	if err != nil {
		return Result{}, err
	}
	for i := range workloads {
		if err := inst.Attach(&workloads[i]); err != nil {
			return Result{}, err
		}
	}
	if err := inst.Engine().RunContext(ctx, horizon); err != nil {
		return Result{}, fmt.Errorf("systems: %s run aborted: %w", b.Name, err)
	}
	res, err := inst.Finalize(horizon)
	if err != nil {
		return Result{}, err
	}
	res.System = b.Name
	return res, nil
}

// Instance is an open simulation of one system that accepts provider
// workloads incrementally: open it, attach each provider while the
// virtual clock has not passed its first submission, drive the engine
// (RunContext, the partitioned lockstep driver, or the step primitives
// under a federated orchestrator), then Finalize to settle accounting
// and assemble the Result. FixedInstance, DRPInstance, core.Instance and
// spot.Instance implement it.
//
// Each system says once, in Attach, what a provider is on it: the
// runtime environment or end users it gets, what runs at its first
// submission, and what each arriving job or workflow does. Attach hands
// the arrivals to the embedded Platform's FeedJobs or FeedWorkflows,
// which schedule them all up front, or, once Stream switched the
// instance to streamed feeding, put them on its one Feeder.
//
// Attached workloads must already be valid (Workload.Validate);
// ValidateWorkloads over the whole intended set is the drivers' job,
// which keeps the attach path free of redundant O(jobs) re-validation.
type Instance interface {
	// Engine exposes the instance's simulation engine.
	Engine() *sim.Engine
	// Attach admits one provider workload.
	Attach(wl *Workload) error
	// Stream switches every later Attach to streamed feeding and
	// returns the instance's Feeder (see Platform.Stream).
	Stream(opts stream.Options, sources map[string]stream.Source) *stream.Feeder
	// Accounting exposes the accountant, so a partitioned run can
	// recompute the global hourly peak over every partition's leases.
	Accounting() *metrics.Accountant
	// PoolLoad snapshots node pool occupancy.
	PoolLoad() (inUse, capacity int)
	// Window snapshots every attached provider at virtual time t; call
	// it from an event on the instance clock at t (see BuildWindow).
	Window(t sim.Time) []ProviderWindow
	// Finalize settles open leases at horizon and assembles the Result
	// over every attached workload, in attach order.
	Finalize(horizon sim.Time) (Result, error)
}

// PartitionInstance is the instance surface a partitioned run drives:
// Instance, under the name the benchmark harness uses.
type PartitionInstance = Instance

// Platform is the state every instance shares: the engine, the cloud's
// node pool, the accountant, the resource provision service, the
// per-node setup cost, the provider names attached so far, the first
// runtime-environment start that failed and, on a streamed instance, its
// feeder and sources. Instances embed it, which gives them Engine,
// PoolLoad, Accounting and Stream.
type Platform struct {
	engine   *sim.Engine
	pool     *nodepool.Pool
	acct     *metrics.Accountant
	prov     *csf.ProvisionService
	setup    float64
	seen     map[string]bool
	startErr error
	feeder   *stream.Feeder
	sources  map[string]stream.Source
}

// NewPlatform builds the shared state over a pool of capacity nodes
// (positive), with opts' provision policy and setup cost (zero uses the
// paper's measured 15.743 s).
func NewPlatform(capacity int, opts Options) (Platform, error) {
	engine := sim.New()
	pool, err := nodepool.NewPool(capacity)
	if err != nil {
		return Platform{}, err
	}
	acct := metrics.NewAccountant(engine.Now)
	setup := setupCostOr(opts, csf.DefaultNodeSetupSeconds)
	return Platform{
		engine: engine,
		pool:   pool,
		acct:   acct,
		prov:   csf.NewProvisionService(pool, acct, opts.Provision),
		setup:  setup,
		seen:   make(map[string]bool),
	}, nil
}

// Engine exposes the simulation engine.
func (p *Platform) Engine() *sim.Engine { return p.engine }

// PoolLoad snapshots the node pool's occupancy.
func (p *Platform) PoolLoad() (inUse, capacity int) {
	return p.pool.InUse(), p.pool.Capacity()
}

// Accounting exposes the accountant.
func (p *Platform) Accounting() *metrics.Accountant { return p.acct }

// Provision exposes the resource provision service runtime
// environments lease from.
func (p *Platform) Provision() *csf.ProvisionService { return p.prov }

// Claim reserves a provider name for one attach; a second workload of
// the same name is refused.
func (p *Platform) Claim(name string) error {
	if p.seen[name] {
		return fmt.Errorf("systems: duplicate workload name %q", name)
	}
	p.seen[name] = true
	return nil
}

// Starter adapts a runtime environment's start to a start hook. A start
// can fail when runtime environments that each fit the pool do not fit
// together; the hook keeps the first such error and stops the engine, so
// the run ends at the failing instant, and Settle returns the error.
func (p *Platform) Starter(start func() error) func() {
	return func() {
		if err := start(); err != nil && p.startErr == nil {
			p.startErr = fmt.Errorf("systems: runtime environment start at t=%d: %w", p.engine.Now(), err)
			p.engine.Stop()
		}
	}
}

// Settle closes every open lease at horizon and assembles the Result
// over aggs. countAdjust is false only for owned machines (see
// metrics.Accountant.CloseAll). It fails with the first runtime
// environment start that failed (see Starter).
func (p *Platform) Settle(system string, horizon sim.Time, countAdjust bool, aggs []ProviderAgg) (Result, error) {
	if p.startErr != nil {
		return Result{}, p.startErr
	}
	p.acct.CloseAll(horizon, countAdjust)
	return BuildResult(system, horizon, p.acct, p.setup, p.prov.RejectedRequests(), aggs), nil
}
