// Package clustersim runs N provider instances behind one shared
// virtual clock with a pluggable routing policy — the federated
// counterpart of the single-platform consolidation the paper evaluates.
// Each instance is a full simulation of one registered backend (its own
// engine, node pool, accountant and provision service) opened through
// the open/attach/finalize instance API; the orchestrator dispatches
// each service provider's workload to an instance at simulation time and
// interleaves the instances' events in global time order.
//
// # Shared-clock invariants
//
//   - The orchestrator always advances the instance whose next event is
//     earliest; ties are broken by InstanceID, so the global interleaving
//     is a deterministic function of the inputs.
//   - A request (one provider's whole workload, arriving at its first
//     submission time) is dispatched before any instance event with the
//     same or a later timestamp, so the chosen instance's clock has
//     never passed the request's arrival when Attach runs.
//   - No instance's clock can pass an undispatched request's arrival
//     time: routing policies observe instance state as of dispatch time,
//     never from an instance's future.
//   - Per-instance randomness derives from the run seed and the stable
//     InstanceID alone (see ProviderInstance.Seed), so an instance's
//     results are independent of how many sibling instances exist and of
//     how their events interleave. Federating N identical providers over
//     N instances reproduces N independent runs byte-identically — the
//     shared clock adds no drift (proved in the test suite).
//
// # Routing policies
//
// A RoutingPolicy maps each request to an instance given a snapshot of
// every instance's observable state. Policies register by name in the
// package registry (RegisterPolicy), mirroring internal/registry's
// conventions; round-robin, least-loaded, cost-aware, spot-price-aware
// and pin-to-owner ship built in. To add one:
//
//	clustersim.RegisterPolicy("my-policy", func(cfg clustersim.PolicyConfig) clustersim.RoutingPolicy {
//		return myPolicy{instances: cfg.Instances}
//	})
//
// and reference it by name from a scenario spec's federation block.
package clustersim

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/events"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/spot"
	"repro/internal/systems"
)

// InstanceID identifies a provider instance within a federation: the
// 0-based position in the federation's instance list, stable for the
// life of the run.
type InstanceID int

// DefaultWindow is the aggregation window for ClusterWindow events.
const DefaultWindow = sim.Day

// instanceSeedStride spaces per-instance seeds derived from the run
// seed. It is coprime to the per-workload stride inside an instance
// (7919, see internal/spot), so no two random streams in a federation
// share a seed.
const instanceSeedStride = 104729

// InstanceConfig describes one provider instance of a federation.
type InstanceConfig struct {
	// Name labels the instance in results and events; empty derives
	// "instance-<id>".
	Name string
	// Capacity is the instance's node pool size; zero means
	// systems.UnboundedCapacity (never rejecting) for every system.
	Capacity int
	// PricePerNodeHour is the instance's on-demand rate, observed by the
	// cost-aware routing policy; zero means the paper's 2009 EC2 rate
	// via internal/cost (two instances per node).
	PricePerNodeHour float64
}

// Config describes a federation run.
type Config struct {
	// System is the registered backend every instance runs
	// (federations are homogeneous; comparing systems is the scenario
	// layer's job).
	System string
	// Policy is the routing policy name (see RegisterPolicy).
	Policy string
	// Instances lists the federation's provider instances. At least one
	// is required.
	Instances []InstanceConfig
	// Options are the shared run options. Options.Seed is the run seed
	// every instance's randomness derives from; Options.PoolCapacity is
	// ignored (capacity is per instance).
	Options systems.Options
	// Window is the ClusterWindow aggregation period; zero means
	// DefaultWindow (one day).
	Window sim.Time
	// Events receives ClusterWindow aggregates; nil runs unobserved.
	Events events.Sink
}

// ProviderInstance is one federated provider: a stable identity plus the
// open backend simulation it wraps.
type ProviderInstance struct {
	id      InstanceID
	name    string
	seed    int64
	price   float64
	backend systems.Instance

	attached   int
	dispatched int
}

// ID reports the instance's stable identity.
func (p *ProviderInstance) ID() InstanceID { return p.id }

// Name reports the instance's label.
func (p *ProviderInstance) Name() string { return p.name }

// Seed reports the instance's derived seed: a pure function of the run
// seed and the InstanceID, so per-instance randomness is independent of
// instance count and event interleaving.
func (p *ProviderInstance) Seed() int64 { return p.seed }

// InstanceState is one instance's observable state in the snapshot a
// routing policy receives at dispatch time.
type InstanceState struct {
	ID   InstanceID
	Name string
	// Now is the instance's virtual clock.
	Now sim.Time
	// NodesInUse and Capacity snapshot the instance's node pool.
	NodesInUse int
	Capacity   int
	// PricePerNodeHour is the instance's on-demand rate.
	PricePerNodeHour float64
	// SpotPrice is the instance's current spot-market price (its
	// per-instance PriceWalk advanced to the dispatch hour).
	SpotPrice float64
	// Attached counts provider workloads attached so far; Dispatched
	// counts requests routed here (equal unless an Attach failed).
	Attached   int
	Dispatched int
	// PendingEvents is the instance's event queue length.
	PendingEvents int
}

// Request is one dispatch unit: a whole service provider workload
// arriving at its first submission time.
type Request struct {
	// Index is the workload's position in the submitted set.
	Index int
	// Time is the workload's first submission.
	Time sim.Time
	// Workload is the provider's workload (read-only).
	Workload *systems.Workload
	// Owner is the instance this provider belongs to — the degenerate
	// pin-to-owner policy routes here, and consolidation-vs-federation
	// studies use it to model "everyone keeps their own provider".
	Owner InstanceID
}

// Dispatch records one routing decision.
type Dispatch struct {
	Time     sim.Time
	Workload string
	Instance InstanceID
}

// InstanceResult is one instance's finalized result.
type InstanceResult struct {
	ID         InstanceID
	Name       string
	Dispatched int
	Result     systems.Result
}

// ClusterResult is a finished federation run.
type ClusterResult struct {
	System  string
	Policy  string
	Horizon sim.Time
	// Instances holds each instance's own Result, in InstanceID order.
	Instances []InstanceResult
	// Merged aggregates the federation as if it were one platform:
	// provider rows in original workload order, totals summed across
	// instances. PeakNodes is the sum of per-instance peaks — the node
	// count the federation must be able to hold simultaneously in the
	// worst case — since separate pools peak at different hours.
	Merged systems.Result
	// Dispatches is the routing log, in dispatch order.
	Dispatches []Dispatch
	// Windows is the number of ClusterWindow aggregates emitted.
	Windows int
	// Steps counts the engine events executed through the shared clock
	// across every instance (the federation's total event volume).
	Steps int64
}

// ClusterSim orchestrates N provider instances behind one shared clock.
// The zero value is not usable; construct with New.
type ClusterSim struct {
	cfg       Config
	system    string
	policy    RoutingPolicy
	instances []*ProviderInstance

	// walks are the per-instance spot price processes the routing
	// snapshot exposes; walkHour tracks how far each has been advanced.
	walks    []*spot.PriceWalk
	walkHour []int64
}

// New builds a federation from cfg: every instance's backend is opened
// (empty, clock at zero) and the routing policy is instantiated.
func New(cfg Config) (*ClusterSim, error) {
	if len(cfg.Instances) == 0 {
		return nil, fmt.Errorf("clustersim: federation needs at least one instance")
	}
	b, err := registry.Default.Backend(cfg.System)
	if err != nil {
		return nil, fmt.Errorf("clustersim: %w", err)
	}
	policy, err := NewPolicy(cfg.Policy, PolicyConfig{
		Instances: len(cfg.Instances),
		Seed:      cfg.Options.Seed,
	})
	if err != nil {
		return nil, err
	}
	c := &ClusterSim{
		cfg:       cfg,
		system:    b.Name,
		policy:    policy,
		instances: make([]*ProviderInstance, 0, len(cfg.Instances)),
		walks:     make([]*spot.PriceWalk, len(cfg.Instances)),
		walkHour:  make([]int64, len(cfg.Instances)),
	}
	for i, ic := range cfg.Instances {
		name := ic.Name
		if name == "" {
			name = fmt.Sprintf("instance-%d", i)
		}
		capacity := ic.Capacity
		if capacity == 0 {
			capacity = systems.UnboundedCapacity
		}
		price := ic.PricePerNodeHour
		if price == 0 {
			price = defaultPricePerNodeHour()
		}
		seed := cfg.Options.Seed + int64(i)*instanceSeedStride
		opts := cfg.Options
		opts.Seed = seed
		opts.PoolCapacity = capacity
		backend, err := b.Open(capacity, opts, 0)
		if err != nil {
			return nil, fmt.Errorf("clustersim: open instance %q: %w", name, err)
		}
		c.instances = append(c.instances, &ProviderInstance{
			id:      InstanceID(i),
			name:    name,
			seed:    seed,
			price:   price,
			backend: backend,
		})
		c.walks[i] = spot.NewPriceWalk(seed)
	}
	return c, nil
}

// Instances exposes the federation's provider instances in ID order.
func (c *ClusterSim) Instances() []*ProviderInstance { return c.instances }

// stepCheckEvery matches the kernels' context-poll cadence.
const stepCheckEvery = 4096

// Run simulates the federation over the workloads: requests (one per
// workload, at its first submission) are routed by the policy and the
// instances' events interleave in global (time, InstanceID) order until
// every queue drains past the horizon.
//
// owners optionally pins each workload (by index) to a home instance —
// the pin-to-owner policy routes there, and any policy may consult
// Request.Owner. nil derives owner i mod N, the natural assignment when
// the workload list groups one provider per instance.
func (c *ClusterSim) Run(ctx context.Context, workloads []systems.Workload, owners []InstanceID) (*ClusterResult, error) {
	if ctx == nil {
		ctx = context.Background() //dclint:allow ctxfirst -- nil-ctx guard: documented to treat nil as no cancellation
	}
	if err := systems.ValidateWorkloads(workloads); err != nil {
		return nil, err
	}
	if owners != nil && len(owners) != len(workloads) {
		return nil, fmt.Errorf("clustersim: %d owners for %d workloads", len(owners), len(workloads))
	}
	n := len(c.instances)
	requests := make([]Request, len(workloads))
	for i := range workloads {
		owner := InstanceID(i % n)
		if owners != nil {
			owner = owners[i]
		}
		if owner < 0 || int(owner) >= n {
			return nil, fmt.Errorf("clustersim: workload %s: owner %d out of range [0,%d)", workloads[i].Name, owner, n)
		}
		requests[i] = Request{
			Index:    i,
			Time:     workloads[i].FirstSubmit(),
			Workload: &workloads[i],
			Owner:    owner,
		}
	}
	sort.SliceStable(requests, func(i, j int) bool {
		if requests[i].Time != requests[j].Time {
			return requests[i].Time < requests[j].Time
		}
		return requests[i].Index < requests[j].Index
	})
	horizon := c.cfg.Options.HorizonFor(workloads)
	window := c.cfg.Window
	if window <= 0 {
		window = DefaultWindow
	}

	var (
		dispatches  = make([]Dispatch, 0, len(requests))
		homes       = make([]InstanceID, len(workloads))
		states      = make([]InstanceState, n)
		windowStart sim.Time
		windows     int
		steps       int
		done        = ctx.Done()
		ri          int
	)
	flushWindows := func(t sim.Time) {
		for t >= windowStart+window {
			end := windowStart + window
			c.emitWindow(windows, windowStart, end)
			windows++
			windowStart = end
		}
	}
	for {
		// Earliest next event across instances; strict < keeps the
		// lowest InstanceID on ties.
		best := -1
		var bt sim.Time
		for i, inst := range c.instances {
			if t, ok := inst.backend.Engine().PeekNextTime(); ok && (best < 0 || t < bt) {
				best, bt = i, t
			}
		}
		// Requests dispatch before instance events at the same instant,
		// so the target instance's clock has never passed the arrival.
		if ri < len(requests) && (best < 0 || requests[ri].Time <= bt) {
			req := requests[ri]
			ri++
			flushWindows(req.Time)
			target := c.route(req, states)
			inst := c.instances[target]
			inst.dispatched++
			if err := inst.backend.Attach(req.Workload); err != nil {
				return nil, fmt.Errorf("clustersim: dispatch %s to %s: %w", req.Workload.Name, inst.name, err)
			}
			inst.attached++
			homes[req.Index] = target
			dispatches = append(dispatches, Dispatch{Time: req.Time, Workload: req.Workload.Name, Instance: target})
			continue
		}
		if best < 0 || bt > horizon {
			break
		}
		if steps++; steps%stepCheckEvery == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("clustersim: %s federation aborted: %w", c.system, ctx.Err())
			default:
			}
		}
		flushWindows(bt)
		c.instances[best].backend.Engine().Step()
	}
	flushWindows(horizon)
	if windowStart < horizon {
		c.emitWindow(windows, windowStart, horizon)
		windows++
	}

	result := &ClusterResult{
		System:     c.system,
		Policy:     c.cfg.Policy,
		Horizon:    horizon,
		Dispatches: dispatches,
		Windows:    windows,
		Steps:      int64(steps),
	}
	for _, inst := range c.instances {
		// Settle the instance clock at the horizon (no events at or
		// before it remain) exactly as a blocking run would.
		inst.backend.Engine().Run(horizon)
		res, err := inst.backend.Finalize(horizon)
		if err != nil {
			return nil, fmt.Errorf("clustersim: finalize instance %s: %w", inst.name, err)
		}
		res.System = c.system
		result.Instances = append(result.Instances, InstanceResult{
			ID:         inst.id,
			Name:       inst.name,
			Dispatched: inst.dispatched,
			Result:     res,
		})
	}
	result.Merged = c.merge(workloads, homes, horizon, result.Instances)
	return result, nil
}

// route snapshots instance state and asks the policy for a target,
// clamping an out-of-range answer to the request's owner.
func (c *ClusterSim) route(req Request, states []InstanceState) InstanceID {
	hour := req.Time / sim.Hour
	for i, inst := range c.instances {
		for c.walkHour[i] < hour {
			c.walks[i].Tick()
			c.walkHour[i]++
		}
		inUse, capacity := inst.backend.PoolLoad()
		states[i] = InstanceState{
			ID:               inst.id,
			Name:             inst.name,
			Now:              inst.backend.Engine().Now(),
			NodesInUse:       inUse,
			Capacity:         capacity,
			PricePerNodeHour: inst.price,
			SpotPrice:        c.walks[i].Price(),
			Attached:         inst.attached,
			Dispatched:       inst.dispatched,
			PendingEvents:    inst.backend.Engine().Len(),
		}
	}
	target := c.policy.Route(req, states)
	if target < 0 || int(target) >= len(c.instances) {
		target = req.Owner
	}
	return target
}

// emitWindow publishes one ClusterWindow aggregate.
func (c *ClusterSim) emitWindow(index int, start, end sim.Time) {
	if c.cfg.Events == nil {
		return
	}
	ev := events.ClusterWindow{
		System:     c.system,
		Policy:     c.cfg.Policy,
		Index:      index,
		Start:      start,
		End:        end,
		Dispatched: make([]int, len(c.instances)),
		NodesInUse: make([]int, len(c.instances)),
	}
	for i, inst := range c.instances {
		ev.Dispatched[i] = inst.dispatched
		inUse, _ := inst.backend.PoolLoad()
		ev.NodesInUse[i] = inUse
	}
	c.cfg.Events.Emit(ev)
}

// merge folds the per-instance results into one federation-wide Result:
// provider rows in original workload order, totals summed.
func (c *ClusterSim) merge(workloads []systems.Workload, homes []InstanceID, horizon sim.Time, instances []InstanceResult) systems.Result {
	merged := systems.Result{System: c.system, Horizon: horizon}
	for i := range workloads {
		res := instances[homes[i]].Result
		if pr, ok := res.Provider(workloads[i].Name); ok {
			merged.Providers = append(merged.Providers, pr)
		}
	}
	var overhead float64
	for _, ir := range instances {
		merged.TotalNodeHours += ir.Result.TotalNodeHours
		merged.PeakNodes += ir.Result.PeakNodes
		merged.TotalNodesAdjusted += ir.Result.TotalNodesAdjusted
		merged.RejectedRequests += ir.Result.RejectedRequests
		overhead += ir.Result.OverheadSeconds
	}
	merged.OverheadSeconds = overhead
	if horizon > 0 {
		merged.OverheadPerHour = overhead / (float64(horizon) / 3600)
	}
	return merged
}
