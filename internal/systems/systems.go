// Package systems defines the comparison harness of the paper's
// evaluation: the shared workload/result types, the Backend descriptor
// every system registers and its blocking driver Run, and the three
// baseline systems — DCS (dedicated cluster), SSP (static service
// provision) and DRP (direct resource provision). The DSP system,
// DawningCloud, lives in internal/core and produces the same Result
// type.
//
// Every system simulates the same workloads over the same accounting
// window and reports the paper's metrics: completed jobs (HTC), tasks
// per second (MTC), per-provider resource consumption in node*hours, and
// the resource provider's total consumption, peak consumption and
// accumulated node adjustments.
//
// Every run builds its simulation state (engine, pool, accountant,
// servers) per call and treats workloads as read-only, so independent
// runs may execute concurrently; use CloneWorkloads when a caller mutates
// workloads between runs.
package systems

import (
	"fmt"
	"runtime"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Workload is one service provider's workload plus its per-system
// configuration.
type Workload struct {
	// Name identifies the service provider.
	Name string
	// Class selects the runtime environment flavour.
	Class job.Class
	// Jobs holds independent HTC jobs, or MTC workflow tasks with
	// dependencies. Submit times are seconds from the run epoch.
	Jobs []job.Job
	// FixedNodes is the runtime environment size in the DCS and SSP
	// systems (the paper sizes HTC REs at the trace's maximum demand and
	// the Montage RE at its steady accumulated demand).
	FixedNodes int
	// Params is the DawningCloud resource-management policy (B and R
	// with the class's scan schedule).
	Params policy.Params
}

// Clone returns a deep copy of the workload. Params is a pure value
// struct, but Jobs (and each job's Deps) share backing arrays under a
// plain struct copy; Clone severs them so one run's workload can be
// retuned or resorted without reaching any concurrent run.
func (w *Workload) Clone() Workload {
	out := *w
	out.Jobs = job.CloneAll(w.Jobs)
	return out
}

// CloneWorkloads deep-copies a workload set for one isolated run.
func CloneWorkloads(workloads []Workload) []Workload {
	if workloads == nil {
		return nil
	}
	out := make([]Workload, len(workloads))
	for i := range workloads {
		out[i] = workloads[i].Clone()
	}
	return out
}

// Validate reports the first problem with the workload, or nil.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("systems: workload with empty name")
	}
	if len(w.Jobs) == 0 {
		return fmt.Errorf("systems: workload %s has no jobs", w.Name)
	}
	if w.FixedNodes < 1 {
		return fmt.Errorf("systems: workload %s: fixed nodes %d < 1", w.Name, w.FixedNodes)
	}
	if err := w.Params.Validate(); err != nil {
		return fmt.Errorf("systems: workload %s: %w", w.Name, err)
	}
	if err := job.ValidateAll(w.Jobs); err != nil {
		return fmt.Errorf("systems: workload %s: %w", w.Name, err)
	}
	if m := job.MaxNodes(w.Jobs); w.Class == job.HTC && m > w.FixedNodes {
		return fmt.Errorf("systems: workload %s: max job %d exceeds fixed RE size %d", w.Name, m, w.FixedNodes)
	}
	return nil
}

// FirstSubmit reports the earliest submission time in the workload.
func (w *Workload) FirstSubmit() sim.Time {
	start, _ := job.Span(w.Jobs)
	return start
}

// Options configure a system run.
type Options struct {
	// Horizon is the accounting window in seconds: the run stops, open
	// leases settle, and completions are counted up to this instant.
	// Zero derives a window from the workloads (last submit plus one
	// day, rounded up to a whole hour).
	Horizon sim.Time
	// PoolCapacity is the cloud's node count. Zero means a pool large
	// enough to never reject (the paper's "large cloud platform").
	PoolCapacity int
	// Provision is the resource provider's provision policy.
	Provision policy.ProvisionPolicy
	// SetupCost is the per-node adjustment cost in seconds; zero uses
	// the paper's measured 15.743 s.
	SetupCost float64
	// Seed drives any stochastic behaviour inside a runner — the four
	// paper systems are deterministic and ignore it, but registered
	// extensions (e.g. the ssp-spot price process) derive their random
	// state from it so a run is reproducible given the same options.
	Seed int64
	// Partitions splits the run's providers onto that many per-core
	// kernel instances advancing in lockstep (internal/sim/partition),
	// merged into one Result byte-identical to the serial run. 0 or 1
	// runs serially; negative uses one partition per CPU. Run falls
	// back to the serial path whenever partitioning cannot preserve
	// bit-identity (a capacity-bound shared pool, a single workload, or
	// a system-specific coupling; see Backend.Partitionable).
	Partitions int
}

// PartitionCount resolves Partitions against the workload count: the
// requested count, one per CPU when negative, clamped to the number of
// workloads (a partition needs at least one provider). Anything that
// resolves below 2 means a serial run.
func (o Options) PartitionCount(workloads int) int {
	p := o.Partitions
	if p < 0 {
		p = runtime.NumCPU()
	}
	if p > workloads {
		p = workloads
	}
	return p
}

// HorizonFor resolves the accounting window for a workload set.
func (o Options) HorizonFor(workloads []Workload) sim.Time {
	if o.Horizon > 0 {
		return o.Horizon
	}
	var last sim.Time
	for i := range workloads {
		_, end := job.Span(workloads[i].Jobs)
		if end > last {
			last = end
		}
	}
	h := last + sim.Day
	if rem := h % sim.Hour; rem != 0 {
		h += sim.Hour - rem
	}
	return h
}

// ProviderResult is one service provider's metrics (paper Tables 2-4).
type ProviderResult struct {
	Name           string
	Class          job.Class
	Submitted      int
	Completed      int     // jobs completed within the horizon
	TasksPerSecond float64 // MTC throughput; 0 for HTC
	NodeHours      float64 // billed consumption (hour-granular leases)
	PeakNodes      int     // provider's own hourly peak
	NodesAdjusted  int
}

// Result is a full system run (paper Figures 12-14 draw on the totals).
type Result struct {
	System             string
	Horizon            sim.Time
	Providers          []ProviderResult
	TotalNodeHours     float64
	PeakNodes          int
	TotalNodesAdjusted int
	OverheadSeconds    float64 // total setup cost implied by adjustments
	OverheadPerHour    float64
	RejectedRequests   int
}

// Provider returns the named provider's result.
func (r Result) Provider(name string) (ProviderResult, bool) {
	for _, p := range r.Providers {
		if p.Name == name {
			return p, true
		}
	}
	return ProviderResult{}, false
}

// ProviderAgg is the accumulator a system runner fills per provider before
// result assembly. Adjusted = -1 derives adjustment counts from the
// accountant; a non-negative value overrides them (DCS owns its machines).
type ProviderAgg struct {
	Name      string
	Class     job.Class
	Owner     string // the provider's accounting owner key
	Submitted int
	Completed int
	TPS       float64
	Adjusted  int
}

// BuildResult assembles a Result from the accountant state. Callers must
// have settled leases with CloseAll at horizon already.
func BuildResult(system string, horizon sim.Time, acct *metrics.Accountant, setupCost float64, rejected int, aggs []ProviderAgg) Result {
	res := Result{System: system, Horizon: horizon, RejectedRequests: rejected}
	for _, a := range aggs {
		pr := ProviderResult{
			Name:           a.Name,
			Class:          a.Class,
			Submitted:      a.Submitted,
			Completed:      a.Completed,
			TasksPerSecond: a.TPS,
			NodeHours:      acct.BilledNodeHours(a.Owner),
			PeakNodes:      acct.OwnerPeakNodes(a.Owner),
			NodesAdjusted:  a.Adjusted,
		}
		if a.Adjusted < 0 {
			pr.NodesAdjusted = acct.NodesAdjusted(a.Owner)
		}
		res.Providers = append(res.Providers, pr)
		res.TotalNodeHours += pr.NodeHours
		res.TotalNodesAdjusted += pr.NodesAdjusted
	}
	res.PeakNodes = acct.PeakNodes()
	res.OverheadSeconds = float64(res.TotalNodesAdjusted) * setupCost
	if horizon > 0 {
		res.OverheadPerHour = res.OverheadSeconds / (float64(horizon) / 3600)
	}
	return res
}

// ProviderWindow is one service provider's mid-run snapshot at a window
// boundary: tasks completed so far and consumption billed through the
// boundary (open leases priced as if they closed there, so successive
// snapshots are monotone and converge on the final ProviderResult).
type ProviderWindow struct {
	Name      string
	Class     job.Class
	Completed int
	NodeHours float64
	Adjusted  int
}

// BuildWindow assembles mid-run provider snapshots from the same
// aggregates Finalize feeds BuildResult, without settling any lease.
// Call it from an event on the instance clock at virtual time t — the
// aggregates' completion counters then mean "completed by t". An agg's
// Adjusted has BuildResult's semantics (-1 derives counts from the
// accountant; DCS pins 0).
func BuildWindow(acct *metrics.Accountant, t sim.Time, aggs []ProviderAgg) []ProviderWindow {
	out := make([]ProviderWindow, 0, len(aggs))
	for _, a := range aggs {
		pw := ProviderWindow{
			Name:      a.Name,
			Class:     a.Class,
			Completed: a.Completed,
			NodeHours: acct.BilledNodeHoursThrough(a.Owner, int64(t)),
			Adjusted:  a.Adjusted,
		}
		if a.Adjusted < 0 {
			pw.Adjusted = acct.NodesAdjusted(a.Owner)
		}
		out = append(out, pw)
	}
	return out
}

func setupCostOr(o Options, def float64) float64 {
	if o.SetupCost > 0 {
		return o.SetupCost
	}
	return def
}

// ValidateWorkloads checks every workload and name uniqueness.
func ValidateWorkloads(workloads []Workload) error {
	if len(workloads) == 0 {
		return fmt.Errorf("systems: no workloads")
	}
	seen := make(map[string]bool)
	for i := range workloads {
		if err := workloads[i].Validate(); err != nil {
			return err
		}
		if seen[workloads[i].Name] {
			return fmt.Errorf("systems: duplicate workload name %q", workloads[i].Name)
		}
		seen[workloads[i].Name] = true
	}
	return nil
}
