// Package dawningcloud (import path "repro") is the public API of the
// DawningCloud reproduction: a simulation study of whether MTC and HTC
// service providers benefit from the economies of scale when consolidating
// onto a cloud platform (Wang et al., MTAGS'09).
//
// The package exposes:
//
//   - the Engine: a string-keyed system registry with context-aware,
//     observable runs. The paper's four systems (DawningCloud, SSP, DCS,
//     DRP) and the spot-priced extension ("ssp-spot") ship registered;
//     new usage models plug in with Engine.Register — no enum or switch
//     to edit — and become runnable by name from Engine.Run,
//     `dcsim -system` and scenario spec files;
//   - the asynchronous run lifecycle: Engine.Submit accepts system
//     runs, scenario specs and suite requests as one union, dedupes
//     identical submissions by content hash, and returns a RunHandle
//     (stable ID, status, typed event stream, Cancel, Result). The
//     blocking methods are thin wrappers over the same lifecycle, and
//     cmd/dcserve exposes it over HTTP;
//   - workload constructors for the paper's three service providers (the
//     synthetic NASA iPSC and SDSC BLUE traces and the 1,000-task Montage
//     workflow), plus custom workload building from SWF files or workflow
//     JSON;
//   - the experiment suite regenerating every table and figure of the
//     paper's evaluation;
//   - the Section 4.5.5 TCO calculator.
//
// Quick start — blocking:
//
//	wls, _ := dawningcloud.PaperWorkloads(42)
//	eng := dawningcloud.DefaultEngine()
//	res, _ := eng.Run(ctx, "DawningCloud", wls,
//	    dawningcloud.WithOptions(dawningcloud.Options{Horizon: dawningcloud.TwoWeeks}))
//	fmt.Println(res.TotalNodeHours)
//
// The same run, asynchronously — Submit returns a handle immediately;
// identical submissions dedup onto one run and share its result:
//
//	h, _ := eng.Submit(ctx, dawningcloud.SubmitRequest{
//	    System: "DawningCloud", Workloads: wls,
//	}, dawningcloud.WithOptions(dawningcloud.Options{Horizon: dawningcloud.TwoWeeks}))
//	stop := h.Subscribe(func(ev dawningcloud.Event) { log.Println(ev) })
//	out, err := h.Result(ctx) // out.Result; h.Cancel() aborts mid-run
//	stop()
//
// Extending the registry with a new system:
//
//	eng.MustRegister("my-model", dawningcloud.RunnerFunc(
//	    func(ctx context.Context, wls []dawningcloud.Workload, opts dawningcloud.Options) (dawningcloud.Result, error) {
//	        ... // build and run a simulation; honor ctx
//	    }))
//	res, _ = eng.Run(ctx, "my-model", wls)
//
// Runs accept a context and honor cancellation end-to-end;
// WithEvents subscribes to the typed progress stream (run started, cell
// completed, table rendered).
package dawningcloud

import (
	"context"
	"runtime"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/systems"
	"repro/internal/workflow"
)

// Re-exported core types. Aliases keep the full field surface usable
// without importing internal packages.
type (
	// Workload is one service provider's job stream plus configuration.
	Workload = systems.Workload
	// Options configure a system run.
	Options = systems.Options
	// Result is a full system run report.
	Result = systems.Result
	// ProviderResult is one provider's metrics within a Result.
	ProviderResult = systems.ProviderResult
	// Job is the unit of work (an HTC batch job or an MTC task).
	Job = job.Job
	// PolicyParams are the DSP resource-management knobs (B, R, scans).
	PolicyParams = policy.Params
	// Suite regenerates the paper's tables and figures.
	Suite = experiments.Suite
	// Artifact is one rendered table or figure.
	Artifact = experiments.Artifact
	// Scenario is a declarative n-provider × m-system simulation spec
	// (JSON, with validation and defaults).
	Scenario = scenario.Spec
	// ScenarioReport is a scenario run's structured output.
	ScenarioReport = scenario.Report
)

// Workload classes.
const (
	HTC = job.HTC
	MTC = job.MTC
)

// RunWithBackfill runs DawningCloud with EASY backfilling in place of the
// paper's First-Fit HTC dispatch (the scheduler ablation). See
// RunWithBackfillContext; RunWithBackfill uses the background context.
func RunWithBackfill(workloads []Workload, opts Options) (Result, error) {
	return RunWithBackfillContext(context.Background(), workloads, opts) //dclint:allow ctxfirst -- documented non-ctx convenience wrapper over RunWithBackfillContext
}

// RunWithBackfillContext is RunWithBackfill with cancellation support.
func RunWithBackfillContext(ctx context.Context, workloads []Workload, opts Options) (Result, error) {
	return core.Run(ctx, workloads, core.Config{Options: opts, EasyBackfill: true})
}

// workers resolves a worker-count option (0 = all CPUs).
func workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// CloneWorkloads deep-copies a workload set (job slices and their Deps
// included) so concurrent runs never alias each other's state.
func CloneWorkloads(workloads []Workload) []Workload {
	return systems.CloneWorkloads(workloads)
}

// HTCPolicy returns the paper's HTC policy schedule with initial nodes B
// and threshold ratio R.
func HTCPolicy(b int, r float64) PolicyParams { return policy.HTCDefaults(b, r) }

// MTCPolicy returns the paper's MTC policy schedule.
func MTCPolicy(b int, r float64) PolicyParams { return policy.MTCDefaults(b, r) }

// NASATrace builds the NASA-iPSC-like HTC workload (128 nodes, 46.6%
// utilization, two weeks) with the paper's chosen DawningCloud parameters.
func NASATrace(seed int64) (Workload, error) {
	jobs, err := synth.NASAiPSC(seed).Generate()
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:       "nasa-htc",
		Class:      job.HTC,
		Jobs:       jobs,
		FixedNodes: 128,
		Params:     policy.HTCDefaults(40, 1.2),
	}, nil
}

// BlueTrace builds the SDSC-BLUE-like HTC workload (144 nodes, busy second
// week) with the paper's chosen parameters.
func BlueTrace(seed int64) (Workload, error) {
	jobs, err := synth.SDSCBlue(seed).Generate()
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:       "blue-htc",
		Class:      job.HTC,
		Jobs:       jobs,
		FixedNodes: 144,
		Params:     policy.HTCDefaults(80, 1.5),
	}, nil
}

// MontageWorkload builds the paper's 1,000-task Montage MTC workload,
// submitted at submitAt seconds into the run.
func MontageWorkload(seed int64, submitAt int64) (Workload, error) {
	dag, err := workflow.PaperMontage(seed)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:       "montage-mtc",
		Class:      job.MTC,
		Jobs:       dag.Jobs(submitAt),
		FixedNodes: 166,
		Params:     policy.MTCDefaults(10, 8),
	}, nil
}

// PaperWorkloads builds the evaluation's three service providers: two HTC
// organizations and one MTC organization, with the Montage workflow
// submitted mid-trace.
func PaperWorkloads(seed int64) ([]Workload, error) {
	nasa, err := NASATrace(seed)
	if err != nil {
		return nil, err
	}
	blue, err := BlueTrace(seed + 1)
	if err != nil {
		return nil, err
	}
	montage, err := MontageWorkload(seed+2, 7*sim.Day+11*sim.Hour)
	if err != nil {
		return nil, err
	}
	return []Workload{nasa, blue, montage}, nil
}

// LoadScenario resolves a scenario reference — a built-in name (see
// ScenarioNames) or a JSON spec file path — applying defaults and
// validating with field-level errors.
func LoadScenario(nameOrPath string) (*Scenario, error) {
	return scenario.Load(nameOrPath)
}

// ParseScenario decodes and validates a JSON scenario spec.
func ParseScenario(data []byte) (*Scenario, error) {
	return scenario.ParseBytes(data)
}

// RunScenario compiles the spec to workloads and executes every
// system × provider-count × sweep cell over at most workers concurrent
// simulations (0 = all CPUs). Output is deterministic at any worker
// count.
func RunScenario(s *Scenario, workers int) (*ScenarioReport, error) {
	return scenario.Run(s, workers)
}

// RunScenarioContext is RunScenario with cancellation support and a
// progress event sink (nil discards events). fn may be called
// concurrently from worker goroutines.
func RunScenarioContext(ctx context.Context, s *Scenario, workers int, fn func(Event)) (*ScenarioReport, error) {
	return scenario.RunContext(ctx, s, workers, events.Sink(fn))
}

// ScenarioNames lists the built-in scenarios: paper-baseline (the
// paper's evaluation, reproducing Tables 2-4 exactly), scale-10,
// scale-100, million-task, blue-heavy, mtc-burst, mixed-federation,
// federation-baseline and consolidation-vs-federation (the two
// shared-clock federation studies; see internal/clustersim).
func ScenarioNames() []string { return scenario.Names() }

// ScenarioJSON returns a built-in scenario's JSON source, a starting
// point for custom spec files.
func ScenarioJSON(name string) (string, error) { return scenario.BuiltinJSON(name) }

// TwoWeeks is the paper's accounting window in seconds.
const TwoWeeks = 14 * sim.Day

// NewSuite builds the experiment suite over the paper's two-week window.
func NewSuite(seed int64) *Suite { return experiments.NewSuite(seed) }

// TCOComparison reproduces Section 4.5.5: the monthly TCO of the paper's
// real DCS deployment versus the matched EC2 fleet, with the SSP/DCS ratio
// (the paper reports 71.5%).
func TCOComparison() (dcsPerMonth, sspPerMonth, ratio float64, err error) {
	cmp, err := cost.Compare(cost.PaperDCS(), cost.PaperEC2())
	if err != nil {
		return 0, 0, 0, err
	}
	return cmp.DCS.Total(), cmp.SSP.Total(), cmp.Ratio, nil
}
