// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4). A Suite fixes the workload construction — the
// synthetic NASA iPSC and SDSC BLUE traces, the 1,000-task Montage
// workflow, and the paper's chosen policy parameters — and produces each
// artifact as structured data plus a rendered text form. The paper's
// reported values are embedded so EXPERIMENTS.md and the bench harness can
// print paper-vs-measured side by side.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/events"
	"repro/internal/job"
	"repro/internal/par"
	"repro/internal/plot"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/systems"
	"repro/internal/workflow"
)

// Provider names used throughout the suite.
const (
	NASAProvider    = "org-nasa-htc"
	BLUEProvider    = "org-blue-htc"
	MontageProvider = "org-montage-mtc"
)

// Paper-chosen policy parameters (Section 4.5.1).
const (
	NASAInitial    = 40
	NASARatio      = 1.2
	BLUEInitial    = 80
	BLUERatio      = 1.5
	MontageInitial = 10
	MontageRatio   = 8
)

// Fixed runtime environment sizes for DCS/SSP (Section 4.4).
const (
	NASAFixed    = 128
	BLUEFixed    = 144
	MontageFixed = 166
)

// Suite fixes workloads and options for one reproduction run.
//
// A Suite is safe for concurrent use: RunAll, Sweep and Artifacts fan
// their independent simulations out over a bounded worker pool, and the
// cache/singleflight semantics live in a service.Group — the lock is
// held only for the map check/fill (never across a simulation), and
// identical in-flight runs are deduplicated so concurrent callers share
// one simulation instead of racing to repeat it.
type Suite struct {
	// Seed drives all synthetic generation.
	Seed int64
	// Days shortens the trace window (default 14, the paper's two
	// weeks). Tests use smaller windows.
	Days int
	// Workers bounds how many simulations run concurrently across
	// RunAll, Sweep and Artifacts. Zero means runtime.NumCPU(); one
	// forces the serial reference behaviour. Set it before the first
	// run.
	Workers int
	// Partitions splits each simulation's providers onto per-core
	// kernel partitions (see systems.Options.Partitions): 0 or 1 runs
	// serially, negative means one partition per CPU. Results are
	// byte-identical at any setting.
	Partitions int
	// Events receives the suite's progress stream (run started/completed
	// and table rendered). The sink is called from worker goroutines and
	// must be safe for concurrent use; nil discards events. Set it
	// before the first run.
	Events events.Sink

	workloadsOnce sync.Once
	workloads     []systems.Workload
	workloadsErr  error

	mu  sync.Mutex
	sem chan struct{} // bounds concurrent simulations suite-wide

	// flight caches each system's result and deduplicates identical
	// in-flight runs (the generalized singleflight shared with the
	// scenario engine and the run service).
	flight service.Group

	simulations atomic.Int64
}

// NewSuite builds a suite with the paper's two-week window.
func NewSuite(seed int64) *Suite {
	return &Suite{Seed: seed, Days: 14}
}

// NewQuickSuite builds a reduced suite for fast tests: a shorter trace
// window with the same calibration targets.
func NewQuickSuite(seed int64) *Suite {
	return &Suite{Seed: seed, Days: 4}
}

// workers resolves the effective pool size.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.NumCPU()
}

// simulate runs one simulation under a suite-wide semaphore slot and
// counts it. The semaphore spans every fan-out (Artifacts over steps,
// each step over systems or grid points), so nested parallelism never
// exceeds Workers concurrent simulations in total.
func (s *Suite) simulate(fn func() error) error {
	s.mu.Lock()
	if s.sem == nil {
		s.sem = make(chan struct{}, s.workers())
	}
	sem := s.sem
	s.mu.Unlock()
	sem <- struct{}{}
	defer func() { <-sem }()
	s.simulations.Add(1)
	return fn()
}

// Simulations reports how many full system simulations the suite has
// executed (cache hits and deduplicated concurrent calls excluded).
func (s *Suite) Simulations() int64 { return s.simulations.Load() }

// Horizon is the accounting window.
func (s *Suite) Horizon() sim.Time { return sim.Time(s.Days) * sim.Day }

// Options returns the shared run options.
func (s *Suite) Options() systems.Options {
	return systems.Options{Horizon: s.Horizon(), Provision: policy.GrantOrReject, Partitions: s.Partitions}
}

// Workloads builds (once) the three service providers' workloads: two HTC
// organizations replaying the NASA-like and BLUE-like traces, and one MTC
// organization running the Montage workflow mid-trace. The returned slice
// is the shared cached copy; runs clone it before mutating anything.
func (s *Suite) Workloads() ([]systems.Workload, error) {
	s.workloadsOnce.Do(func() {
		s.workloads, s.workloadsErr = s.buildWorkloads()
	})
	return s.workloads, s.workloadsErr
}

func (s *Suite) buildWorkloads() ([]systems.Workload, error) {
	nasaModel := synth.NASAiPSC(s.Seed)
	nasaModel.Days = s.Days
	nasa, err := nasaModel.Generate()
	if err != nil {
		return nil, fmt.Errorf("experiments: NASA trace: %w", err)
	}
	blue, err := synth.SDSCBlueWindowed(s.Seed+1, s.Days).Generate()
	if err != nil {
		return nil, fmt.Errorf("experiments: BLUE trace: %w", err)
	}
	dag, err := workflow.PaperMontage(s.Seed + 2)
	if err != nil {
		return nil, fmt.Errorf("experiments: Montage: %w", err)
	}
	// Submit the workflow mid-trace during a busy morning hour so the
	// consolidated peak reflects coexisting workloads.
	montageAt := sim.Time(s.Days/2)*sim.Day + 11*sim.Hour
	return []systems.Workload{
		{
			Name:       NASAProvider,
			Class:      job.HTC,
			Jobs:       nasa,
			FixedNodes: NASAFixed,
			Params:     policy.HTCDefaults(NASAInitial, NASARatio),
		},
		{
			Name:       BLUEProvider,
			Class:      job.HTC,
			Jobs:       blue,
			FixedNodes: BLUEFixed,
			Params:     policy.HTCDefaults(BLUEInitial, BLUERatio),
		},
		{
			Name:       MontageProvider,
			Class:      job.MTC,
			Jobs:       dag.Jobs(montageAt),
			FixedNodes: MontageFixed,
			Params:     policy.MTCDefaults(MontageInitial, MontageRatio),
		},
	}, nil
}

// SystemNames lists the four systems the paper compares, in presentation
// order (registry.PaperSystems).
var SystemNames = registry.PaperSystems()

// Run simulates one system over the consolidated three-provider workload,
// caching the result. See RunContext; Run uses the background context.
func (s *Suite) Run(system string) (systems.Result, error) {
	return s.RunContext(context.Background(), system) //dclint:allow ctxfirst -- documented non-ctx convenience wrapper over RunContext
}

// RunContext simulates one registered system over the consolidated
// workload, caching the result. The cache/singleflight semantics come
// from service.Group: the lock guards only the cache check/fill, never
// a simulation; concurrent callers asking for the same system share one
// in-flight run instead of repeating it; and a caller waiting on
// another caller's in-flight run retries with its own context if that
// run is abandoned by cancellation, so one caller's cancelled context
// never poisons another's result.
func (s *Suite) RunContext(ctx context.Context, system string) (systems.Result, error) {
	v, err := s.flight.Do(ctx, system, func() (any, error) {
		return s.runSystem(ctx, system)
	})
	if err != nil {
		return systems.Result{}, err
	}
	return v.(systems.Result), nil
}

// runSystem executes one full simulation on a cloned workload set. The
// baseline runners and core.Run only read their workloads, but cloning
// makes the isolation unconditional: no concurrent run can observe
// another's job slices no matter how a future runner evolves.
func (s *Suite) runSystem(ctx context.Context, system string) (systems.Result, error) {
	runner, canonical, err := registry.Default.Resolve(system)
	if err != nil {
		return systems.Result{}, fmt.Errorf("experiments: %w", err)
	}
	workloads, err := s.Workloads()
	if err != nil {
		return systems.Result{}, err
	}
	opts := s.Options()
	opts.Seed = s.Seed
	var r systems.Result
	err = s.simulate(func() (err error) {
		s.Events.Emit(events.RunStarted{System: canonical, Providers: len(workloads)})
		r, err = runner.Run(ctx, systems.CloneWorkloads(workloads), opts)
		s.Events.Emit(events.RunCompleted{System: canonical, Err: err, TotalNodeHours: r.TotalNodeHours})
		if err != nil {
			return fmt.Errorf("experiments: run %s: %w", canonical, err)
		}
		return nil
	})
	if err != nil {
		return systems.Result{}, err
	}
	return r, nil
}

// RunAll simulates the paper's four systems, fanning out over the worker
// pool. See RunAllContext; RunAll uses the background context.
func (s *Suite) RunAll() (map[string]systems.Result, error) {
	return s.RunAllContext(context.Background()) //dclint:allow ctxfirst -- documented non-ctx convenience wrapper over RunAllContext
}

// RunAllContext simulates the paper's four systems concurrently,
// honoring cancellation end-to-end.
func (s *Suite) RunAllContext(ctx context.Context) (map[string]systems.Result, error) {
	results := make([]systems.Result, len(SystemNames))
	err := par.ForEach(s.workers(), len(SystemNames), func(i int) error {
		r, err := s.RunContext(ctx, SystemNames[i])
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]systems.Result, len(SystemNames))
	for i, name := range SystemNames {
		out[name] = results[i]
	}
	return out, nil
}

// Artifact is a rendered experiment output.
type Artifact struct {
	ID       string // "table2", "fig12", ...
	Title    string
	Text     string             // rendered text form
	SVG      string             // optional standalone SVG ("" when not a chart)
	PaperRef string             // the paper's reported numbers, for comparison
	Values   map[string]float64 // key measured values for assertions
}

// Table1 renders the qualitative usage-model comparison (paper Table 1).
func Table1() Artifact {
	columns := []string{"", "DCS", "SSP", "DRP", "DSP"}
	rows := [][]string{
		{"resource property", "local", "leased", "leased", "leased"},
		{"runtime environment", "stereotyped", "stereotyped", "no offering", "created on demand"},
		{"resource provision for RE", "fixed", "fixed", "manual", "flexible"},
	}
	text := plot.Table("Table 1: comparison of usage models", columns, rows, "")
	return Artifact{
		ID:    "table1",
		Title: "Comparison of different usage models",
		Text:  text,
		PaperRef: "identical by construction: the table is the paper's " +
			"definition of the four usage models",
	}
}
