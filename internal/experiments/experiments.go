// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4). Each artifact formats the report of one
// scenario run (internal/scenario): Tables 2-4 and Figures 12-14 format
// the paper spec's four-system comparison, Figures 9-11 each format one
// provider's B×R grid sweep, and the economies-of-scale extension formats
// a provider-count scale sweep. A Suite fixes the seed and window those
// specs are built from. The paper's reported values are embedded so the
// bench harness can print paper-vs-measured side by side.
//
// Workloads and RunAll are the independent oracle: they build the three
// providers' workloads by hand and run them through the registered system
// runners without going through scenario, so tests and the benchmark can
// check the scenario pipeline against them. The two ablations also run
// directly on those workloads, because EASY backfilling has no spec field.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/events"
	"repro/internal/job"
	"repro/internal/plot"
	"repro/internal/policy"
	"repro/internal/registry"
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

// Suite fixes the seed and window of one reproduction run. It is safe for
// concurrent use: a call keeps its study reports to itself, and only the
// oracle's workloads are shared, built once.
type Suite struct {
	// Seed drives all synthetic generation.
	Seed int64
	// Days is the trace window, 1 to synth.MaxDays days; NewSuite sets
	// the paper's two weeks. Tests use smaller windows.
	Days int
	// Workers bounds how many simulation cells of a study run at once.
	// Zero means runtime.NumCPU(); one forces the serial reference
	// behaviour. Artifacts are identical at any setting.
	Workers int
	// Events receives the suite's progress stream: each study's
	// scenario events (run started/completed and cell completed, keyed
	// by scenario cell) and one table-rendered event per artifact. The
	// sink is called from worker goroutines and must be safe for
	// concurrent use; nil discards events.
	Events events.Sink

	workloadsOnce sync.Once
	workloads     []systems.Workload
	workloadsErr  error
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

// Horizon is the accounting window.
func (s *Suite) Horizon() sim.Time { return sim.Time(s.Days) * sim.Day }

// Options returns the run options the oracle and the ablations share.
func (s *Suite) Options() systems.Options {
	return systems.Options{Horizon: s.Horizon(), Provision: policy.GrantOrReject}
}

// montageAt submits the workflow mid-trace during a busy morning hour so
// the consolidated peak reflects coexisting workloads.
func (s *Suite) montageAt() sim.Time {
	return sim.Time(s.Days/2)*sim.Day + 11*sim.Hour
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
			Jobs:       dag.Jobs(s.montageAt()),
			FixedNodes: MontageFixed,
			Params:     policy.MTCDefaults(MontageInitial, MontageRatio),
		},
	}, nil
}

// SystemNames lists the four systems the paper compares, in presentation
// order (registry.PaperSystems).
var SystemNames = registry.PaperSystems()

// runSystem executes one full simulation of a registered system on a
// cloned workload set. The runners only read their workloads, but cloning
// makes the oracle's isolation unconditional: no concurrent run can
// observe another's job slices no matter how a future runner evolves.
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
	r, err := runner.Run(ctx, systems.CloneWorkloads(workloads), opts)
	if err != nil {
		return systems.Result{}, fmt.Errorf("experiments: run %s: %w", canonical, err)
	}
	return r, nil
}

// RunAll simulates the paper's four systems over the hand-built
// workloads, one after another. See RunAllContext; RunAll uses the
// background context.
func (s *Suite) RunAll() (map[string]systems.Result, error) {
	return s.RunAllContext(context.Background()) //dclint:allow ctxfirst -- documented non-ctx convenience wrapper over RunAllContext
}

// RunAllContext is RunAll with cancellation support.
func (s *Suite) RunAllContext(ctx context.Context) (map[string]systems.Result, error) {
	out := make(map[string]systems.Result, len(SystemNames))
	for _, name := range SystemNames {
		r, err := s.runSystem(ctx, name)
		if err != nil {
			return nil, err
		}
		out[name] = r
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
