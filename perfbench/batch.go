package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/systems"
)

// minStudies is the fewest timed studies a batch window holds, so its
// median stands on more than one sample however long a study takes.
const minStudies = 3

// unboundedPool is the "large cloud platform" pool size the serial DRP
// and DawningCloud runners open when a spec leaves the pool unconstrained.
const unboundedPool = 1 << 20

// batchSpec is the spec a batch workload studies: the named builtin with
// the given seed, shrunk to a two-day window under the self-test's
// minimal sizes.
func batchSpec(builtin string, seed int64, small bool) ([]byte, error) {
	spec, err := scenario.Builtin(builtin)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	if small {
		spec.Days = 2
		for i := range spec.Providers {
			if p := &spec.Providers[i]; p.Source.Kind == "workflow" {
				// Where the paper suite submits its Montage workflow:
				// mid-window, at 11:00.
				p.Source.SubmitAt = int64(spec.Days/2)*sim.Day + 11*sim.Hour
			}
		}
	}
	return json.Marshal(spec)
}

// study runs one scenario study the way dcscen does: the spec bytes
// through parse and compile, every cell serially, then the report
// rendered as text and as JSON.
func study(ctx context.Context, src []byte) (*scenario.Report, error) {
	spec, err := scenario.ParseBytes(src)
	if err != nil {
		return nil, err
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	rep, err := c.RunContext(ctx, 1, nil)
	if err != nil {
		return nil, err
	}
	_ = rep.Render() // dcscen prints it; the benchmark only pays for it
	if _, err := json.Marshal(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// batchLayers collects the traced pass's counters that are not span
// durations.
type batchLayers struct {
	events         map[string]int64
	nsPerEvent     map[string][]float64
	allocsPerEvent map[string][]float64
	compileAllocMB []float64
	reportBytes    []float64
}

func newBatchLayers() *batchLayers {
	return &batchLayers{
		events:         make(map[string]int64),
		nsPerEvent:     make(map[string][]float64),
		allocsPerEvent: make(map[string][]float64),
	}
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// tracedStudy replays study with a span around every call into a layer.
// Each cell follows its serial runner (systems.RunDCS/RunSSP/RunDRP,
// core.Run) through the public calls, so clone, attach, the event loop
// and finalize are timed apart. The report is ref (the untraced study of
// the same spec) with the replayed Results, rendered as text and JSON;
// the caller checks the Results equal ref's.
func tracedStudy(tr *tracer, op string, src []byte, ref *scenario.Report, lay *batchLayers) (map[string]systems.Result, error) {
	root := tr.begin(op, "study", 0)
	defer tr.end(root)

	s := tr.begin(op, "scenario.parse", root)
	spec, err := scenario.ParseBytes(src)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	before := memStats()
	s = tr.begin(op, "scenario.compile", root)
	c, err := scenario.Compile(spec)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	lay.compileAllocMB = append(lay.compileAllocMB, float64(memStats().TotalAlloc-before.TotalAlloc)/(1<<20))

	results := make(map[string]systems.Result, len(spec.Systems))
	for _, system := range spec.Systems {
		s = tr.begin(op, "scenario.clone", root)
		wls := systems.CloneWorkloads(c.Workloads)
		err := systems.ValidateWorkloads(wls)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		horizon := c.Options.HorizonFor(wls)

		s = tr.begin(op, "systems.attach."+system, root)
		inst, err := openCell(system, wls, c.Options)
		for i := 0; err == nil && i < len(wls); i++ {
			err = inst.Attach(&wls[i])
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}

		before := memStats()
		s = tr.begin(op, "sim.simulate."+system, root)
		start := time.Now()
		events := stepTo(inst.Engine(), horizon)
		elapsed := time.Since(start)
		tr.end(s)
		after := memStats()
		if _, ok := lay.events[system]; !ok {
			lay.events[system] = events // the first traced study is the run's own seed
		}
		if events > 0 {
			lay.nsPerEvent[system] = append(lay.nsPerEvent[system], float64(elapsed.Nanoseconds())/float64(events))
			lay.allocsPerEvent[system] = append(lay.allocsPerEvent[system], float64(after.Mallocs-before.Mallocs)/float64(events))
		}

		s = tr.begin(op, "systems.finalize."+system, root)
		res, err := inst.Finalize(horizon)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		results[system] = res
	}

	rep := *ref
	rep.Base = results
	s = tr.begin(op, "scenario.render", root)
	text := rep.Render()
	tr.end(s)
	s = tr.begin(op, "scenario.json", root)
	js, err := json.Marshal(&rep)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	lay.reportBytes = append(lay.reportBytes, float64(len(text)+len(js)))
	return results, nil
}

// openCell opens the instance a serial runner opens for system over wls,
// with the same capacity: DCS and SSP pool their fixed runtime
// environments, DRP and DawningCloud lease from an unbounded pool.
func openCell(system string, wls []systems.Workload, opts systems.Options) (systems.PartitionInstance, error) {
	capacity := opts.PoolCapacity
	switch system {
	case "DCS", "SSP":
		if capacity == 0 {
			for i := range wls {
				capacity += wls[i].FixedNodes
			}
		}
		inst, err := systems.OpenFixed(system, system == "DCS", capacity, opts)
		if err != nil {
			return nil, err
		}
		return inst, nil
	case "DRP":
		if capacity == 0 {
			capacity = unboundedPool
		}
		inst, err := systems.OpenDRP(capacity, opts)
		if err != nil {
			return nil, err
		}
		return inst, nil
	case "DawningCloud":
		if capacity == 0 {
			capacity = unboundedPool
		}
		inst, err := core.Open(capacity, core.Config{Options: opts})
		if err != nil {
			return nil, err
		}
		return inst, nil
	}
	return nil, fmt.Errorf("no traced replay for system %q", system)
}

// stepTo executes every event up to horizon through the engine's step
// primitives, exactly as Engine.Run(horizon) would, and counts them.
func stepTo(e *sim.Engine, horizon sim.Time) int64 {
	var n int64
	for {
		t, ok := e.PeekNextTime()
		if !ok || t > horizon {
			break
		}
		e.Step()
		n++
	}
	if now := e.Now(); now < horizon {
		e.Advance(horizon - now)
	}
	return n
}

// conserve checks the accounting invariants every result must hold: no
// provider completes more than it submitted, the totals are the sums
// over providers, and the unconstrained pool both batch specs use
// rejects nothing.
func conserve(base map[string]systems.Result) error {
	for _, system := range sortedKeys(base) {
		r := base[system]
		var hours float64
		adjusted := 0
		for _, p := range r.Providers {
			if p.Completed > p.Submitted {
				return fmt.Errorf("%s/%s completed %d > submitted %d", system, p.Name, p.Completed, p.Submitted)
			}
			hours += p.NodeHours
			adjusted += p.NodesAdjusted
		}
		if hours != r.TotalNodeHours || adjusted != r.TotalNodesAdjusted {
			return fmt.Errorf("%s totals %v node*hours / %d adjustments, providers sum to %v / %d",
				system, r.TotalNodeHours, r.TotalNodesAdjusted, hours, adjusted)
		}
		if r.RejectedRequests != 0 {
			return fmt.Errorf("%s rejected %d requests on an unconstrained pool", system, r.RejectedRequests)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// simulated counts the task records a report's cells simulated: every
// provider's submissions in every system.
func simulated(rep *scenario.Report) int {
	n := 0
	for _, r := range rep.Base {
		for _, p := range r.Providers {
			n += p.Submitted
		}
	}
	return n
}

// corruptBase damages one result, as a wrong answer would.
func corruptBase(base map[string]systems.Result) {
	for _, system := range sortedKeys(base) {
		r := base[system]
		r.TotalNodeHours++
		base[system] = r
		return
	}
}

// batchCheck verifies one study's Results; it is given the reference
// Results every study of the run must reproduce.
type batchCheck func(base map[string]systems.Result) error

// paperSeeds is how many workload seeds one paper run cycles through: a
// study takes under 0.1 s and its cost moves about 10% from seed to
// seed, so each run averages over several seeds' workloads. A million
// study takes seconds and its cost barely depends on the seed.
const paperSeeds = 8

func runPaper(cfg config) (*outcome, error) {
	return runBatch(cfg, "paper-baseline", paperSeeds, func(spec *scenario.Spec) (batchCheck, error) {
		// The independent hand-coded pipeline: the experiment suite's
		// Tables 2-4 runs over the same seed and window.
		suite := experiments.NewSuite(spec.Seed)
		suite.Days = spec.Days
		suite.Workers = 1
		want, err := suite.RunAll()
		if err != nil {
			return nil, fmt.Errorf("experiment suite: %w", err)
		}
		return func(base map[string]systems.Result) error {
			if err := conserve(base); err != nil {
				return err
			}
			if !reflect.DeepEqual(base, want) {
				return fmt.Errorf("report Base differs from experiments.NewSuite(%d).RunAll()", spec.Seed)
			}
			return nil
		}, nil
	})
}

func runMillion(cfg config) (*outcome, error) {
	return runBatch(cfg, "million-task", 1, func(*scenario.Spec) (batchCheck, error) {
		return func(base map[string]systems.Result) error { return conserve(base) }, nil
	})
}

// batchSeed is the spec seed of sub-seed k of a run: the spec's
// providers draw seed, seed+1 and seed+2, so sub-seeds stay 10 apart.
func batchSeed(seed int64, k int) int64 { return seed + 10*int64(k) }

// runBatch measures a batch workload: a warm-up study per sub-seed, the
// first of which is the cold study set-up is timed to, then studies back
// to back for the window, cycling through the sub-seeds. The traced mode
// splits the window between untraced studies and traced replays, and
// checks the replayed Results equal the untraced ones. Every study counts
// as one operation; it fails when it errors, when its Results break the
// sub-seed's check, or when they differ from the sub-seed's first study.
func runBatch(cfg config, builtin string, subSeeds int, reference func(*scenario.Spec) (batchCheck, error)) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	var setup time.Duration

	srcs := make([][]byte, subSeeds)
	firsts := make([]*scenario.Report, subSeeds)
	checks := make([]batchCheck, subSeeds)
	for k := range srcs {
		src, err := batchSpec(builtin, batchSeed(cfg.seed, k), cfg.small)
		if err != nil {
			return nil, err
		}
		first, err := study(ctx, src)
		if err != nil {
			return nil, fmt.Errorf("warm-up study: %w", err)
		}
		if k == 0 {
			setup = time.Since(processStart)
		}
		if checks[k], err = reference(first.Spec); err != nil {
			return nil, err
		}
		srcs[k], firsts[k] = src, first
	}
	verify := func(op string, k int, base map[string]systems.Result) bool {
		out.attempted++
		if cfg.corrupt {
			corruptBase(base)
		}
		if err := checks[k](base); err != nil {
			out.fail(1, "%s: %v", op, err)
			return false
		}
		if !reflect.DeepEqual(base, firsts[k].Base) {
			out.fail(1, "%s: Results differ from the first study of its seed", op)
			return false
		}
		return true
	}
	for k, first := range firsts {
		verify(fmt.Sprintf("warm-up study %d", k), k, cloneBase(first.Base))
	}

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	} else if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var durs []time.Duration
	failed, tasks := 0, 0
	start := time.Now()
	for i := 0; i < minStudies || time.Since(start).Seconds() < window; i++ {
		k := i % subSeeds
		// Each study starts from a collected heap, so it pays for its own
		// garbage and not for whatever the previous one left behind.
		runtime.GC()
		t0 := time.Now()
		res, err := study(ctx, srcs[k])
		d := time.Since(t0)
		if err != nil {
			out.attempted++
			out.fail(1, "study %d: %v", i, err)
			failed++
			continue
		}
		if !verify(fmt.Sprintf("study %d", i), k, res.Base) {
			failed++
			continue
		}
		durs = append(durs, d)
		tasks += simulated(res)
	}
	if !cfg.trace {
		var err error
		if out.metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
		opMetrics(out, durs, failed, tasks)
		out.metrics["setup_s"] = setup.Seconds()
		out.notef("setup_s: the process from its start to the end of its cold first study")
		return out, nil
	}

	out.trace = newTracer()
	lay := newBatchLayers()
	var traced []time.Duration
	start = time.Now()
	for i := 0; i < minStudies || time.Since(start).Seconds() < window; i++ {
		k := i % subSeeds
		op := fmt.Sprintf("study-%d", i)
		runtime.GC()
		t0 := time.Now()
		results, err := tracedStudy(out.trace, op, srcs[k], firsts[k], lay)
		d := time.Since(t0)
		if err != nil {
			out.attempted++
			out.fail(1, "traced %s: %v", op, err)
			continue
		}
		if !reflect.DeepEqual(results, firsts[k].Base) {
			out.attempted++
			out.fail(1, "traced %s: Results differ from the untraced study's", op)
			continue
		}
		if verify("traced "+op, k, results) {
			traced = append(traced, d)
		}
	}
	batchLayerMetrics(out, lay, durs, traced)
	return out, nil
}

func cloneBase(base map[string]systems.Result) map[string]systems.Result {
	out := make(map[string]systems.Result, len(base))
	for k, r := range base {
		r.Providers = append([]systems.ProviderResult(nil), r.Providers...)
		out[k] = r
	}
	return out
}

// opMetrics fills the end-to-end metrics of sequential operations: one
// after another, so the successful ones' durations add up to the
// measured time. Failed operations count in the latency percentiles as
// slower than any limit.
func opMetrics(out *outcome, durs []time.Duration, failed, tasks int) {
	lat := withFailures(millis(durs), failed)
	busy := total(durs).Seconds()
	out.metrics["study_s"] = median(seconds(durs))
	out.metrics["latency_p50_ms"] = median(lat)
	out.metrics["latency_p99_ms"] = rank(lat, 0.99)
	if busy > 0 {
		out.metrics["runs_per_s"] = float64(len(durs)) / busy
		out.metrics["tasks_per_s"] = float64(tasks) / busy
	}
	out.notef("operations timed: n=%d over %.3f s; %s", len(durs), busy, tailNote(lat))
}

// tailNote reports the highest percentile with at least ten samples
// beyond it, under its own name.
func tailNote(lat []float64) string {
	p := tailPercentile(len(lat))
	if p == 0 {
		return fmt.Sprintf("n=%d is too few for a tail beyond the median; latency_p99_ms is the nearest-rank p99 (the slowest operation when n <= 100)", len(lat))
	}
	return fmt.Sprintf("latency_p%d_ms = %.3f (highest percentile with >= 10 samples beyond it)", p, rank(lat, float64(p)/100))
}

// batchLayerMetrics derives the per-layer metrics of the traced pass.
func batchLayerMetrics(out *outcome, lay *batchLayers, untraced, traced []time.Duration) {
	spans := out.trace.snapshot()
	m := out.metrics
	m["scenario.parse_ms"] = median(durationsMS(spans, "scenario.parse"))
	m["scenario.compile_ms"] = median(durationsMS(spans, "scenario.compile"))
	m["scenario.compile_alloc_mb"] = median(lay.compileAllocMB)
	m["scenario.clone_ms"] = median(durationsMS(spans, "scenario.clone"))
	m["scenario.render_ms"] = median(durationsMS(spans, "scenario.render"))
	m["scenario.json_ms"] = median(durationsMS(spans, "scenario.json"))
	m["scenario.report_bytes"] = median(lay.reportBytes)
	for _, system := range paperSystems {
		m["systems.attach_ms."+system] = median(durationsMS(spans, "systems.attach."+system))
		m["sim.simulate_ms."+system] = median(durationsMS(spans, "sim.simulate."+system))
		m["sim.events."+system] = float64(lay.events[system])
		m["sim.ns_per_event."+system] = median(lay.nsPerEvent[system])
		m["sim.allocs_per_event."+system] = median(lay.allocsPerEvent[system])
		m["systems.finalize_ms."+system] = median(durationsMS(spans, "systems.finalize."+system))
	}
	m["trace.uncovered_ms"] = median(uncoveredMS(spans, "study"))
	overhead(out, untraced, traced)
}

// overhead reports the traced minus the untraced median operation time,
// as a share of the untraced one.
func overhead(out *outcome, untraced, traced []time.Duration) {
	u, t := median(millis(untraced)), median(millis(traced))
	if u > 0 {
		out.metrics["trace.overhead_ratio"] = t/u - 1
	}
	out.notef("tracing overhead: median operation %.3f ms traced (n=%d) vs %.3f ms untraced (n=%d)", t, len(traced), u, len(untraced))
}
