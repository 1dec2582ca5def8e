// Command perfbench is this repository's benchmark. It runs one of four
// seeded workloads (paper, million, serve, ingest) against the simulator
// and its run service, checks every output, and prints each metric by
// name and unit. The last line of its standard output is one JSON object:
//
//	{"correct": true, "attempted": 97, "failed": 0, "metrics": {"study_s": {"value": 0.0912, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 a traced pass times every call the benchmark
// makes into the layers underneath and reports the per-layer metrics,
// the time no layer span covers, and the tracing overhead; the spans are
// written to a JSON file in the work directory at exit.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source first:
//
//	bash perfbench/run.sh --workload paper --seed 42 --seconds 10 --trace 0
//
// README.md describes the workloads, the metrics and how to read a trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setups is how many times the serve workload boots its server; its
// setup_s is their median.
const setups = 5

// processStart is when the benchmark process started, as near as the
// program can tell: main's package-level variables are initialised after
// the runtime and the imported packages, a few milliseconds in. The batch
// workloads time their set-up from here.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is the scratch directory (run stores, the trace file) inside
	// the checkout.
	work string
	// setups is how many times serve boots (the self-test uses 1).
	setups int
	// small shrinks every workload to a minimal size and corrupt damages
	// every report before it is checked; both exist for the self-test.
	small, corrupt bool
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// metrics holds the end-to-end or the per-layer metrics, by name.
	metrics map[string]float64
	// notes are human-readable lines: sample counts, percentiles under
	// their own names, failures.
	notes []string
	trace *tracer
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts n failed operations and notes why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.notef("FAILED: "+format, args...)
}

// workload is one input set the benchmark runs.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

// workloads are the benchmark's inputs. Each comment says why the
// workload exists: what it exercises that the others do not.
var workloads = []workload{
	// paper is the paper's own evaluation, the paper-baseline builtin
	// (NASA + BLUE HTC and the 1,000-task Montage MTC provider over 14
	// days, all four systems), full studies back to back. Every
	// simulation layer runs in the proportions the reproduction is judged
	// by; it is the only workload where accounting finalize (DRP's
	// per-job leases) and multi-system reporting carry weight.
	{name: "paper", run: runPaper},
	// million is the million-task builtin (about 1.06M tasks, one
	// provider, DawningCloud, 1024 nodes) on the same path. The event
	// loop and scheduling run with about 1M pending arrivals in one heap,
	// generation takes about half the study, and about 1 GB is
	// allocated. Finalize and rendering are about 0%, so a finalize-only
	// change must read flat here.
	{name: "million", run: runMillion},
	// serve is in-process dcserve over a durable store with fsync on,
	// booted over a history of earlier requests of the same mix, driven
	// closed-loop by 2 clients. The service layers do most of the work:
	// the API, the service queue and lock, WAL append and fsync, result
	// JSON and events. Fresh requests write three fsynced WAL records
	// while repeats only read the cache, so a gain on one path that costs
	// the other shows.
	{name: "serve", run: runServe},
	// ingest is one live run at a time, the live twin of a one-provider
	// HTC spec of about 2e5 tasks, fed as NDJSON batches while a second
	// connection follows the SSE stream. It is the only path through
	// internal/stream (LiveSource, Feeder) and per-record NDJSON
	// decoding; it uses the event loop the opposite way from million (a
	// small, continuously refilled heap) and the service the opposite way
	// from serve (one long, unpersisted run).
	{name: "ingest", run: runIngest},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 42, "seed every generated spec, request sequence and feed derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics with tracing off; 1 reports per-layer metrics from a traced pass")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench", "work"), "scratch directory for run stores and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(cfg.workload)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	case cfg.seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	cfg.trace = trace == 1
	cfg.setups = setups
	out, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := emit(stdout, cfg, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// measure runs the workload and adds what the whole process measures.
func measure(w workload, cfg config) (*outcome, error) {
	var err error
	if cfg.work, err = filepath.Abs(cfg.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	before, stealErr := cpuTicks()
	out, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	// Time the host gave to other guests slows every timing of the run;
	// the share tells a reader whether a slow run measured the code.
	after, err := cpuTicks()
	if err = errors.Join(stealErr, err); err != nil {
		out.notef("cpu steal: unknown (%v)", err)
	} else if busy := after.total - before.total; busy > 0 {
		out.notef("cpu steal: %.1f%% of this machine's CPU time during the run", 100*float64(after.steal-before.steal)/float64(busy))
	}
	if out.trace != nil {
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := out.trace.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		out.notef("trace: %d spans written to %s", len(out.trace.snapshot()), path)
	}
	return out, nil
}

// metric is one reported value; result is the benchmark's last output
// line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the run header, the environment block, the notes and every
// metric of the selected list as readable lines, then the result line.
func emit(stdout io.Writer, cfg config, out *outcome) error {
	env, err := json.Marshal(environment())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "environment: %s\n", env)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-34s %16.6f %s\n", d.name, v, d.unit)
	}
	errorRate := 0.0
	if out.attempted > 0 {
		errorRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(stdout, "metric %-34s %16.6f ratio (%d of %d operations failed)\n", "error_rate", errorRate, out.failed, out.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// environment is the block every result carries.
func environment() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gogc,
		"note": "cells run serially and sim/partition is not exercised: with 2 CPUs " +
			"a run cannot show partition speedups",
	}
}

// ticks are the machine-wide CPU time counters of /proc/stat.
type ticks struct{ total, steal uint64 }

func cpuTicks() (ticks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return ticks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// that may follow are already counted in user and nice.
	var t ticks
	for _, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return ticks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		t.steal = v // the last of the eight
	}
	return t, nil
}

// resetPeakRSS hands the memory that set-up left free back to the OS and
// restarts the kernel's high-water mark of the resident set, so that
// peak_rss_mb covers the measured operations and not the reference runs
// and warm-ups before them.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is the peak resident set since resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("/proc/self/status: no VmHWM line")
}
