// Package kernelbench measures discrete-event kernel throughput: the same
// seeded self-rescheduling workload is driven through the fast indexed
// kernel (internal/sim) and the original container/heap reference kernel
// (internal/sim/refheap), and the result — ns/event, allocs/event,
// events/sec for both, plus the speedup — is reported as a struct and as
// machine-readable JSON (BENCH_kernel.json).
//
// Its callers are this package's benchmarks, which CI runs with
// -benchtime 1x: BenchmarkKernel uploads BENCH_kernel.json and fails the
// build when allocs/event exceeds testdata/bench_budget.json, and
// BenchmarkPartition does the same for the multi-core lockstep driver
// (BENCH_partition.json). No product binary links this package, and so
// none links the reference kernel.
//
// The driver is deliberately allocation-free on its own side — actors
// carry pre-bound callbacks — so allocs/event isolates what the kernel
// itself allocates per scheduled event.
package kernelbench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/refheap"
)

// DefaultEvents is the standard measurement length: one million executed
// events, the ROADMAP's per-run scale.
const DefaultEvents = 1_000_000

// Kernel is one implementation's measurement.
type Kernel struct {
	Name           string  `json:"name"`
	Events         int64   `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// Report compares the two kernels on the identical workload.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Fast is the indexed 4-ary slab kernel (internal/sim).
	Fast Kernel `json:"fast"`
	// Ref is the original container/heap kernel (internal/sim/refheap).
	Ref Kernel `json:"ref"`
	// Speedup is Fast.EventsPerSec / Ref.EventsPerSec.
	Speedup float64 `json:"speedup_events_per_sec"`
	// AllocsSavedPerEvent is Ref minus Fast allocs/event.
	AllocsSavedPerEvent float64 `json:"allocs_per_event_saved"`
}

// Budget is the checked-in regression budget (testdata/bench_budget.json).
type Budget struct {
	// MaxAllocsPerEvent fails the bench when the fast kernel allocates
	// more than this per executed event.
	MaxAllocsPerEvent float64 `json:"max_allocs_per_event"`
	// MinSpeedup fails the bench when the fast kernel's events/sec falls
	// below this multiple of the reference kernel's. Kept conservative:
	// CI machines are noisy, and the allocation budget is the hard gate.
	MinSpeedup float64 `json:"min_speedup_events_per_sec"`
	// MinPartitionSpeedup fails BenchmarkPartition when the P-partition
	// lockstep drive's events/sec falls below this multiple of the
	// single-engine drive's. Enforced only on >= 8-CPU machines (see
	// Budget.CheckPartition).
	MinPartitionSpeedup float64 `json:"min_partition_speedup"`
}

// LoadBudget reads a budget file.
func LoadBudget(path string) (Budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Budget{}, err
	}
	var b Budget
	if err := json.Unmarshal(data, &b); err != nil {
		return Budget{}, fmt.Errorf("kernelbench: parse budget %s: %w", path, err)
	}
	if b.MaxAllocsPerEvent <= 0 {
		return Budget{}, fmt.Errorf("kernelbench: budget %s: max_allocs_per_event must be > 0", path)
	}
	return b, nil
}

// Check reports the first budget violation, or nil.
func (b Budget) Check(r Report) error {
	if r.Fast.AllocsPerEvent > b.MaxAllocsPerEvent {
		return fmt.Errorf("kernelbench: fast kernel allocates %.4f/event, budget %.4f",
			r.Fast.AllocsPerEvent, b.MaxAllocsPerEvent)
	}
	if b.MinSpeedup > 0 && r.Speedup < b.MinSpeedup {
		return fmt.Errorf("kernelbench: speedup %.2fx below budget %.2fx", r.Speedup, b.MinSpeedup)
	}
	return nil
}

// WriteJSON writes the report as indented JSON (BENCH_kernel.json).
func (r Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Text renders the report as an aligned table for terminals.
func (r Report) Text() string {
	line := func(k Kernel) string {
		return fmt.Sprintf("%-22s %10d %12.1f %14.3f %16.0f\n",
			k.Name, k.Events, k.NsPerEvent, k.AllocsPerEvent, k.EventsPerSec)
	}
	return fmt.Sprintf("%-22s %10s %12s %14s %16s\n", "kernel", "events", "ns/event", "allocs/event", "events/sec") +
		line(r.Fast) + line(r.Ref) +
		fmt.Sprintf("speedup: %.2fx events/sec, %.3f allocs/event saved\n", r.Speedup, r.AllocsSavedPerEvent)
}

// engineAPI is the least common denominator the driver needs, over plain
// int64s so both kernels fit.
type engineAPI struct {
	schedule func(d int64, fn func()) int64
	cancel   func(id int64) bool
	every    func(interval int64, fn func()) func()
	runAll   func()
	reserve  func(n int)
}

// actor is one self-rescheduling event chain. Its callback is bound once
// at setup, so the driver adds zero allocations per executed event and
// allocs/event measures the kernel alone.
type actor struct {
	api       *engineAPI
	rng       uint64 // per-actor xorshift state
	remaining *int64
	executed  *int64
	fn        func()
}

func (a *actor) step() {
	*a.executed++
	if *a.remaining <= 0 {
		return // drain: no reschedule, the run ends
	}
	*a.remaining--
	// xorshift64: cheap, deterministic, allocation-free.
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	delay := int64(a.rng%1021) + 1
	id := a.api.schedule(delay, a.fn)
	// Every 64th step, cancel-and-reschedule: the lazy-cancellation and
	// slot-reuse paths stay on the measured profile.
	if a.rng%64 == 0 {
		if a.api.cancel(id) {
			a.api.schedule(delay, a.fn)
		}
	}
}

// drive seeds the actor population and runs the engine dry, returning
// executed events (including ticker ticks).
func drive(api engineAPI, events int64) int64 {
	const actors = 8192
	const tickers = 16
	var executed int64
	remaining := events
	api.reserve(actors)
	slab := make([]actor, actors)
	for i := range slab {
		a := &slab[i]
		a.api = &api
		a.rng = uint64(i)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
		a.remaining = &remaining
		a.executed = &executed
		a.fn = a.step
		api.schedule(int64(i%997)+1, a.fn)
	}
	for k := 0; k < tickers; k++ {
		var stop func()
		stop = api.every(int64(256+k*37), func() {
			executed++
			if remaining <= 0 {
				stop() // let the queue drain once the actors wind down
			}
		})
	}
	api.runAll()
	return executed
}

func fastAPI() engineAPI {
	e := sim.New()
	return engineAPI{
		schedule: func(d int64, fn func()) int64 { return int64(e.Schedule(d, fn)) },
		cancel:   func(id int64) bool { return e.Cancel(sim.EventID(id)) },
		every:    e.Every,
		runAll:   e.RunAll,
		reserve:  e.Reserve,
	}
}

func refAPI() engineAPI {
	e := refheap.New()
	return engineAPI{
		schedule: e.Schedule,
		cancel:   e.Cancel,
		every:    e.Every,
		runAll:   e.RunAll,
		reserve:  func(int) {},
	}
}

// measure runs the driver once under mallocs/wall-clock instrumentation.
func measure(name string, events int64, api engineAPI) Kernel {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fired := drive(api, events)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs - m0.Mallocs)
	k := Kernel{Name: name, Events: fired}
	if fired > 0 {
		k.NsPerEvent = float64(elapsed.Nanoseconds()) / float64(fired)
		k.AllocsPerEvent = allocs / float64(fired)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		k.EventsPerSec = float64(fired) / sec
	}
	return k
}

// Run executes the comparative measurement: the identical seeded workload
// of self-rescheduling actors, periodic tickers and cancel/reschedule
// churn through both kernels. events is the target executed-event count
// per kernel (DefaultEvents when <= 0).
func Run(events int64) Report {
	if events <= 0 {
		events = DefaultEvents
	}
	r := Report{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	// Warm both paths once at small scale so one-time runtime costs
	// (pool fills, lazy init) stay off the measurement.
	drive(fastAPI(), 10_000)
	drive(refAPI(), 10_000)
	r.Fast = measure("sim (indexed 4-ary)", events, fastAPI())
	r.Ref = measure("refheap (container/heap)", events, refAPI())
	if r.Ref.EventsPerSec > 0 {
		r.Speedup = r.Fast.EventsPerSec / r.Ref.EventsPerSec
	}
	r.AllocsSavedPerEvent = r.Ref.AllocsPerEvent - r.Fast.AllocsPerEvent
	return r
}
