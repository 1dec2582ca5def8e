package partition

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestLockstepBarrier pins the core safety property: when OnWindow runs,
// every engine's clock sits exactly on the boundary — no partition has
// raced ahead into the next window.
func TestLockstepBarrier(t *testing.T) {
	engines := []*sim.Engine{sim.New(), sim.New(), sim.New()}
	for i, e := range engines {
		// Staggered schedules: partition i gets events throughout several
		// windows at partition-specific times.
		for w := 0; w < 4; w++ {
			for k := 0; k < 5; k++ {
				e.At(sim.Time(w*100+i*7+k), func() {})
			}
		}
	}
	var boundaries []sim.Time
	stats, err := Run(context.Background(), engines, Config{
		Horizon: 400,
		Window:  100,
		OnWindow: func(boundary sim.Time, _ WindowStat) {
			boundaries = append(boundaries, boundary)
			for i, e := range engines {
				if e.Now() != boundary {
					t.Errorf("window %d: engine %d clock = %d, want %d", len(boundaries), i, e.Now(), boundary)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("windows = %d, want 4", len(stats))
	}
	var total int64
	for _, s := range stats {
		total += s.Events
	}
	if want := int64(3 * 4 * 5); total != want {
		t.Errorf("total events = %d, want %d", total, want)
	}
	for _, e := range engines {
		if e.Now() != 400 {
			t.Errorf("final clock = %d, want 400", e.Now())
		}
		if e.HasPending() {
			t.Error("engine still has pending events at the horizon")
		}
	}
}

// TestWindowStatsInvariantUnderPartitionCount pins the per-window event
// series: the same schedule split across 1, 2 or 4 engines yields the
// same Events count in every window, because each event belongs to
// exactly one partition and one window.
func TestWindowStatsInvariantUnderPartitionCount(t *testing.T) {
	// 120 events at times 0..119, assigned round-robin to p engines.
	build := func(p int) []*sim.Engine {
		engines := make([]*sim.Engine, p)
		for i := range engines {
			engines[i] = sim.New()
		}
		for ev := 0; ev < 120; ev++ {
			engines[ev%p].At(sim.Time(ev), func() {})
		}
		return engines
	}
	var want []WindowStat
	for _, p := range []int{1, 2, 4} {
		stats, err := Run(context.Background(), build(p), Config{Horizon: 120, Window: 30})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if p == 1 {
			want = stats
			continue
		}
		if len(stats) != len(want) {
			t.Fatalf("p=%d: %d windows, want %d", p, len(stats), len(want))
		}
		for i := range stats {
			if stats[i] != want[i] {
				t.Errorf("p=%d window %d: %+v, want %+v", p, i, stats[i], want[i])
			}
		}
	}
}

// TestBoundaryEventsRunInsideTheirWindow pins Engine.Advance's boundary
// semantics as the driver relies on them: an event scheduled exactly at
// a window boundary executes in that window, and the cross-engine
// barrier still holds.
func TestBoundaryEventsRunInsideTheirWindow(t *testing.T) {
	a, b := sim.New(), sim.New()
	order := make(map[sim.Time]int64)
	a.At(100, func() {}) // exactly at the first boundary
	b.At(200, func() {}) // exactly at the second
	stats, err := Run(context.Background(), []*sim.Engine{a, b}, Config{Horizon: 200, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		order[s.Boundary] = s.Events
	}
	if order[100] != 1 || order[200] != 1 {
		t.Errorf("events per window = %v, want 1 at both 100 and 200", order)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	engines := []*sim.Engine{sim.New(), sim.New()}
	for _, e := range engines {
		// An endless self-rescheduling chain: only the context poll (every
		// pollEvery executed events) can stop this window.
		var tick func()
		eng := e
		tick = func() { eng.Schedule(1, tick) }
		e.Schedule(1, tick)
	}
	_, err := Run(ctx, engines, Config{Horizon: 1 << 40, Window: 1 << 40})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDrainRunsPastHorizon(t *testing.T) {
	e := sim.New()
	fired := 0
	// A chain that outlives the horizon: 10 links, one per 100 ticks,
	// starting at 50 — the last fires at 950, horizon is 300.
	var link func()
	n := 0
	link = func() {
		fired++
		if n++; n < 10 {
			e.Schedule(100, link)
		}
	}
	e.At(50, link)
	stats, err := Run(context.Background(), []*sim.Engine{e}, Config{Horizon: 300, Window: 100, Drain: true})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Errorf("fired = %d, want 10 (drain must run the chain to empty)", fired)
	}
	if e.HasPending() {
		t.Error("queue not drained")
	}
	if last := stats[len(stats)-1].Boundary; last < 950 {
		t.Errorf("last boundary = %d, want >= 950", last)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), nil, Config{Horizon: 10}); err == nil {
		t.Error("no engines: want error")
	}
	e := sim.New()
	e.Advance(20)
	if _, err := Run(context.Background(), []*sim.Engine{e}, Config{Horizon: 10}); err == nil {
		t.Error("engine past horizon: want error")
	}
}

// TestReserveUnderPartitioning is the allocation regression for
// partitioned runs: an engine whose queue was pre-grown with Reserve
// must execute through the partition driver without per-event heap
// growth — the driver's advance loop is as allocation-free as the serial
// kernel's.
func TestReserveUnderPartitioning(t *testing.T) {
	const events = 20000
	engines := []*sim.Engine{sim.New(), sim.New()}
	for pi, e := range engines {
		e.Reserve(events) // explicit, as a bulk feeder would
		eng, base := e, sim.Time(pi)
		eng.ScheduleBatch(events, func(i int) sim.Time { return base + sim.Time(2*i) }, func(int) {})
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(context.Background(), engines, Config{Horizon: 2 * events, Window: 2 * events}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	perEvent := float64(after.Mallocs-before.Mallocs) / float64(2*events)
	// The budget is loose (goroutine spawns, MemStats noise) but far
	// below 1: a per-event allocation would blow straight through it.
	if perEvent > 0.25 {
		t.Errorf("allocs per event = %.3f, want <= 0.25 on pre-reserved engines", perEvent)
	}
}
