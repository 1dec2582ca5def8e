package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim/refheap"
)

// kernelOps is the least common denominator of the fast kernel and the
// refheap reference kernel, expressed over plain int64s so one seeded
// script drives both implementations identically. batch is ScheduleBatch
// on the fast kernel and n At calls on the reference.
type kernelOps struct {
	name     string
	now      func() int64
	length   func() int
	at       func(t int64, fn func()) int64
	batch    func(n int, at func(i int) int64, fire func(i int))
	schedule func(d int64, fn func()) int64
	cancel   func(id int64) bool
	every    func(interval int64, fn func()) func()
	pending  func() bool
	stop     func()
	run      func(until int64)
	runAll   func()
}

func fastOps(e *Engine) kernelOps {
	return kernelOps{
		name:     "fast",
		now:      e.Now,
		length:   e.Len,
		at:       func(t int64, fn func()) int64 { return int64(e.At(t, fn)) },
		batch:    e.ScheduleBatch,
		schedule: func(d int64, fn func()) int64 { return int64(e.Schedule(d, fn)) },
		cancel:   func(id int64) bool { return e.Cancel(EventID(id)) },
		every:    e.Every,
		pending:  e.HasPending,
		stop:     e.Stop,
		run:      e.Run,
		runAll:   e.RunAll,
	}
}

func refOps(e *refheap.Engine) kernelOps {
	return kernelOps{
		name:     "ref",
		now:      e.Now,
		length:   e.Len,
		at:       e.At,
		batch:    refBatch(e),
		schedule: e.Schedule,
		cancel:   e.Cancel,
		every:    e.Every,
		pending:  e.HasPending,
		stop:     e.Stop,
		run:      e.Run,
		runAll:   e.RunAll,
	}
}

// fastStepOps drives the fast kernel through the exported step
// primitives alone: run and runAll are reimplemented as the documented
// `for HasPending() { Step() }` loop with a driver-local stop flag —
// exactly the loop an external orchestrator (internal/clustersim) runs —
// so a trace-identical replay proves Step/PeekNextTime/HasPending
// compose back into Run/RunAll semantics.
func fastStepOps(e *Engine) kernelOps {
	stopped := false
	return kernelOps{
		name:     "fast-step",
		now:      e.Now,
		length:   e.Len,
		at:       func(t int64, fn func()) int64 { return int64(e.At(t, fn)) },
		batch:    e.ScheduleBatch,
		schedule: func(d int64, fn func()) int64 { return int64(e.Schedule(d, fn)) },
		cancel:   func(id int64) bool { return e.Cancel(EventID(id)) },
		every:    e.Every,
		pending:  e.HasPending,
		stop:     func() { stopped = true },
		run: func(until int64) {
			stopped = false
			for !stopped && e.HasPending() {
				if t, _ := e.PeekNextTime(); t > until {
					break
				}
				e.Step()
			}
			if !stopped && e.Now() < until {
				e.Advance(until - e.Now())
			}
		},
		runAll: func() {
			stopped = false
			for !stopped && e.Step() {
			}
		},
	}
}

// refBatch is a batch on the reference kernel: one At call per item, in
// index order.
func refBatch(e *refheap.Engine) func(n int, at func(i int) int64, fire func(i int)) {
	return func(n int, at func(i int) int64, fire func(i int)) {
		for i := 0; i < n; i++ {
			e.At(at(i), func() { fire(i) })
		}
	}
}

// refStepOps is fastStepOps for the refheap reference kernel.
func refStepOps(e *refheap.Engine) kernelOps {
	stopped := false
	return kernelOps{
		name:     "ref-step",
		now:      e.Now,
		length:   e.Len,
		at:       e.At,
		batch:    refBatch(e),
		schedule: e.Schedule,
		cancel:   e.Cancel,
		every:    e.Every,
		pending:  e.HasPending,
		stop:     func() { stopped = true },
		run: func(until int64) {
			stopped = false
			for !stopped && e.HasPending() {
				if t, _ := e.PeekNextTime(); t > until {
					break
				}
				e.Step()
			}
			if !stopped && e.Now() < until {
				e.Advance(until - e.Now())
			}
		},
		runAll: func() {
			stopped = false
			for !stopped && e.Step() {
			}
		},
	}
}

// traceEntry is one observable effect: an event executing (kind "fire"),
// a tick of an Every timer, or the boolean outcome of a Cancel.
type traceEntry struct {
	kind string
	tag  int64
	now  int64
	ok   bool
}

// script replays one seeded schedule — initial events that spawn children
// and cancel peers, sorted, unsorted and empty batches (issued up front,
// between windows and from inside firing events and batch items, with
// items at the current instant), periodic timers that stop themselves
// or each other, a timer that compacts the heap while it fires, mid-run
// Stop calls, segmented Run windows — against a kernel, returning
// the full observable trace. Every random draw comes from generator state
// advanced identically on both kernels as long as their execution orders
// agree; any divergence shows up as differing traces.
func script(seed int64, ops kernelOps) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceEntry
	var ids []int64

	record := func(kind string, tag int64, ok bool) {
		trace = append(trace, traceEntry{kind: kind, tag: tag, now: ops.now(), ok: ok})
	}

	// Event behavior: record the firing, then (depth permitting) spawn
	// children at future instants, cancel a random earlier id (which may
	// be pending, fired or cancelled — the result bool is part of the
	// trace), or stop the whole run.
	var fire func(tag int64, depth int, behavior int64) func()

	// batch issues up to maxN items at from+offset, one in four offsets
	// zero so items tie at from, sorted when the draw says so. Each item
	// fires as an event tagged tag+index would.
	batch := func(r *rand.Rand, tag int64, depth int, from int64, maxN int64) {
		times := make([]int64, r.Int63n(maxN+1))
		for i := range times {
			if r.Int63n(4) > 0 {
				times[i] = from + r.Int63n(600)
			} else {
				times[i] = from
			}
		}
		if r.Int63n(2) == 0 {
			slices.Sort(times)
		}
		record("batch", tag, false)
		behavior := r.Int63()
		ops.batch(len(times), func(i int) int64 { return times[i] }, func(i int) {
			fire(tag+int64(i), depth, behavior+int64(i))()
		})
	}

	fire = func(tag int64, depth int, behavior int64) func() {
		return func() {
			record("fire", tag, false)
			r := rand.New(rand.NewSource(behavior))
			if depth < 3 {
				for c := 0; c < int(r.Int63n(3)); c++ {
					childTag := tag*31 + int64(c) + 1
					id := ops.schedule(r.Int63n(500), fire(childTag, depth+1, behavior*131+int64(c)))
					ids = append(ids, id)
				}
			}
			if r.Int63n(4) == 0 && len(ids) > 0 {
				// Record the victim's issue index, not the raw id: the two
				// kernels issue different (but equally valid) id encodings.
				victim := r.Int63n(int64(len(ids)))
				record("cancel", victim, ops.cancel(ids[victim]))
			}
			if r.Int63n(64) == 0 {
				record("stop", tag, false)
				ops.stop()
			}
			if depth < 3 && r.Int63n(6) == 0 {
				batch(r, tag*1000+100, depth+1, ops.now(), 6)
			}
		}
	}

	const initial = 200
	for i := 0; i < initial; i++ {
		at := rng.Int63n(4000)
		id := ops.at(at, fire(int64(i), 0, seed*977+int64(i)))
		ids = append(ids, id)
	}
	for k := int64(0); k < 4; k++ {
		batch(rng, 40_000+100*k, 0, rng.Int63n(2000), 60)
	}

	// Periodic timers that stop themselves after a few ticks, plus one
	// stopped externally mid-run and one stopped twice (a no-op).
	var stopTick0 func()
	for k := 0; k < 4; k++ {
		interval := rng.Int63n(400) + 50
		limit := rng.Int63n(6) + 1
		tag := int64(10_000 + k)
		ticks := int64(0)
		var stopTick func()
		stopTick = ops.every(interval, func() {
			ticks++
			record("tick", tag, false)
			if ticks >= limit {
				stopTick()
			}
		})
		if k == 0 {
			stopTick0 = stopTick
		}
	}
	extTag := int64(20_000)
	stopExt := ops.every(rng.Int63n(300)+100, func() { record("tick", extTag, false) })

	// A timer whose callback schedules and cancels more events than the
	// queue holds (and at least compactMinDead), so the heap compacts
	// while the timer's own node is firing. It asks whether anything is
	// pending from inside the callback, schedules an event at its own
	// next tick's instant, stops a self-stopping timer on its second
	// tick, and on its third stops itself before cancelling, so
	// compaction also meets a stopped firing node.
	compTag := int64(25_000)
	compInterval := rng.Int63n(300) + 200
	compTicks := 0
	var stopComp func()
	stopComp = ops.every(compInterval, func() {
		compTicks++
		record("tick", compTag, false)
		record("pending", compTag, ops.pending())
		// Due at this timer's next tick, and scheduled first: it must
		// fire before that tick.
		ids = append(ids, ops.schedule(compInterval, fire(compTag-int64(compTicks), 3, seed)))
		switch compTicks {
		case 2:
			stopTick0()
		case 3:
			stopComp()
		}
		doomed := make([]int64, ops.length()+compactMinDead)
		for i := range doomed {
			doomed[i] = ops.schedule(int64(i%700), fire(compTag+int64(i), 3, seed+int64(i)))
		}
		for i, id := range doomed {
			if !ops.cancel(id) {
				record("cancel", compTag+int64(i), false)
			}
		}
		record("pending", compTag, ops.pending())
	})

	// Cancel a random subset up front, plus foreign and malformed ids.
	for i, id := range ids {
		if rng.Int63n(3) == 0 {
			record("cancel", int64(i), ops.cancel(id))
		}
	}
	record("cancel", -1, ops.cancel(0))
	record("cancel", -2, ops.cancel(1<<40))
	record("cancel", -3, ops.cancel(-77))

	// Run in segments with scheduling between windows; Stop events inside
	// the windows interrupt and the next segment resumes.
	for _, until := range []int64{500, 1200, 1201, 2600} {
		ops.run(until)
		record("segment", until, false)
		id := ops.at(ops.now()+rng.Int63n(200), fire(30_000+until, 1, seed+until))
		ids = append(ids, id)
		batch(rng, 50_000+10*until, 1, ops.now(), 20)
	}
	ops.run(3_000)
	stopExt()
	stopExt() // second stop must be a no-op
	ops.runAll()
	record("end", int64(ops.length()), false)
	return trace
}

// TestKernelDifferentialTrace replays seeded schedules — random
// Cancel/Every/Stop/At interleavings included — through the fast kernel
// and the refheap reference kernel and requires identical observable
// traces: same events, same order, same virtual timestamps, same Cancel
// outcomes, same final clock and queue length.
func TestKernelDifferentialTrace(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		fast := script(seed, fastOps(New()))
		ref := script(seed, refOps(refheap.New()))
		if len(fast) != len(ref) {
			t.Fatalf("seed %d: trace lengths differ: fast %d, ref %d", seed, len(fast), len(ref))
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("seed %d: trace[%d] differs:\n fast %+v\n ref  %+v", seed, i, fast[i], ref[i])
			}
		}
	}
}

// TestKernelStepPrimitiveDifferentialTrace replays the same seeded
// scripts through run loops built from the exported step primitives
// (HasPending/PeekNextTime/Step) on both kernels, and requires traces
// identical to the Run/RunAll-driven replay: externally stepping a
// kernel — the mode internal/clustersim depends on — must be
// observationally indistinguishable from its own run loop.
func TestKernelStepPrimitiveDifferentialTrace(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		base := script(seed, fastOps(New()))
		for _, stepped := range [][]traceEntry{
			script(seed, fastStepOps(New())),
			script(seed, refStepOps(refheap.New())),
		} {
			if len(base) != len(stepped) {
				t.Fatalf("seed %d: trace lengths differ: run-driven %d, step-driven %d",
					seed, len(base), len(stepped))
			}
			for i := range base {
				if base[i] != stepped[i] {
					t.Fatalf("seed %d: trace[%d] differs:\n run-driven  %+v\n step-driven %+v",
						seed, i, base[i], stepped[i])
				}
			}
		}
	}
}

// TestKernelDifferentialFIFOBurst pins the tie-break contract on a pure
// same-instant burst: thousands of events at one timestamp must pop in
// schedule order on both kernels.
func TestKernelDifferentialFIFOBurst(t *testing.T) {
	burst := func(ops kernelOps) []traceEntry {
		var trace []traceEntry
		for i := 0; i < 5000; i++ {
			tag := int64(i)
			ops.at(100, func() {
				trace = append(trace, traceEntry{kind: "fire", tag: tag, now: ops.now()})
			})
		}
		ops.runAll()
		return trace
	}
	fast := burst(fastOps(New()))
	ref := burst(refOps(refheap.New()))
	if len(fast) != len(ref) {
		t.Fatalf("trace lengths differ: fast %d, ref %d", len(fast), len(ref))
	}
	for i := range fast {
		if fast[i] != ref[i] {
			t.Fatalf("trace[%d] differs: fast %+v, ref %+v", i, fast[i], ref[i])
		}
		if fast[i].tag != int64(i) {
			t.Fatalf("burst order broken at %d: tag %d", i, fast[i].tag)
		}
	}
}
