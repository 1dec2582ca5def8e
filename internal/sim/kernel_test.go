package sim

import (
	"slices"
	"testing"
)

// TestCancelHundredThousandNoLeak is the regression test for the old
// kernel's Cancel cost and for lazy-cancellation leaks: schedule and
// cancel 100k events and require that Len reports zero, that the physical
// heap compacted away the dead entries, and that every slab slot is back
// on the free list.
func TestCancelHundredThousandNoLeak(t *testing.T) {
	e := New()
	const n = 100_000
	ids := make([]EventID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, e.Schedule(Time(i%9973), func() { t.Error("cancelled event fired") }))
	}
	for _, id := range ids {
		if !e.Cancel(id) {
			t.Fatalf("Cancel(%d) = false for a pending event", id)
		}
	}
	if e.Len() != 0 {
		t.Fatalf("Len() = %d after cancelling everything, want 0", e.Len())
	}
	// Lazy cancellation must not hold the queue's space: compaction keeps
	// the physical heap bounded by the live count plus the compaction
	// floor.
	if len(e.heap) > compactMinDead {
		t.Errorf("physical heap holds %d dead entries after full cancel, want <= %d",
			len(e.heap), compactMinDead)
	}
	if got := len(e.free) + len(e.heap); got != n {
		t.Errorf("slot accounting: free %d + heap %d != scheduled %d", len(e.free), len(e.heap), n)
	}
	// The engine stays fully usable and re-uses the slots it reclaimed.
	fired := 0
	for i := 0; i < n; i++ {
		e.Schedule(Time(i%97), func() { fired++ })
	}
	if grew := len(e.slab); grew > n+compactMinDead {
		t.Errorf("slab grew to %d on reschedule, want slot reuse near %d", grew, n)
	}
	e.RunAll()
	if fired != n {
		t.Errorf("fired = %d after reuse, want %d", fired, n)
	}
	if e.Len() != 0 {
		t.Errorf("Len() = %d after drain, want 0", e.Len())
	}
}

// TestCancelAllAtCompactionBoundary is the regression test for the
// compaction edge where every entry dies: cancelling exactly
// compactMinDead events (and nearby counts, and a single survivor) used
// to heapify an empty heap and panic with an index-out-of-range.
func TestCancelAllAtCompactionBoundary(t *testing.T) {
	for _, n := range []int{compactMinDead - 1, compactMinDead, compactMinDead + 1, 2 * compactMinDead} {
		e := New()
		ids := make([]EventID, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, e.Schedule(Time(i), func() { t.Error("cancelled event fired") }))
		}
		for _, id := range ids {
			e.Cancel(id) // must not panic at any point
		}
		if e.Len() != 0 {
			t.Fatalf("n=%d: Len() = %d, want 0", n, e.Len())
		}
		fired := false
		e.Schedule(1, func() { fired = true })
		e.RunAll()
		if !fired {
			t.Fatalf("n=%d: engine unusable after full-cancel compaction", n)
		}
	}
	// One survivor among the dead: compaction keeps a single-entry heap.
	e := New()
	var ids []EventID
	for i := 0; i < 2*compactMinDead; i++ {
		ids = append(ids, e.Schedule(Time(i+10), func() { t.Error("cancelled event fired") }))
	}
	fired := false
	e.Schedule(5, func() { fired = true })
	for _, id := range ids {
		e.Cancel(id)
	}
	e.RunAll()
	if !fired || e.Len() != 0 {
		t.Fatalf("survivor lost: fired=%v Len=%d", fired, e.Len())
	}
}

// TestCancelInterleavedWithPopsKeepsAccounting mixes fired and cancelled
// events so both slot-recycling paths run, then checks the counters.
func TestCancelInterleavedWithPopsKeepsAccounting(t *testing.T) {
	e := New()
	const n = 10_000
	fired := 0
	var ids []EventID
	for i := 0; i < n; i++ {
		ids = append(ids, e.Schedule(Time(i), func() { fired++ }))
	}
	cancelled := 0
	for i, id := range ids {
		if i%3 == 0 {
			if e.Cancel(id) {
				cancelled++
			}
		}
	}
	if e.Len() != n-cancelled {
		t.Fatalf("Len() = %d, want %d", e.Len(), n-cancelled)
	}
	e.RunAll()
	if fired != n-cancelled {
		t.Fatalf("fired = %d, want %d", fired, n-cancelled)
	}
	if e.Len() != 0 || e.dead != 0 {
		t.Fatalf("post-drain: Len=%d dead=%d, want 0/0", e.Len(), e.dead)
	}
}

// TestCompactionBoundsHeapBesideLongRun pins that compaction weighs dead
// entries against live heap nodes, not pending items: cancelled timers
// beside a long sorted batch (one node) must not stay in the heap.
func TestCompactionBoundsHeapBesideLongRun(t *testing.T) {
	e := New()
	const n = 10_000
	e.ScheduleBatch(n, func(i int) Time { return Time(i) }, func(int) {})
	for i := 0; i < n; i++ {
		e.Cancel(e.Schedule(Time(i), func() { t.Error("cancelled event fired") }))
	}
	if len(e.heap) > 2*compactMinDead {
		t.Errorf("heap holds %d nodes beside one run and %d cancelled events, want <= %d",
			len(e.heap), n, 2*compactMinDead)
	}
	if e.Len() != n {
		t.Fatalf("Len() = %d, want %d", e.Len(), n)
	}
}

// TestScheduleBatchMatchesIndividualAt pins ScheduleBatch semantics: item
// order assigns issue order, so a batch is indistinguishable from the
// equivalent sequence of At calls — including FIFO ties against other
// events, batches split into several runs, and batches issued from
// inside a firing event at the current instant.
func TestScheduleBatchMatchesIndividualAt(t *testing.T) {
	type firing struct {
		tag int
		now Time
	}
	// A program schedules through batch (one ScheduleBatch, or one At per
	// time) and at (a plain event); every firing is logged under the tag
	// its item or event was issued with, then runs then, if set.
	type (
		batchFn = func(then func(i int), times ...Time)
		atFn    = func(t Time, then func())
		program = func(batch batchFn, at atFn)
	)
	cases := []struct {
		name string
		prog program
		want []int // tags in firing order, when pinned
	}{
		{"sorted", func(batch batchFn, at atFn) {
			batch(nil, 0, 10, 10, 20, 30, 30)
		}, []int{0, 1, 2, 3, 4, 5}},
		{"unsorted", func(batch batchFn, at atFn) {
			batch(nil, 30, 10, 10, 20, 10, 30)
		}, []int{1, 2, 4, 3, 0, 5}},
		{"decreasing", func(batch batchFn, at atFn) {
			batch(nil, 40, 30, 20, 10, 0)
		}, []int{4, 3, 2, 1, 0}},
		{"empty", func(batch batchFn, at atFn) {
			at(5, nil)
			batch(nil)
			at(5, nil)
		}, []int{0, 1}},
		{"ties with events and other batches", func(batch batchFn, at atFn) {
			at(10, nil)
			batch(nil, 10, 20, 10, 20)
			at(10, nil)
			batch(nil, 20, 10)
			at(20, nil)
		}, []int{0, 1, 3, 5, 7, 2, 4, 6, 8}},
		{"inside an event at the current instant", func(batch batchFn, at atFn) {
			batch(nil, 5, 5, 9)
			at(5, func() { batch(nil, 5, 7, 5, 9) })
			at(5, nil)
		}, []int{0, 1, 3, 4, 5, 7, 6, 2, 8}},
		{"inside a batch item at the current instant", func(batch batchFn, at atFn) {
			batch(func(i int) {
				if i == 1 {
					batch(nil, 3, 3, 5, 3)
				}
			}, 1, 3, 3, 4)
			at(3, nil)
		}, []int{0, 1, 2, 4, 5, 6, 8, 3, 7}},
	}

	run := func(useBatch bool, prog program) (log []firing, pending int) {
		e := New()
		tags := 0
		logFiring := func(tag int) { log = append(log, firing{tag, e.Now()}) }
		var batch batchFn
		batch = func(then func(i int), times ...Time) {
			base := tags
			tags += len(times)
			fire := func(i int) {
				logFiring(base + i)
				if then != nil {
					then(i)
				}
			}
			if useBatch {
				e.ScheduleBatch(len(times), func(i int) Time { return times[i] }, fire)
				return
			}
			for i, at := range times {
				e.At(at, func() { fire(i) })
			}
		}
		at := func(t Time, then func()) {
			tag := tags
			tags++
			e.At(t, func() {
				logFiring(tag)
				if then != nil {
					then()
				}
			})
		}
		prog(batch, at)
		pending = e.Len()
		e.RunAll()
		if e.Len() != 0 {
			t.Fatalf("Len() = %d after drain", e.Len())
		}
		return log, pending
	}

	for _, c := range cases {
		batched, batchedLen := run(true, c.prog)
		individual, individualLen := run(false, c.prog)
		if batchedLen != individualLen {
			t.Errorf("%s: Len() = %d with batches, %d with At calls", c.name, batchedLen, individualLen)
		}
		if !slices.Equal(batched, individual) {
			t.Errorf("%s: firings differ:\n batch %v\n At    %v", c.name, batched, individual)
			continue
		}
		if c.want == nil {
			continue
		}
		got := make([]int, len(batched))
		for i, f := range batched {
			got[i] = f.tag
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: firing order = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestScheduleBatchPanicsBeforeNow pins that a batch item before Now
// panics as At does, after scheduling exactly the items ahead of it.
func TestScheduleBatchPanicsBeforeNow(t *testing.T) {
	for _, times := range [][]Time{{5, 20}, {10, 12, 9, 11}, {10, 10, 12, 3}} {
		e := New()
		e.Advance(10)
		scheduled := 0
		for scheduled < len(times) && times[scheduled] >= 10 {
			scheduled++
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: batch with an item before now did not panic", times)
				}
			}()
			e.ScheduleBatch(len(times), func(i int) Time { return times[i] }, func(int) {})
		}()
		if e.Len() != scheduled {
			t.Errorf("%v: Len() = %d after the panic, want the %d items ahead of it", times, e.Len(), scheduled)
		}
	}
}

// TestCancelRefusesBatchRuns pins that batch items cannot be cancelled:
// an ID forged from a run's slot and current generation is refused, both
// before the run starts and after it advanced in place.
func TestCancelRefusesBatchRuns(t *testing.T) {
	e := New()
	fired := 0
	e.ScheduleBatch(4, func(i int) Time { return Time(i) }, func(int) { fired++ })
	e.ScheduleBatch(2, func(i int) Time { return Time(2 - i) }, func(int) { fired++ })
	forge := func() {
		t.Helper()
		runs := 0
		for slot := range e.slab {
			ev := &e.slab[slot]
			if !ev.live || ev.run == nil {
				continue
			}
			runs++
			if e.Cancel(packID(int32(slot), ev.gen)) {
				t.Fatalf("Cancel of a forged ID on run slot %d reported success", slot)
			}
		}
		if runs == 0 {
			t.Fatal("no run slot to forge an ID for")
		}
	}
	forge()
	e.Step()
	e.Step()
	forge()
	if e.Len() != 4 {
		t.Fatalf("Len() = %d after two steps, want 4", e.Len())
	}
	e.RunAll()
	if fired != 6 {
		t.Fatalf("fired = %d, want 6", fired)
	}
}

// TestReservePreGrowsWithoutScheduling checks Reserve is purely a
// capacity hint: no events appear, and a subsequent bulk feed fits the
// reserved arrays without reallocation.
func TestReservePreGrowsWithoutScheduling(t *testing.T) {
	e := New()
	e.Reserve(1000)
	if e.Len() != 0 {
		t.Fatalf("Reserve scheduled something: Len = %d", e.Len())
	}
	if cap(e.heap) < 1000 || cap(e.slab) < 1000 {
		t.Fatalf("Reserve(1000) left caps heap=%d slab=%d", cap(e.heap), cap(e.slab))
	}
	heapCap, slabCap := cap(e.heap), cap(e.slab)
	fired := 0
	e.ScheduleBatch(1000, func(i int) Time { return Time(i % 37) }, func(int) { fired++ })
	if cap(e.heap) != heapCap || cap(e.slab) != slabCap {
		t.Errorf("batch within reservation reallocated: heap %d->%d, slab %d->%d",
			heapCap, cap(e.heap), slabCap, cap(e.slab))
	}
	e.RunAll()
	if fired != 1000 {
		t.Fatalf("fired = %d, want 1000", fired)
	}
}

// TestEveryStopIsIdempotentAndStaleStopInert covers the pooled-ticker
// hazards: stopping twice is a no-op, and a stop function retained after
// its ticker was recycled into a new Every must not stop the new timer.
func TestEveryStopIsIdempotentAndStaleStopInert(t *testing.T) {
	e := New()
	ticksA := 0
	stopA := e.Every(10, func() { ticksA++ })
	e.Run(30)
	stopA()
	stopA() // idempotent
	if ticksA != 3 {
		t.Fatalf("ticksA = %d, want 3", ticksA)
	}

	// Recycle until the pool hands back a node; whichever node backs B,
	// the stale stopA must not affect it.
	ticksB := 0
	stopB := e.Every(10, func() { ticksB++ })
	stopA() // stale: must be inert
	e.Run(60)
	if ticksB != 3 {
		t.Fatalf("ticksB = %d after stale stop, want 3 (stale stopA acted on B's ticker)", ticksB)
	}
	stopB()
	e.Run(100)
	if ticksB != 3 {
		t.Fatalf("ticksB = %d after real stop, want 3", ticksB)
	}
}

// TestEveryStopInsideCallbackThenNewEvery exercises the in-flight release
// path: a callback stops its own ticker and immediately starts a new
// periodic timer (possibly reusing the pooled node); the old chain must
// end and the new one must tick alone.
func TestEveryStopInsideCallbackThenNewEvery(t *testing.T) {
	e := New()
	oldTicks, newTicks := 0, 0
	var stopOld func()
	stopOld = e.Every(10, func() {
		oldTicks++
		if oldTicks == 2 {
			stopOld()
			e.Every(7, func() { newTicks++ })
		}
	})
	e.Run(41)
	if oldTicks != 2 {
		t.Fatalf("oldTicks = %d, want 2 (stopped from within)", oldTicks)
	}
	// New ticker started at t=20, so ticks at 27, 34, 41.
	if newTicks != 3 {
		t.Fatalf("newTicks = %d, want 3", newTicks)
	}
}

// TestManyEveryTimersReusePool spins up and stops many timers in
// sequence; the pool should keep slab/ticker churn flat, and every timer
// must tick exactly its share.
func TestManyEveryTimersReusePool(t *testing.T) {
	e := New()
	total := 0
	for i := 0; i < 500; i++ {
		stop := e.Every(5, func() { total++ })
		e.Run(e.Now() + 10)
		stop()
	}
	if total != 1000 {
		t.Fatalf("total ticks = %d, want 1000 (2 per timer)", total)
	}
	if e.Len() != 0 {
		t.Fatalf("Len() = %d, want 0 (all timers cancelled)", e.Len())
	}
}

// TestAdvanceIgnoresCancelledEvents pins a lazy-cancellation edge: a
// cancelled event earlier than the advance target must not trip the
// pending-event panic, matching the reference kernel where Cancel
// physically removed the entry.
func TestAdvanceIgnoresCancelledEvents(t *testing.T) {
	e := New()
	id := e.Schedule(10, func() {})
	e.Schedule(100, func() {})
	e.Cancel(id)
	e.Advance(50) // must not panic: only the cancelled event is earlier
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("Advance over the live pending event did not panic")
		}
	}()
	e.Advance(60)
}

// TestEventIDsNeverZeroAndUnique samples the packed-ID scheme: ids are
// nonzero, positive, and distinct among concurrently pending events.
func TestEventIDsNeverZeroAndUnique(t *testing.T) {
	e := New()
	seen := make(map[EventID]bool)
	for i := 0; i < 5000; i++ {
		id := e.Schedule(Time(i), func() {})
		if id == 0 {
			t.Fatal("zero EventID issued")
		}
		if id < 0 {
			t.Fatalf("negative EventID %d issued", id)
		}
		if seen[id] {
			t.Fatalf("duplicate pending EventID %d", id)
		}
		seen[id] = true
	}
}
