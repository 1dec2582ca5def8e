// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock measured in integer seconds and a
// priority queue of events. Events scheduled for the same instant fire in
// the order they were scheduled, which makes runs fully reproducible: the
// same sequence of Schedule calls always yields the same execution order.
//
// All management logic in this repository (TRE servers, the resource
// provision service, the job emulator) is written against this engine, so
// a two-week workload trace simulates in milliseconds while exercising the
// exact decision code the paper's emulated system runs.
//
// # Kernel design and invariants
//
// The event queue is an index-addressed 4-ary min-heap over a flat event
// slab, built for million-event runs (see the ROADMAP north star and the
// scale-100 scenario):
//
//   - heap holds slab slot numbers ordered by (time, seq); seq is a
//     monotonically increasing issue number, so ties at the same instant
//     pop in schedule order (FIFO) and the comparator is a total order —
//     pop order is independent of the heap's internal shape.
//   - A heap node is either a single event (At, Schedule, Every) or a
//     batch run: one maximal stretch of nondecreasing times from a
//     ScheduleBatch call, keyed by its next item's (time, seq). Step
//     moves a run's node to the following item before firing the current
//     one, so the heap holds O(in-flight events + runs) nodes, not one
//     per pending arrival: a sorted feed of a million jobs is one node
//     and allocates nothing per job. A run's items take consecutive seqs,
//     so a heap of run heads pops exactly what the equivalent At calls
//     would.
//   - ScheduleBatch calls its at function again as a run advances, so at
//     must return the same time for an index for as long as the batch has
//     undelivered items (every caller reads a read-only job slice or a
//     round buffer it no longer writes).
//   - slab entries are reused through a free list, so steady-state
//     scheduling performs no per-event allocation.
//   - EventIDs pack (slot+1, generation). The generation increments every
//     time a slot is freed, so a stale ID — already fired, already
//     cancelled, or from another engine — can never reach a reused slot:
//     Cancel of such an ID reports false and touches nothing. Batch items
//     carry no ID and cannot be cancelled: Cancel refuses a run's slot
//     even for an ID forged with the slot's current generation.
//   - Cancel is O(1) and lazy: the entry is marked dead in place and
//     skipped when it surfaces at the heap top. When dead entries
//     outnumber live nodes (and exceed a small floor), the heap compacts,
//     dropping every dead entry in one O(n) heapify, so a
//     schedule-many/cancel-many workload cannot leak queue space.
//   - An Every timer is one slab entry (fn and its interval) and one heap
//     node. While its callback runs, the node stays at heap[0] (it is the
//     minimum, and everything scheduled meanwhile takes a later seq);
//     Step then re-keys it in place to (now+interval, next seq), the key
//     a Schedule call after the callback would take, with one siftDown.
//     A firing timer is not pending: Len leaves it out, Cancel only
//     marks it stopped, compaction keeps it, and peekLive detaches it.
//
// Invariants checked by the property/fuzz suite (see fuzz_test.go and
// diff_test.go): pops are nondecreasing in time and FIFO-stable per
// timestamp; Len equals scheduled minus fired minus cancelled; and any
// seeded schedule replays on this kernel with event order, timestamps and
// side effects identical to the original container/heap kernel preserved
// in internal/sim/refheap.
//
// # Partitioned runs
//
// A single Engine is single-goroutine by design; multi-core scaling comes
// from running several engines side by side (internal/sim/partition).
// The invariants that make a partitioned run byte-identical to a serial
// one:
//
//   - Events never cross engines. A partitioned run only exists when the
//     model guarantees no interaction between partitions until results
//     merge (the paper's providers share nothing until accounting).
//   - Each engine's event order is a pure function of its own Schedule
//     calls, so a partition replays exactly as it would inside a serial
//     run containing the same calls — the heap, seq numbers and clock
//     are all engine-local.
//   - The lockstep driver advances every engine to the same window
//     boundary before any merge observes cross-partition state, using
//     only HasPending/PeekNextTime/Step/Advance, the same primitives the
//     differential suite proves trace-identical to Run/RunAll.
//   - Randomness stays deterministic because every RNG stream is seeded
//     from the run seed and the partition's position in the serial
//     attach order, never from partition count or host scheduling.
package sim

import (
	"context"
	"fmt"
)

// Time is a point in virtual time, in seconds since the simulation epoch.
type Time = int64

// Common durations, in seconds.
const (
	Second Time = 1
	Minute Time = 60
	Hour   Time = 3600
	Day    Time = 24 * Hour
	Week   Time = 7 * Day
)

// EventID identifies a scheduled event so it can be cancelled. IDs pack
// the event's slab slot and the slot's generation; they are opaque to
// callers. The zero EventID is never issued.
type EventID int64

// genMask keeps generations in 31 bits so packed IDs stay positive.
const genMask = 1<<31 - 1

// packID builds the external ID for a slot at a generation. Slot numbers
// are offset by one so the zero EventID is never produced.
func packID(slot int32, gen uint32) EventID {
	return EventID(int64(gen)<<32 | int64(slot+1))
}

// unpackID splits an ID back into slot and generation. ok is false for
// the zero ID and for IDs whose slot field underflows; out-of-range slots
// and generation mismatches are caught against the slab by the caller.
func unpackID(id EventID) (slot int, gen uint32, ok bool) {
	slotPlus1 := uint32(uint64(id) & 0xffffffff)
	if slotPlus1 == 0 {
		return 0, 0, false
	}
	return int(slotPlus1) - 1, uint32(uint64(id)>>32) & 0xffffffff, true
}

// event is one slab entry: a single event's callback (fn), a timer's
// callback and interval, or a batch run (run). A live entry is scheduled
// and uncancelled (a firing timer's re-arms); a dead entry either waits at
// its heap position to be skipped (cancelled) or sits on the free list.
type event struct {
	fn       func()
	run      *batchRun
	interval Time   // > 0 for an Every timer
	gen      uint32 // bumped on every free; stale-ID guard
	live     bool
	firing   bool
}

// batchRun is the undelivered part of one stretch of a ScheduleBatch
// call: items next..end-1, whose times are nondecreasing and whose seqs
// are consecutive. Its heap node is keyed by item next.
type batchRun struct {
	at        func(i int) Time
	fire      func(i int)
	next, end int
}

// heapNode is one heap entry. The ordering key (time, seq) lives in the
// node itself, so sift comparisons walk the contiguous heap array without
// dereferencing the slab — the slab is only touched at push, pop and
// cancel.
type heapNode struct {
	time Time
	seq  int64 // issue order; breaks same-time ties deterministically
	slot int32
}

// before orders heap nodes by (time, seq).
func (n heapNode) before(m heapNode) bool {
	if n.time != m.time {
		return n.time < m.time
	}
	return n.seq < m.seq
}

// heapArity is the heap fan-out. Four children per node halve the tree
// depth of the binary heap and keep each node's children in one or two
// cache lines of the int32 heap array.
const heapArity = 4

// compactMinDead is the floor below which dead entries are never worth
// compacting away.
const compactMinDead = 64

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Engine struct {
	now     Time
	heap    []heapNode // 4-ary min-heap by (time, seq)
	slab    []event
	free    []int32 // slab slots ready for reuse
	nextSeq int64
	live    int // events scheduled and not cancelled, batch items included
	dead    int // cancelled but still occupying a heap position
	stopped bool
}

// New returns an engine whose clock starts at time zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len reports the number of pending (scheduled, uncancelled) events,
// counting every undelivered batch item.
func (e *Engine) Len() int { return e.live }

// siftUp restores the heap property for a new entry at index i.
func (e *Engine) siftUp(i int) {
	h := e.heap
	node := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !node.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = node
}

// siftDown restores the heap property for the entry at index i.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	node := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(node) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = node
}

// popTop removes the heap's minimum entry (the caller has already decided
// its fate) and repairs the heap.
func (e *Engine) popTop() {
	h := e.heap
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

// freeSlot recycles a slab slot: the closure is dropped so it can be
// collected, and the generation bump invalidates any ID still pointing
// here.
func (e *Engine) freeSlot(slot int32) {
	ev := &e.slab[slot]
	ev.fn, ev.run, ev.interval = nil, nil, 0
	ev.live = false
	ev.gen = (ev.gen + 1) & genMask
	e.free = append(e.free, slot)
}

// peekLive surfaces the earliest live entry, discarding any cancelled
// entries that have reached the top. On ok, e.heap[0] is that entry. A
// firing timer's node is detached, not freed (see rearm).
func (e *Engine) peekLive() (node heapNode, ok bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		ev := &e.slab[top.slot]
		if ev.live && !ev.firing {
			return top, true
		}
		e.popTop()
		if !ev.firing {
			e.freeSlot(top.slot)
			e.dead--
		}
	}
	return heapNode{}, false
}

// maybeCompact rebuilds the heap without its dead entries once they
// outnumber the live nodes, bounding queue growth under schedule-heavy
// cancel-heavy workloads. Compaction cannot change pop order: the
// comparator is a total order, so the pop sequence is independent of the
// heap's internal arrangement.
func (e *Engine) maybeCompact() {
	if e.dead < compactMinDead || e.dead <= len(e.heap)-e.dead {
		return
	}
	kept := e.heap[:0]
	for _, n := range e.heap {
		if ev := &e.slab[n.slot]; ev.live || ev.firing {
			kept = append(kept, n)
		} else {
			e.freeSlot(n.slot)
		}
	}
	e.heap = kept
	e.dead = 0
	// Heapify from the last parent. Guard the small cases: with zero or
	// one survivor there is nothing to sift (and Go's truncation toward
	// zero would map len 0 to parent index 0, indexing an empty heap).
	if n := len(kept); n > 1 {
		for i := (n - 2) / heapArity; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// Schedule runs fn after delay seconds of virtual time. A negative delay is
// an error in the caller; Schedule panics to surface the bug immediately.
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) EventID {
	if fn == nil {
		panic("sim: nil event function")
	}
	slot := e.push(t, fn, nil)
	return packID(slot, e.slab[slot].gen)
}

// push enters one heap node at time t for a single event (fn) or a batch
// run (r), and returns its slab slot. The node's events, one or the
// run's items, take the next issue numbers.
func (e *Engine) push(t Time, fn func(), r *batchRun) int32 {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	items := 1
	if r != nil {
		items = r.end - r.next
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slab = append(e.slab, event{})
		slot = int32(len(e.slab) - 1)
	}
	ev := &e.slab[slot]
	ev.fn, ev.run = fn, r
	ev.live = true
	e.heap = append(e.heap, heapNode{time: t, seq: e.nextSeq + 1, slot: slot})
	e.siftUp(len(e.heap) - 1)
	e.nextSeq += int64(items)
	e.live += items
	return slot
}

// Reserve pre-grows the queue for n upcoming single events, so a bulk
// feed of At calls triggers at most one allocation for the heap and one
// for the slab instead of O(log n) progressive growths.
func (e *Engine) Reserve(n int) {
	if n <= 0 {
		return
	}
	if need := len(e.heap) + n; cap(e.heap) < need {
		grown := make([]heapNode, len(e.heap), need)
		copy(grown, e.heap)
		e.heap = grown
	}
	// Free slots will be reused first; only the remainder needs new slab
	// capacity.
	if extra := n - len(e.free); extra > 0 {
		if need := len(e.slab) + extra; cap(e.slab) < need {
			grown := make([]event, len(e.slab), need)
			copy(grown, e.slab)
			e.slab = grown
		}
	}
}

// ScheduleBatch schedules n events: item i runs fire(i) at absolute time
// at(i). Items take consecutive issue numbers in index order, so the
// batch fires exactly as n individual At calls would, same-time ties
// included, and like At it panics on an item before Now. Batch items
// return no EventID and cannot be cancelled.
//
// Each maximal stretch of nondecreasing times is held as one heap node
// that advances through its items, so a sorted feed costs one node and
// no allocation per item; an unsorted batch degrades to one node per
// stretch. at is called again as a stretch advances: it must return the
// same time for an index for as long as the batch has undelivered items.
func (e *Engine) ScheduleBatch(n int, at func(i int) Time, fire func(i int)) {
	if n <= 0 {
		return
	}
	if at == nil || fire == nil {
		panic("sim: nil batch function")
	}
	start, head := 0, at(0)
	prev := head
	for i := 1; i < n; i++ {
		t := at(i)
		if t < prev {
			e.push(head, nil, &batchRun{at: at, fire: fire, next: start, end: i})
			start, head = i, t
		}
		prev = t
	}
	e.push(head, nil, &batchRun{at: at, fire: fire, next: start, end: n})
}

// Cancel removes a pending event. It reports whether the event was still
// pending; cancelling an already-fired, foreign or unknown event is a
// harmless no-op. Cancellation is O(1): the entry is marked dead in place
// and skipped when it reaches the heap top (or dropped by compaction).
func (e *Engine) Cancel(id EventID) bool {
	slot, gen, ok := unpackID(id)
	if !ok || slot >= len(e.slab) {
		return false
	}
	ev := &e.slab[slot]
	if !ev.live || ev.gen != gen || ev.run != nil {
		return false
	}
	ev.live = false
	ev.fn = nil
	if ev.firing {
		return true // a timer stopped from its own callback: Step frees it
	}
	e.live--
	e.dead++
	e.maybeCompact()
	return true
}

// Every schedules fn to run now+interval, now+2*interval, ... until the
// returned stop function is called or the engine run window ends. The
// callback may call stop from within itself; calling stop more than once
// is a no-op.
func (e *Engine) Every(interval Time, fn func()) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %d", interval))
	}
	id := e.Schedule(interval, fn)
	slot, _, _ := unpackID(id)
	e.slab[slot].interval = interval
	return func() { e.Cancel(id) }
}

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// HasPending reports whether at least one live (scheduled, uncancelled)
// event is pending. Together with PeekNextTime and Step it forms the
// engine's step-primitive interface: `for e.HasPending() { e.Step() }`
// replays exactly the event sequence RunAll would execute, which is what
// lets an external orchestrator (internal/clustersim) interleave several
// engines behind one shared clock.
func (e *Engine) HasPending() bool {
	_, ok := e.peekLive()
	return ok
}

// PeekNextTime reports the virtual time of the earliest pending event
// without executing it. ok is false when no event is pending.
func (e *Engine) PeekNextTime() (Time, bool) {
	top, ok := e.peekLive()
	if !ok {
		return 0, false
	}
	return top.time, true
}

// Step executes exactly the earliest pending event, advancing the clock
// to its timestamp, and reports whether an event ran (false means the
// queue was empty). Step neither consults nor resets the Stop flag —
// window policy belongs to the loop driving it, exactly as in Run.
func (e *Engine) Step() bool {
	top, ok := e.peekLive()
	if !ok {
		return false
	}
	e.live--
	e.now = top.time
	if r := e.slab[top.slot].run; r != nil {
		// Re-key the node to the run's next item before firing, so the
		// queue the item's callback sees no longer holds the item.
		i := r.next
		if r.next++; r.next < r.end {
			e.heap[0] = heapNode{time: r.at(r.next), seq: top.seq + 1, slot: top.slot}
			e.siftDown(0)
		} else {
			e.popTop()
			e.freeSlot(top.slot)
		}
		r.fire(i)
		return true
	}
	ev := &e.slab[top.slot]
	fn := ev.fn
	if ev.interval > 0 {
		ev.firing = true // its node stays at heap[0] until rearm
		fn()
		e.rearm(top.slot)
		return true
	}
	e.popTop()
	e.freeSlot(top.slot)
	fn()
	return true
}

// rearm ends a timer's tick: a stopped timer's node leaves the heap and
// its slot is freed, a live one is re-keyed in place. A node peekLive
// detached goes back on top first, under a key below every pending one.
func (e *Engine) rearm(slot int32) {
	ev := &e.slab[slot]
	ev.firing = false
	if len(e.heap) == 0 || e.heap[0].slot != slot {
		e.heap = append(e.heap, heapNode{time: e.now, slot: slot})
		e.siftUp(len(e.heap) - 1)
	}
	if !ev.live {
		e.popTop()
		e.freeSlot(slot)
		return
	}
	e.nextSeq++
	e.live++
	e.heap[0] = heapNode{time: e.now + ev.interval, seq: e.nextSeq, slot: slot}
	e.siftDown(0)
}

// cancelCheckEvery is how many events execute between context checks in
// RunContext. Events take microseconds, so a few thousand of them keep
// cancellation latency well under a millisecond without paying a channel
// poll per event.
const cancelCheckEvery = 4096

// Run executes events in time order until the queue is empty or the next
// event is later than until. The clock ends at the last executed event time
// (or until, whichever the caller observes via Now after a Drain). Events
// scheduled exactly at until are executed.
func (e *Engine) Run(until Time) {
	e.run(until, nil, nil)
}

// RunContext is Run with cooperative cancellation: the context is polled
// every few thousand events, and a cancelled or expired context abandons
// the remaining queue and returns ctx.Err(). A run that finishes normally
// returns nil even if the context is cancelled immediately afterwards.
func (e *Engine) RunContext(ctx context.Context, until Time) error {
	if ctx == nil {
		ctx = context.Background() //dclint:allow ctxfirst -- nil-ctx guard: documented to treat nil as no cancellation
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.run(until, ctx, ctx.Done())
}

// run is the shared event loop, a thin window/cancellation policy over
// the step primitives. A nil done channel skips cancellation polling
// entirely, keeping the uncancellable path allocation- and select-free.
func (e *Engine) run(until Time, ctx context.Context, done <-chan struct{}) error {
	e.stopped = false
	executed := 0
	for !e.stopped {
		next, ok := e.PeekNextTime()
		if !ok || next > until {
			break
		}
		e.Step()
		// Count executed events, not peeks: the final out-of-window peek
		// (and a peek that never executes) must not advance the poll
		// cadence, or the "every cancelCheckEvery events" contract drifts.
		if done != nil {
			if executed++; executed%cancelCheckEvery == 0 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
		}
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	return nil
}

// RunAll executes every pending event, including ones scheduled by events
// that fire during the call, until the queue drains.
func (e *Engine) RunAll() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Advance moves the clock forward by d without executing anything. It
// panics if an event is pending strictly before the target time; use Run
// for that. An event scheduled exactly at the target is not skipped — it
// stays pending and runnable at the new clock — so a driver that has
// stepped everything with time <= boundary may Advance to the boundary
// even while later same-instant work remains queued elsewhere.
func (e *Engine) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %d", d))
	}
	target := e.now + d
	if top, ok := e.peekLive(); ok && top.time < target {
		panic("sim: Advance would skip pending events")
	}
	e.now = target
}
