// Package refheap preserves the original discrete-event kernel — a
// closure-per-event binary heap built on container/heap with a pending-ID
// map — exactly as it shipped before the indexed fast-path kernel replaced
// it in internal/sim.
//
// It exists as the reference side of the kernel differential test suite:
// the fast kernel must replay any seeded schedule (including random
// Cancel/Every/Stop/At interleavings) with event order, timestamps and
// side effects identical to this implementation. Nothing in the simulation
// product depends on it: only tests and the kernel benchmark harness
// (internal/kernelbench, which only its own Go benchmarks call) import it,
// so no binary under cmd/ links it, and CI checks that none does. Do not
// optimize this package — its entire value is staying byte-for-byte
// faithful to the old semantics.
package refheap

import (
	"container/heap"
	"context"
	"fmt"
)

// Time is a point in virtual time, in seconds since the simulation epoch.
// It aliases int64 (like sim.Time) so traces from both kernels compare
// directly.
type Time = int64

// EventID identifies a scheduled event so it can be cancelled. It aliases
// int64; unlike the fast kernel's packed slot/generation IDs, the
// reference kernel issues plain sequence numbers. The zero EventID is
// never issued.
type EventID = int64

// event is a single pending callback.
type event struct {
	time Time
	seq  EventID // issue order; breaks ties deterministically
	fn   func()
	idx  int // heap index, -1 once popped or cancelled
}

// eventHeap orders events by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// Engine is the reference discrete-event simulator. The zero value is not
// usable; construct with New.
type Engine struct {
	now     Time
	queue   eventHeap
	pending map[EventID]*event
	nextSeq EventID
	stopped bool
}

// New returns an engine whose clock starts at time zero.
func New() *Engine {
	return &Engine{pending: make(map[EventID]*event)}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len reports the number of pending events.
func (e *Engine) Len() int { return len(e.queue) }

// Schedule runs fn after delay seconds of virtual time. A negative delay is
// an error in the caller; Schedule panics to surface the bug immediately.
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("refheap: negative delay %d", delay))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("refheap: schedule at %d before now %d", t, e.now))
	}
	if fn == nil {
		panic("refheap: nil event function")
	}
	e.nextSeq++
	ev := &event{time: t, seq: e.nextSeq, fn: fn}
	heap.Push(&e.queue, ev)
	e.pending[ev.seq] = ev
	return ev.seq
}

// Cancel removes a pending event. It reports whether the event was still
// pending; cancelling an already-fired or unknown event is a harmless no-op.
func (e *Engine) Cancel(id EventID) bool {
	ev, ok := e.pending[id]
	if !ok {
		return false
	}
	delete(e.pending, id)
	if ev.idx >= 0 {
		heap.Remove(&e.queue, ev.idx)
	}
	return true
}

// Every schedules fn to run now+interval, now+2*interval, ... until the
// returned stop function is called or the engine run window ends. The
// callback may call stop from within itself.
func (e *Engine) Every(interval Time, fn func()) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("refheap: non-positive interval %d", interval))
	}
	stopped := false
	var id EventID
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if stopped {
			return
		}
		id = e.Schedule(interval, tick)
	}
	id = e.Schedule(interval, tick)
	return func() {
		stopped = true
		e.Cancel(id)
	}
}

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// HasPending reports whether at least one event is pending. Mirrors
// sim.Engine.HasPending so the differential suite can drive both kernels
// through the same step-primitive loop.
func (e *Engine) HasPending() bool { return len(e.queue) > 0 }

// PeekNextTime reports the virtual time of the earliest pending event
// without executing it. ok is false when no event is pending.
func (e *Engine) PeekNextTime() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].time, true
}

// Step executes exactly the earliest pending event, advancing the clock
// to its timestamp, and reports whether an event ran. Like the fast
// kernel's Step it neither consults nor resets the Stop flag.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	next := heap.Pop(&e.queue).(*event)
	delete(e.pending, next.seq)
	e.now = next.time
	next.fn()
	return true
}

// cancelCheckEvery matches the fast kernel's context-poll cadence.
const cancelCheckEvery = 4096

// Run executes events in time order until the queue is empty or the next
// event is later than until.
func (e *Engine) Run(until Time) {
	e.run(until, nil, nil)
}

// RunContext is Run with cooperative cancellation.
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
// the step primitives.
func (e *Engine) run(until Time, ctx context.Context, done <-chan struct{}) error {
	e.stopped = false
	executed := 0
	for e.HasPending() && !e.stopped {
		if done != nil {
			if executed++; executed%cancelCheckEvery == 0 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
		}
		if next, _ := e.PeekNextTime(); next > until {
			break
		}
		e.Step()
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
// for that. An event scheduled exactly at the target stays pending and
// runnable, matching internal/sim's Advance semantics.
func (e *Engine) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("refheap: negative advance %d", d))
	}
	target := e.now + d
	if len(e.queue) > 0 && e.queue[0].time < target {
		panic("refheap: Advance would skip pending events")
	}
	e.now = target
}
