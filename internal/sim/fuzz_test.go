package sim

import (
	"slices"
	"testing"
)

// FuzzEventOrder feeds arbitrary byte programs to the kernel — schedule,
// cancel, run-segment, foreign-cancel, batch and Every opcodes — and
// checks the heap's core invariants on whatever schedule results:
//
//   - events pop in nondecreasing virtual time;
//   - same-time events pop FIFO (in schedule order), where a timer's
//     next tick is scheduled when its callback returns;
//   - exactly the scheduled-minus-cancelled events fire;
//   - inside every callback, Len counts exactly the events still
//     pending (a firing timer's next tick is not pending yet), and
//     HasPending agrees with it;
//   - Len reports zero once the queue drains.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 0, 5, 1, 0, 2, 20})
	f.Add([]byte{0, 255, 0, 0, 0, 0, 1, 9, 3, 0, 0, 7})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 2, 255})
	f.Add([]byte{4, 0x10, 4, 0x51, 4, 0x02, 0, 3, 4, 0x93, 2, 4, 4, 0x37, 4, 0xfb, 4, 0x03})
	f.Add([]byte{5, 0x26})
	f.Add([]byte{5, 0x80})
	f.Add([]byte{0, 6, 5, 0x4d, 5, 0xf2, 0, 6, 5, 0x8b, 2, 5, 5, 0x17, 1, 1})
	f.Add([]byte{5, 0xff, 5, 0x5e, 0, 0, 5, 0xa1, 2, 3, 5, 0x3c, 3, 1, 2, 9})
	f.Fuzz(func(t *testing.T, program []byte) {
		e := New()
		type firing struct {
			time Time
			seq  int
		}
		var fired []firing
		var ids []EventID
		seq := 0
		scheduled, cancelled := 0, 0
		record := func(mySeq int) {
			fired = append(fired, firing{time: e.Now(), seq: mySeq})
			if got, want := e.Len(), scheduled-cancelled-len(fired); got != want {
				t.Fatalf("Len() = %d inside a callback at t=%d, want %d pending", got, e.Now(), want)
			}
		}
		schedule := func(delay Time) {
			mySeq := seq
			seq++
			scheduled++
			ids = append(ids, e.Schedule(delay, func() { record(mySeq) }))
		}
		cancel := func(i int) {
			if len(ids) > 0 && e.Cancel(ids[i%len(ids)]) {
				cancelled++
			}
		}

		// A timer's next tick counts as scheduled when it is armed: at
		// Every, and again when a callback returns without stopping it.
		type timer struct {
			stop           func()
			seq            int
			armed, stopped bool
		}
		var timers []*timer
		stopTimer := func(tm *timer) {
			if !tm.stopped && tm.armed {
				cancelled++
			}
			tm.stopped, tm.armed = true, false
			tm.stop()
		}
		// every starts a timer ticking every arg&3+1 seconds that stops
		// itself after arg>>2&3+1 ticks. Each tick does what arg>>4's
		// bits say: schedule at the current instant, schedule at its own
		// next tick's instant, cancel an event or stop a timer (itself
		// included), and ask HasPending from inside the callback.
		every := func(arg byte) {
			interval := Time(arg&3) + 1
			limit := int(arg>>2&3) + 1
			tm := &timer{seq: seq, armed: true}
			seq++
			scheduled++
			ticks := 0
			timers = append(timers, tm)
			tm.stop = e.Every(interval, func() {
				tm.armed = false
				record(tm.seq)
				ticks++
				if arg&0x10 != 0 {
					schedule(0)
				}
				if arg&0x20 != 0 {
					schedule(interval)
				}
				if arg&0x40 != 0 {
					if v := (int(arg) + ticks) % (len(ids) + len(timers)); v < len(ids) {
						cancel(v)
					} else {
						stopTimer(timers[v-len(ids)])
					}
				}
				if arg&0x80 != 0 {
					if has := e.HasPending(); has != (e.Len() > 0) {
						t.Fatalf("HasPending() = %v inside a tick with Len() = %d", has, e.Len())
					}
				}
				if ticks >= limit {
					stopTimer(tm)
				}
				if !tm.stopped {
					tm.seq, tm.armed = seq, true
					seq++
					scheduled++
				}
			})
		}

		// batch issues n = arg>>4&7 items at now + a delay drawn from the
		// batch's own bytes, in one of four shapes picked by arg&3:
		// nondecreasing, unsorted, empty, or issued by an event firing at
		// the current instant (with items at that instant).
		batch := func(arg byte) {
			n := int(arg >> 4 & 7)
			delays := make([]Time, n)
			for i := range delays {
				delays[i] = Time((int(arg)*7 + i*13) % 23)
			}
			switch arg & 3 {
			case 0:
				slices.Sort(delays)
			case 2:
				delays = nil
			case 3:
				if n > 0 {
					delays[0] = 0
				}
			}
			issue := func() {
				base, now := seq, e.Now()
				seq += len(delays)
				scheduled += len(delays)
				e.ScheduleBatch(len(delays),
					func(i int) Time { return now + delays[i] },
					func(i int) { record(base + i) })
			}
			if arg&3 != 3 {
				issue()
				return
			}
			mySeq := seq
			seq++
			scheduled++
			e.Schedule(0, func() {
				record(mySeq)
				issue()
			})
		}

		step := 0
		next := func() (byte, bool) {
			if step >= len(program) {
				return 0, false
			}
			b := program[step]
			step++
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			arg, _ := next()
			switch op % 6 {
			case 0: // schedule at now+arg
				schedule(Time(arg))
			case 1: // cancel the arg-th issued id
				cancel(int(arg))
			case 2: // run a bounded segment
				e.Run(e.Now() + Time(arg))
			case 3: // cancel a foreign id; must never report success
				if e.Cancel(EventID(int64(arg)*1_000_003 + 1<<40)) {
					t.Fatalf("cancel of foreign id reported success")
				}
			case 4: // schedule a batch
				batch(arg)
			case 5: // start a timer
				every(arg)
			}
		}
		e.RunAll()

		if got, want := len(fired), scheduled-cancelled; got != want {
			t.Fatalf("fired %d events, want %d (scheduled %d - cancelled %d)", got, want, scheduled, cancelled)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].time < fired[i-1].time {
				t.Fatalf("pop order regressed: event %d at t=%d after t=%d", i, fired[i].time, fired[i-1].time)
			}
			if fired[i].time == fired[i-1].time && fired[i].seq < fired[i-1].seq {
				t.Fatalf("FIFO tie-break broken at t=%d: seq %d popped after seq %d",
					fired[i].time, fired[i].seq, fired[i-1].seq)
			}
		}
		if e.Len() != 0 {
			t.Fatalf("Len() = %d after drain, want 0", e.Len())
		}
	})
}

// firedTimes is a helper extracting execution times in order.
func runAndCollect(e *Engine, n int, delay func(i int) Time) []Time {
	var out []Time
	for i := 0; i < n; i++ {
		e.Schedule(delay(i), func() { out = append(out, e.Now()) })
	}
	e.RunAll()
	return out
}

// TestCancelPoppedAndForeignIDs is the property the fuzz target enforces
// in miniature, pinned deterministically: Cancel of an already-popped id,
// of a foreign id, of the zero id and of a negative id all report false
// and leave the queue fully functional.
func TestCancelPoppedAndForeignIDs(t *testing.T) {
	e := New()
	popped := e.Schedule(1, func() {})
	e.RunAll()
	for _, id := range []EventID{popped, 0, -1, 1 << 50, popped + 7} {
		if e.Cancel(id) {
			t.Errorf("Cancel(%d) = true, want false", id)
		}
	}
	// The queue must still order correctly after the bogus cancels.
	got := runAndCollect(e, 5, func(i int) Time { return Time(5 - i) })
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("order corrupted after bogus cancels: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d, want 5", len(got))
	}
}

// TestCancelStaleIDAfterSlotReuse pins the generation guard: once an
// event fires and its slab slot is recycled by a new event, the old
// EventID must not cancel the new occupant.
func TestCancelStaleIDAfterSlotReuse(t *testing.T) {
	e := New()
	stale := e.Schedule(1, func() {})
	e.RunAll()

	fired := false
	fresh := e.Schedule(1, func() { fired = true })
	if fresh == stale {
		t.Fatalf("slot reuse produced a duplicate EventID %d", fresh)
	}
	if e.Cancel(stale) {
		t.Fatal("stale id cancelled a recycled slot's new event")
	}
	e.RunAll()
	if !fired {
		t.Fatal("event lost after stale-id cancel attempt")
	}
}

// TestCancelInsideCallbackOfSelf pins that an event cancelling its own id
// mid-execution is a no-op returning false (the event is already off the
// queue), matching the reference kernel.
func TestCancelInsideCallbackOfSelf(t *testing.T) {
	e := New()
	var id EventID
	var result, called bool
	id = e.Schedule(5, func() {
		called = true
		result = e.Cancel(id)
	})
	e.RunAll()
	if !called {
		t.Fatal("event did not fire")
	}
	if result {
		t.Error("self-cancel inside callback returned true, want false")
	}
}
