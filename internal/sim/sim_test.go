package sim

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if e.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", e.Len())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, d := range []Time{30, 10, 20} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.RunAll()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO ties broken)", i, v, i)
		}
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.Schedule(20, func() { fired++ })
	e.Schedule(30, func() { fired++ })
	e.Run(20)
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (events at 10 and 20)", fired)
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %d, want 20", e.Now())
	}
	e.Run(100)
	if fired != 3 {
		t.Errorf("fired = %d after second Run, want 3", fired)
	}
}

func TestRunAdvancesClockToDeadlineWhenIdle(t *testing.T) {
	e := New()
	e.Run(500)
	if e.Now() != 500 {
		t.Errorf("Now() = %d, want 500", e.Now())
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	e := New()
	fired := false
	id := e.Schedule(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelUnknownIDIsNoop(t *testing.T) {
	e := New()
	if e.Cancel(EventID(9999)) {
		t.Error("Cancel of unknown id returned true")
	}
}

func TestCancelAlreadyFiredEvent(t *testing.T) {
	e := New()
	id := e.Schedule(1, func() {})
	e.RunAll()
	if e.Cancel(id) {
		t.Error("Cancel of fired event returned true")
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	e.RunAll()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v, want [10 15]", times)
	}
}

func TestEverFiresPeriodically(t *testing.T) {
	e := New()
	var ticks []Time
	stop := e.Every(60, func() { ticks = append(ticks, e.Now()) })
	e.Run(300)
	stop()
	e.Run(600)
	want := []Time{60, 120, 180, 240, 300}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %d, want %d", i, ticks[i], want[i])
		}
	}
}

func TestEveryStopFromWithinCallback(t *testing.T) {
	e := New()
	count := 0
	var stop func()
	stop = e.Every(10, func() {
		count++
		if count == 3 {
			stop()
		}
	})
	e.Run(1000)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(10, func() { fired++; e.Stop() })
	e.Schedule(20, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (Stop after first event)", fired)
	}
	// A later Run resumes.
	e.Run(100)
	if fired != 2 {
		t.Errorf("fired = %d after resume, want 2", fired)
	}
}

func TestAdvanceMovesClock(t *testing.T) {
	e := New()
	e.Advance(42)
	if e.Now() != 42 {
		t.Errorf("Now() = %d, want 42", e.Now())
	}
}

func TestAdvancePanicsOverPendingEvent(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	defer func() {
		if recover() == nil {
			t.Error("Advance over a pending event did not panic")
		}
	}()
	e.Advance(20)
}

func TestAdvanceAllowsEventExactlyAtTarget(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(10, func() { fired = true })
	e.Advance(10) // boundary: the event is at, not before, the target
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
	if fired {
		t.Fatal("Advance executed the boundary event")
	}
	// The event stays pending and runnable at the new clock.
	if !e.Step() {
		t.Fatal("boundary event lost by Advance")
	}
	if !fired || e.Now() != 10 {
		t.Errorf("fired = %v, Now() = %d; want true, 10", fired, e.Now())
	}
}

func TestAdvancePanicsOnEventStrictlyBeforeTarget(t *testing.T) {
	e := New()
	e.Schedule(9, func() {})
	defer func() {
		if recover() == nil {
			t.Error("Advance over an event one tick before the target did not panic")
		}
	}()
	e.Advance(10)
}

func TestScheduleNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	e.At(5, nil)
}

func TestEveryNilFuncPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("Every with a nil fn did not panic")
		}
	}()
	e.Every(10, nil)
}

func TestEveryNonPositiveIntervalPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("non-positive interval did not panic")
		}
	}()
	e.Every(0, func() {})
}

// Property: for any set of delays, events fire in non-decreasing time order
// and the clock matches each event's scheduled time.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		sorted := make([]Time, len(delays))
		for i, d := range delays {
			sorted[i] = Time(d)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset leaves exactly the others to fire.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		total := int(n%64) + 1
		fired := 0
		ids := make([]EventID, total)
		for i := 0; i < total; i++ {
			ids[i] = e.Schedule(Time(rng.Intn(1000)), func() { fired++ })
		}
		cancelled := 0
		for _, id := range ids {
			if rng.Intn(2) == 0 {
				if e.Cancel(id) {
					cancelled++
				}
			}
		}
		e.RunAll()
		return fired == total-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: two engines fed the same schedule produce identical execution
// traces (determinism).
func TestPropertyDeterminism(t *testing.T) {
	run := func(delays []uint16) []Time {
		e := New()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		return fired
	}
	f := func(delays []uint16) bool {
		a, b := run(delays), run(delays)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.RunAll()
	}
}

func TestRunContextCompletesWithLiveContext(t *testing.T) {
	e := New()
	fired := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() { fired++ })
	}
	if err := e.RunContext(context.Background(), 100); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if fired != 10 {
		t.Errorf("fired = %d, want 10", fired)
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %d, want 100", e.Now())
	}
}

func TestRunContextNilContextBehavesLikeBackground(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(1, func() { fired = true })
	if err := e.RunContext(nil, 10); err != nil { //nolint:staticcheck // nil ctx tolerated by contract
		t.Fatalf("RunContext(nil): %v", err)
	}
	if !fired {
		t.Error("event did not fire")
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(1, func() { fired = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunContext(ctx, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fired {
		t.Error("event fired despite pre-cancelled context")
	}
	if e.Len() != 1 {
		t.Errorf("pending = %d, want 1 (queue untouched)", e.Len())
	}
}

func TestRunContextCancelsMidRun(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	// Schedule far more events than one cancellation-check interval; the
	// first event cancels, so the loop must stop at the next poll.
	total := 10 * cancelCheckEvery
	for i := 0; i < total; i++ {
		e.Schedule(Time(i), func() { fired++ })
	}
	e.Schedule(0, func() { cancel() })
	err := e.RunContext(ctx, Time(total))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fired >= total {
		t.Errorf("fired = %d, want < %d (run should abandon the queue)", fired, total)
	}
	if fired > 2*cancelCheckEvery {
		t.Errorf("fired = %d events after cancellation, want <= %d", fired, 2*cancelCheckEvery)
	}
}

// TestRunContextPollCadence pins the "polled every cancelCheckEvery
// executed events" contract exactly: the counter must advance per
// executed event, not per peek, so the first poll lands after event
// number cancelCheckEvery — no earlier, no later.
func TestRunContextPollCadence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One more event than the poll interval, cancellation raised by the
	// first event: exactly cancelCheckEvery events run before the poll
	// aborts the rest.
	e := New()
	fired := 0
	e.Schedule(0, func() { cancel() })
	for i := 1; i <= cancelCheckEvery; i++ {
		e.Schedule(Time(i), func() { fired++ })
	}
	if err := e.RunContext(ctx, Time(cancelCheckEvery)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fired != cancelCheckEvery-1 {
		t.Errorf("fired = %d events before the first poll, want %d", fired, cancelCheckEvery-1)
	}
	if e.Len() != 1 {
		t.Errorf("pending = %d, want 1 (the event past the first poll)", e.Len())
	}

	// One event fewer and the poll never fires: the run completes and
	// returns nil despite the cancelled context. If peeks leaked into the
	// counter (the old off-by-one), the final out-of-window peek would
	// trip a poll here and misreport cancellation.
	e2 := New()
	fired2 := 0
	ctx2, cancel2 := context.WithCancel(context.Background())
	e2.Schedule(0, func() { cancel2() })
	for i := 1; i < cancelCheckEvery-1; i++ {
		e2.Schedule(Time(i), func() { fired2++ })
	}
	if err := e2.RunContext(ctx2, 1<<40); err != nil {
		t.Fatalf("err = %v, want nil (cancellation seen only at poll boundaries)", err)
	}
	if fired2 != cancelCheckEvery-2 {
		t.Errorf("fired = %d, want %d (whole queue)", fired2, cancelCheckEvery-2)
	}
}

func TestRunContextDeadlineExceeded(t *testing.T) {
	e := New()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// An endless event chain: without the deadline this would never stop
	// before the huge horizon.
	var tick func()
	tick = func() { e.Schedule(1, tick) }
	e.Schedule(1, tick)
	err := e.RunContext(ctx, 1<<40)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
