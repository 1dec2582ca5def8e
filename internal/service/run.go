package service

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
)

// Run is one stored execution: a stable identity, a lifecycle status, a
// replayable typed event stream, a cancel switch and an awaitable
// result. All methods are safe for concurrent use.
//
// A run may execute more than once: when a worker's claim goes stale
// (crashed process, wedged fleet member) the reconciler re-queues the
// run for a fresh attempt. Attempts are numbered by a generation
// counter (gen); events, heartbeats and results from a superseded
// attempt are dropped, so a zombie worker finishing late can never
// clobber the retry's state.
type Run struct {
	id, key, kind, label string
	seq                  int64
	task                 Task
	sink                 events.Sink
	svc                  *Service
	created              time.Time
	// spec is the serialized submission a restart rehydrates the task
	// from; empty means the run is not crash-recoverable.
	spec []byte
	// transient marks inline runs: they execute on their caller's
	// goroutine under the caller's context, so they are neither
	// persisted nor lease-managed.
	transient bool

	// joins counts submissions that attached to this run after the one
	// that created it (dedup reuses and cache hits).
	joins atomic.Int64

	memoOnce sync.Once
	memo     any

	mu     sync.Mutex
	ctx    context.Context //dclint:allow ctxfirst -- the current attempt's execution context by design: runs outlive the submitting call and are canceled via cancel
	cancel context.CancelCauseFunc
	// gen is the attempt generation: bumped by every requeue, compared
	// by everything an attempt reports back.
	gen int
	// retries counts requeues (bounded by Config.MaxRetries).
	retries int
	// worker and lastBeat describe the current claim ("" when not
	// running); the reconciler re-queues the run once lastBeat ages
	// past the lease TTL.
	worker   string
	lastBeat time.Time
	status   Status
	started  time.Time
	finished time.Time
	events   []events.Event
	wake     chan struct{} // closed and replaced on every append
	result   any
	err      error

	done chan struct{} // closed once terminal
}

// ID returns the run's stable identity.
func (r *Run) ID() string { return r.id }

// Key returns the content hash the run deduplicates under ("" for
// inline runs).
func (r *Run) Key() string { return r.key }

// Kind returns the request kind ("system", "scenario", "suite").
func (r *Run) Kind() string { return r.kind }

// Label returns the human-readable description.
func (r *Run) Label() string { return r.label }

// Status returns the current lifecycle state.
func (r *Run) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Retries reports how many times the run has been re-queued after a
// stale worker claim (including a crash-recovery resume).
func (r *Run) Retries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// terminalSince returns the status and, when terminal, the finish time.
func (r *Run) terminalSince() (Status, time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, r.finished
}

// Done returns a channel closed when the run reaches a terminal status.
func (r *Run) Done() <-chan struct{} { return r.done }

// Joins reports how many submissions attached to this run beyond the
// one that created it. A positive count means the run's result (and its
// cancellation) is shared.
func (r *Run) Joins() int64 { return r.joins.Load() }

// Memo caches a derived view of the terminal result (a wire rendering,
// say): build runs at most once per run, and every caller shares the
// value. Call only after Done — the result is immutable then.
func (r *Run) Memo(build func(result any) any) any {
	r.memoOnce.Do(func() { r.memo = build(r.result) })
	return r.memo
}

// Err returns the terminal error (nil before completion and on success).
func (r *Run) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Cancel aborts the run: a queued run finishes canceled without
// executing, a running run's context is canceled (the simulation
// observes it and returns an error wrapping context.Canceled), and a
// terminal run is unaffected. Cancel is idempotent and returns without
// waiting; receive on Done to wait for the abort to land.
func (r *Run) Cancel() {
	r.mu.Lock()
	cancel := r.cancel
	r.mu.Unlock()
	cancel(ErrCanceled)
	// A queued run has no executing goroutine to notice the canceled
	// context; finalize it here so waiters are released immediately. The
	// check-and-finish is atomic (finishIfQueued holds the lock across
	// both), so a worker that already started the task wins and the
	// task's own return records the terminal state instead.
	r.finishIfQueued(fmt.Errorf("service: run %s canceled while queued: %w", r.id, context.Canceled))
}

// CancelIfSole cancels the run only when no other submission shares
// it, atomically with respect to dedup joins; it reports whether the
// cancellation (or nothing, for terminal runs) applied. See
// Service.cancelIfSole.
func (r *Run) CancelIfSole() bool { return r.svc.cancelIfSole(r) }

// Result blocks until the run is terminal (or ctx is done) and returns
// the task's result and error. The wait is bounded by the caller's ctx
// only; abandoning the wait does not cancel the run.
func (r *Run) Result(ctx context.Context) (any, error) {
	select {
	case <-r.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, r.err
}

// Info is a JSON-friendly snapshot of a run.
type Info struct {
	ID     string `json:"id"`
	Kind   string `json:"kind,omitempty"`
	Label  string `json:"label,omitempty"`
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`
	// Deduped is filled by callers that track per-submission reuse; the
	// run itself does not know how many submissions share it.
	Deduped bool `json:"deduped,omitempty"`
	// Retries counts stale-claim requeues (crash-recovery resumes
	// included); MaxRetries of them park the run in dead_letter.
	Retries  int        `json:"retries,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Events   int        `json:"events"`
}

// Snapshot captures the run's current state.
func (r *Run) Snapshot() Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := Info{
		ID: r.id, Kind: r.kind, Label: r.label,
		Status: r.status, Retries: r.retries,
		Created: r.created, Events: len(r.events),
	}
	if r.err != nil {
		info.Error = r.err.Error()
	}
	if !r.started.IsZero() {
		t := r.started
		info.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		info.Finished = &t
	}
	return info
}

// Events returns a channel that first replays every event the run has
// already recorded and then follows live emissions. The channel closes
// once the run is terminal and every event has been delivered, or when
// ctx is done. Subscribing to a finished run replays its full history.
func (r *Run) Events(ctx context.Context) <-chan events.Event {
	out := make(chan events.Event)
	go func() {
		defer close(out)
		i := 0
		for {
			r.mu.Lock()
			pending := r.events[i:]
			wake := r.wake
			terminal := r.status.Terminal()
			r.mu.Unlock()
			for _, ev := range pending {
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
			}
			i += len(pending)
			if terminal {
				// finish appends its final event before flipping the
				// status, both under the lock, so a terminal snapshot
				// with all events delivered is complete.
				return
			}
			select {
			case <-wake:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// appendEvent records ev in the replay buffer and wakes subscribers.
// Events arriving after the run turned terminal are dropped (tasks
// cannot emit after returning; this only guards misuse).
func (r *Run) appendEvent(ev events.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status.Terminal() {
		return
	}
	r.appendEventLocked(ev)
}

// appendEventFrom is appendEvent for a specific attempt: events from a
// superseded (requeued-over) attempt are dropped so a zombie worker
// cannot interleave its progress into the retry's stream. It reports
// whether the event was recorded (the caller tees it onward only then).
func (r *Run) appendEventFrom(gen int, ev events.Event) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status.Terminal() || r.gen != gen {
		return false
	}
	r.appendEventLocked(ev)
	return true
}

// appendEventLocked records and wakes. Caller holds r.mu.
func (r *Run) appendEventLocked(ev events.Event) {
	r.events = append(r.events, ev)
	close(r.wake)
	r.wake = make(chan struct{})
}

// begin moves Queued to Running for a new attempt under worker's claim;
// ok is false if the run is no longer queued (canceled while queued, or
// already claimed). The returned generation and context identify the
// attempt: everything the worker reports back is guarded by them.
func (r *Run) begin(worker string, now time.Time) (gen int, ctx context.Context, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status != StatusQueued {
		return 0, nil, false
	}
	r.status = StatusRunning
	r.worker = worker
	r.lastBeat = now
	r.started = now
	return r.gen, r.ctx, true
}

// beat refreshes the attempt's lease; false once the attempt is
// superseded or the run left Running (the heartbeat loop exits then).
func (r *Run) beat(gen int, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gen != gen || r.status != StatusRunning {
		return false
	}
	r.lastBeat = now
	return true
}

// claimStale reports whether the run holds a worker claim whose lease
// has aged out.
func (r *Run) claimStale(now time.Time, ttl time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status == StatusRunning && r.worker != "" && now.Sub(r.lastBeat) >= ttl
}

// requeueStale atomically returns a stale-claimed run to Queued for a
// fresh attempt: the generation advances (orphaning the zombie
// attempt), the old context is canceled with cause, and a new context
// is derived from base. It re-checks staleness under the lock, so a
// heartbeat racing the reconciler wins.
func (r *Run) requeueStale(base context.Context, now time.Time, ttl time.Duration, reason string, cause error) (retries int, ok bool) {
	r.mu.Lock()
	if r.status != StatusRunning || r.worker == "" || now.Sub(r.lastBeat) < ttl {
		r.mu.Unlock()
		return 0, false
	}
	r.gen++
	r.retries++
	retries = r.retries
	oldCancel := r.cancel
	r.ctx, r.cancel = context.WithCancelCause(base)
	r.status = StatusQueued
	r.worker = ""
	r.started = time.Time{}
	r.appendEventLocked(events.RunRequeued{ID: r.id, Retries: retries, Reason: reason})
	r.mu.Unlock()
	oldCancel(cause)
	return retries, true
}

// runTask executes the attempt's task with a sink that records into the
// replay buffer and tees to the request's synchronous sink (both
// guarded by the attempt generation). A panicking task fails the run
// instead of killing the worker.
func (r *Run) runTask(gen int, ctx context.Context) (res any, err error) {
	r.mu.Lock()
	task, tee := r.task, r.sink
	r.mu.Unlock()
	sink := events.Sink(func(ev events.Event) {
		if r.appendEventFrom(gen, ev) {
			tee.Emit(ev)
		}
	})
	defer func() {
		if p := recover(); p != nil {
			// The stack would otherwise be lost to the recover: a
			// long-lived service has no crashing process to dump it.
			err = fmt.Errorf("service: run %s panicked: %v\n%s", r.id, p, debug.Stack())
		}
	}()
	return task(ctx, sink)
}

// statusAuto tells finishAs to infer Done/Failed/Canceled from the
// error and context; any other value forces that terminal status.
const statusAuto Status = -1

// finish records the terminal state exactly once, with no attempt
// guard (cancellation, shutdown and recovery paths).
func (r *Run) finish(res any, err error) {
	r.finishAs(statusAuto, res, err, false, 0)
}

// finishAttempt is finish for a worker's attempt: a superseded attempt
// (the reconciler requeued the run meanwhile) is dropped.
func (r *Run) finishAttempt(gen int, res any, err error) {
	r.finishAs(statusAuto, res, err, false, gen)
}

// finishIfQueued finishes the run only if no worker has begun it: the
// queued-status check and the terminal transition happen under one
// lock, so it cannot race begin into finishing an executing task.
func (r *Run) finishIfQueued(err error) bool {
	return r.finishAs(statusAuto, nil, err, true, 0)
}

// finishAs is the one terminal transition: status (inferred or forced),
// result and error, the closing RunFinished event (preceded by
// RunDeadLettered when the reconciler gave up on the run), the done
// signal and the service-side retirement. gen != 0 restricts the finish
// to that attempt generation; onlyQueued restricts it to unclaimed runs.
func (r *Run) finishAs(forced Status, res any, err error, onlyQueued bool, gen int) bool {
	r.mu.Lock()
	if r.status.Terminal() || (onlyQueued && r.status != StatusQueued) || (gen != 0 && gen != r.gen) {
		r.mu.Unlock()
		return false
	}
	st := forced
	if st == statusAuto {
		st = StatusDone
		if err != nil {
			if r.ctx.Err() != nil {
				st = StatusCanceled
			} else {
				st = StatusFailed
			}
		}
	}
	r.result, r.err = res, err
	r.status = st
	r.worker = ""
	r.finished = r.svc.cfg.Now()
	if st == StatusDeadLetter {
		r.events = append(r.events, events.RunDeadLettered{ID: r.id, Retries: r.retries, Err: err})
	}
	r.events = append(r.events, events.RunFinished{ID: r.id, Status: st.String(), Err: err})
	// The task closure captures the submitted workloads (possibly
	// millions of jobs); the run outlives execution by the TTL, so drop
	// everything the stored record no longer needs.
	r.task, r.sink = nil, nil
	close(r.wake)
	r.wake = make(chan struct{})
	cancel := r.cancel
	// Close done before unlocking, so whoever has seen the terminal
	// status or the end of an event stream also sees Done closed.
	close(r.done)
	r.mu.Unlock()
	cancel(nil) // release the context's resources
	r.svc.retire(r, st, res, err)
	return true
}
