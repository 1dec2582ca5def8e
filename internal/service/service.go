// Package service is the run-lifecycle subsystem behind the public
// asynchronous API: a run store with stable identities, content-hash
// deduplication and result caching, a bounded worker queue with
// backpressure, TTL eviction of finished runs, crash recovery from a
// durable store, and graceful shutdown. cmd/dcserve exposes it over HTTP;
// the public Engine's blocking methods are thin wrappers over inline
// submissions to the same lifecycle.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/runstore"
)

// Status is a run's lifecycle state.
type Status int

const (
	// StatusQueued: accepted and waiting for a worker slot.
	StatusQueued Status = iota
	// StatusRunning: executing.
	StatusRunning
	// StatusDone: finished successfully; the result is available.
	StatusDone
	// StatusFailed: finished with an error other than cancellation.
	StatusFailed
	// StatusCanceled: aborted by Cancel or service shutdown.
	StatusCanceled
	// StatusDeadLetter: abandoned by the self-healing loop after the
	// run's worker claim went stale more than MaxRetries times. Terminal
	// and non-reusable, kept visible for operator inspection.
	StatusDeadLetter
)

// String returns the lowercase wire form ("queued", "running", ...).
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	case StatusDeadLetter:
		return "dead_letter"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ParseStatus inverts String: it maps a wire form back to the Status.
// It accepts exactly the strings String produces (API filters and
// durable-store recovery both route through it).
func ParseStatus(s string) (Status, error) {
	switch s {
	case "queued":
		return StatusQueued, nil
	case "running":
		return StatusRunning, nil
	case "done":
		return StatusDone, nil
	case "failed":
		return StatusFailed, nil
	case "canceled":
		return StatusCanceled, nil
	case "dead_letter":
		return StatusDeadLetter, nil
	default:
		return 0, fmt.Errorf("service: unknown status %q", s)
	}
}

// Terminal reports whether the run has finished (successfully or not).
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled || s == StatusDeadLetter
}

// MarshalJSON encodes the status as its wire string.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Sentinel errors of the submission path.
var (
	// ErrBusy: the queue is full; retry later (backpressure).
	ErrBusy = errors.New("service: queue full")
	// ErrShutdown: the service no longer accepts submissions.
	ErrShutdown = errors.New("service: shutting down")
	// ErrCanceled is the cancellation cause installed by Run.Cancel.
	ErrCanceled = errors.New("service: run canceled")
	// ErrLeaseExpired is the cancellation cause a requeued attempt's
	// context carries: the reconciler decided the claim was stale and
	// handed the run to a fresh attempt.
	ErrLeaseExpired = errors.New("service: worker lease expired")
)

// Task is the unit of work a run executes. It must honor ctx and may
// publish progress events to sink (never nil) from any goroutine.
type Task func(ctx context.Context, sink events.Sink) (any, error)

// Request describes one submission.
type Request struct {
	// Key is the request's content hash: submissions with equal non-empty
	// keys describe identical work and deduplicate onto one run. An empty
	// key disables dedup and caching for this run.
	Key string
	// Kind classifies the run for observers ("system", "scenario",
	// "suite").
	Kind string
	// Label is a human-readable description for listings and logs.
	Label string
	// Task executes the work.
	Task Task
	// Spec is the submission serialized well enough that
	// Config.Rehydrate can rebuild Task from it after a restart. Empty
	// means the run is not crash-recoverable: a durable service that
	// finds it queued or running at boot fails it as lost.
	Spec []byte
	// Sink, when non-nil, additionally receives the task's events
	// synchronously from the emitting goroutine (the run's own buffer
	// always records them). It must be safe for concurrent use.
	Sink events.Sink
}

// Config tunes a Service. The zero value takes the documented defaults.
type Config struct {
	// Workers bounds how many queued runs execute concurrently
	// (default: all CPUs). Inline runs execute on their caller's
	// goroutine and do not occupy a worker.
	Workers int
	// QueueDepth bounds how many submitted runs may wait for a worker;
	// a full queue rejects submissions with ErrBusy (default 256).
	QueueDepth int
	// TTL evicts finished runs from the store this long after they
	// complete (default 15 minutes; negative keeps them forever).
	TTL time.Duration
	// MaxRuns caps the store; the oldest finished runs are evicted
	// beyond it (default 2048).
	MaxRuns int
	// BaseContext is the parent of every queued run's context; its
	// cancellation aborts them all (default context.Background()).
	BaseContext context.Context //dclint:allow ctxfirst -- http.Server-style lifecycle config: the root every run context derives from
	// Now is the clock (default time.Now; tests override it to drive
	// TTL eviction and lease expiry deterministically).
	Now func() time.Time

	// Store persists the run lifecycle. Nil takes the in-memory store
	// (runstore.NewMem()): identical observable behavior, nothing
	// outlives the process. A durable store (runstore.Open) makes the
	// service crash-recoverable: New replays its state, resumes queued
	// and running runs, and serves finished results from disk.
	Store runstore.Store
	// Rehydrate rebuilds a submission's Task from its persisted Spec at
	// recovery ("scenario" from its definition, say). Nil means
	// recovered non-terminal runs fail as lost instead of resuming.
	Rehydrate func(kind string, spec []byte) (Task, error)
	// EncodeResult serializes a successful result for the durable
	// store; DecodeResult inverts it at recovery. Both nil is valid
	// (results then do not survive a restart: recovered done runs fail
	// as lost). Only consulted when Store is durable.
	EncodeResult func(kind string, result any) ([]byte, error)
	DecodeResult func(kind string, data []byte) (any, error)

	// WorkerID names this process's claims in the store (default
	// "local"). Operators running several dcserve processes against
	// distinct data dirs use it to tell fleets apart in listings.
	WorkerID string
	// LeaseTTL is how stale a running run's heartbeat may grow before
	// the reconciler treats its worker as lost and re-queues the run
	// (default 30s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the claim-refresh cadence while a task executes
	// (default LeaseTTL/3).
	HeartbeatEvery time.Duration
	// ReconcileEvery is the stale-claim scan cadence (default
	// LeaseTTL/2).
	ReconcileEvery time.Duration
	// MaxRetries bounds the self-healing loop: a run may be re-queued
	// this many times; the next stale claim dead-letters it instead
	// (default 3; negative means no retries — the first stale claim
	// dead-letters).
	MaxRetries int
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TTL == 0 {
		c.TTL = 15 * time.Minute
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 2048
	}
	if c.BaseContext == nil {
		c.BaseContext = context.Background() //dclint:allow ctxfirst -- default root when the operator configures no BaseContext
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Store == nil {
		c.Store = runstore.NewMem()
	}
	if c.WorkerID == "" {
		c.WorkerID = "local"
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.LeaseTTL / 3
	}
	if c.ReconcileEvery <= 0 {
		c.ReconcileEvery = c.LeaseTTL / 2
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
}

// Stats is a snapshot of the service's counters. Submitted counts every
// accepted submission; Executed counts task attempts actually run (a
// requeued run executes more than once), so Submitted - Executed is the
// work the dedup/cache layer absorbed, minus retry attempts.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Executed  int64 `json:"executed"`
	// CacheHits: submissions served by an already-finished identical run.
	CacheHits int64 `json:"cache_hits"`
	// Deduped: submissions attached to an identical in-flight run.
	Deduped int64 `json:"deduped"`
	Evicted int64 `json:"evicted"`

	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
	// DeadLetters: runs abandoned after MaxRetries stale claims.
	DeadLetters int64 `json:"dead_letters"`

	// RecoveredRuns: non-terminal runs resumed from the durable store at
	// boot. Requeues: stale claims returned to the queue (reconciler
	// requeues plus restart resumes of previously-running runs).
	RecoveredRuns int64 `json:"recovered_runs"`
	Requeues      int64 `json:"requeues"`

	// WALRecords and Snapshots mirror the persistence layer: total
	// write-ahead-log activity seen by the store (appends plus records
	// replayed at open) and compactions taken. Zero for the in-memory
	// store only until its first record.
	WALRecords int64 `json:"wal_records"`
	Snapshots  int64 `json:"snapshots"`
	// StoreErrors counts persistence appends that failed after the
	// submission was accepted (the run still completes in memory).
	StoreErrors int64 `json:"store_errors,omitempty"`

	// Queued/Running/Stored describe the store right now.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Stored  int `json:"stored"`

	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
}

// Service is the asynchronous run store: submissions become Runs with
// stable IDs, identical submissions share one execution, queued runs
// execute on a bounded worker pool, and finished runs age out after the
// configured TTL.
//
// Every lifecycle transition is recorded in the configured
// runstore.Store. With a durable store the service is crash-recoverable
// (see New) and self-healing: workers hold heartbeat-refreshed leases
// on the runs they execute, and a reconciler re-queues runs whose lease
// went stale — bounded by MaxRetries, beyond which the run is
// dead-lettered.
type Service struct {
	cfg        Config
	store      runstore.Store
	base       context.Context //dclint:allow ctxfirst -- service-lifetime root derived from Config.BaseContext at construction
	baseCancel context.CancelCauseFunc
	queue      chan *Run

	mu        sync.Mutex
	runs      map[string]*Run
	order     []*Run // insertion order, for listing and eviction
	byKey     map[string]*Run
	seq       int64
	closed    bool
	workersOn bool
	wg        sync.WaitGroup

	submitted, executed, cacheHits, deduped, evicted int64
	done, failed, canceled, deadLetters              int64
	recovered, requeues                              int64

	storeErrs atomic.Int64
}

// New builds a service. Workers start lazily on the first queued
// submission, so a service used only for inline runs owns no
// goroutines.
//
// When cfg.Store already holds state (a durable store reopened over an
// existing data dir), New recovers it before returning: terminal runs
// are rebuilt with their persisted results and a synthesized event
// history, non-terminal runs are rehydrated via cfg.Rehydrate and
// re-queued (previously-running ones count a retry — their worker died
// with the old process), and the worker pool starts immediately when
// anything resumed.
func New(cfg Config) *Service {
	cfg.applyDefaults()
	base, cancel := context.WithCancelCause(cfg.BaseContext)
	s := &Service{
		cfg:        cfg,
		store:      cfg.Store,
		base:       base,
		baseCancel: cancel,
		queue:      make(chan *Run, cfg.QueueDepth),
		runs:       make(map[string]*Run),
		byKey:      make(map[string]*Run),
	}
	s.recover()
	return s
}

// record persists a lifecycle transition, counting (not propagating)
// failures: the run proceeds in memory either way, and the operator
// sees store_errors climb on /healthz. The submission path is the
// exception — it propagates the append error so a caller is never told
// "accepted" for work the log never saw.
func (s *Service) record(rec *runstore.Record) {
	if err := s.store.Append(rec); err != nil {
		s.storeErrs.Add(1)
	}
}

// newRunLocked creates and stores a run record. Caller holds s.mu.
func (s *Service) newRunLocked(req Request, ctx context.Context, cancel context.CancelCauseFunc) *Run {
	s.seq++
	id := fmt.Sprintf("run-%06d", s.seq)
	if len(req.Key) >= 12 {
		id = fmt.Sprintf("%s-%06d", req.Key[:12], s.seq)
	}
	r := &Run{
		id:      id,
		seq:     s.seq,
		key:     req.Key,
		kind:    req.Kind,
		label:   req.Label,
		task:    req.Task,
		sink:    req.Sink,
		spec:    req.Spec,
		svc:     s,
		created: s.cfg.Now(),
		ctx:     ctx,
		cancel:  cancel,
		gen:     1,
		status:  StatusQueued,
		wake:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.runs[r.id] = r
	s.order = append(s.order, r)
	if req.Key != "" {
		s.byKey[req.Key] = r
	}
	return r
}

// Submit accepts a run for asynchronous execution and returns its
// handle. reused reports that an identical run (same Key) was already
// stored — in flight (dedup) or finished (cache hit) — and is being
// returned instead of a new execution. A full queue fails with ErrBusy;
// a shut-down service with ErrShutdown. With a durable store, Submit
// returns only after the submission is on disk — an accepted run
// survives a crash.
func (s *Service) Submit(req Request) (r *Run, reused bool, err error) {
	if req.Task == nil {
		return nil, false, fmt.Errorf("service: submit %q: nil task", req.Label)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrShutdown
	}
	s.submitted++
	s.evictLocked()
	if req.Key != "" {
		if prev, ok := s.byKey[req.Key]; ok {
			// Failed and canceled runs are not reusable: the next
			// identical submission executes afresh.
			switch prev.Status() {
			case StatusDone:
				s.cacheHits++
				prev.joins.Add(1)
				s.mu.Unlock()
				return prev, true, nil
			case StatusQueued, StatusRunning:
				s.deduped++
				prev.joins.Add(1)
				s.mu.Unlock()
				return prev, true, nil
			}
		}
	}
	ctx, cancel := context.WithCancelCause(s.base)
	r = s.newRunLocked(req, ctx, cancel)
	// Record RunQueued before the run becomes reachable by any worker:
	// the stream invariant is "run_queued first, run_finished last", and
	// appending after the enqueue would race a fast task's RunStarted
	// (or be dropped entirely by the terminal guard).
	r.appendEvent(events.RunQueued{ID: r.id, Label: r.label})
	// Persist before the enqueue makes the run visible to workers, so
	// the log never sees a claim for a run it does not know. An append
	// failure rejects the submission: better a retryable error now than
	// a run the store would not recover.
	if err := s.store.Append(&runstore.Record{
		Op: runstore.OpSubmit, ID: r.id, Seq: r.seq,
		Key: r.key, Kind: r.kind, Label: r.label,
		Spec: req.Spec, Created: r.created,
	}); err != nil {
		s.removeLocked(r)
		s.submitted--
		s.mu.Unlock()
		cancel(err)
		return nil, false, fmt.Errorf("service: submit %q: persist: %w", req.Label, err)
	}
	select {
	case s.queue <- r:
	default:
		s.removeLocked(r)
		s.submitted-- // rejected, not accepted
		s.record(&runstore.Record{Op: runstore.OpDrop, ID: r.id})
		s.mu.Unlock()
		cancel(ErrBusy)
		return nil, false, ErrBusy
	}
	s.startWorkersLocked()
	s.mu.Unlock()
	return r, false, nil
}

// RunInline executes req synchronously on the calling goroutine under
// the caller's own context, recording the run in the store like any
// other submission. Inline runs never deduplicate and are never served
// from cache: they exist so blocking callers (Engine.Run and friends)
// keep their exact pre-handle semantics — same goroutine, same context,
// events delivered synchronously — while still flowing through the run
// lifecycle. They are transient: never persisted (they die with their
// caller, so recovering one is meaningless) and never lease-managed.
// The returned run is terminal.
func (s *Service) RunInline(ctx context.Context, req Request) (*Run, error) {
	if req.Task == nil {
		return nil, fmt.Errorf("service: run %q: nil task", req.Label)
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel(ErrShutdown)
		return nil, ErrShutdown
	}
	s.evictLocked()
	req.Key = "" // inline runs are not shared
	r := s.newRunLocked(req, runCtx, cancel)
	r.transient = true
	s.mu.Unlock()
	r.appendEvent(events.RunQueued{ID: r.id, Label: r.label})
	s.execute(r)
	return r, nil
}

// startWorkersLocked launches the worker pool and the stale-claim
// reconciler once. Caller holds s.mu.
func (s *Service) startWorkersLocked() {
	if s.workersOn {
		return
	}
	s.workersOn = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.reconcileLoop()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case r := <-s.queue:
			s.execute(r)
		case <-s.base.Done():
			// Drain: finalize whatever is still queued so waiters are
			// released, then exit.
			for {
				select {
				case r := <-s.queue:
					r.finish(nil, fmt.Errorf("service: run %s aborted by shutdown: %w", r.id, context.Cause(s.base)))
				default:
					return
				}
			}
		}
	}
}

// enqueue hands a run to the worker pool. Unlike Submit's intake path,
// callers here (reconciler requeues, boot recovery) must not drop the
// run on a momentarily full queue — that would strand a persisted run
// as queued-forever — so overflow falls back to a goroutine that waits
// for a slot, bounded by the service lifetime.
func (s *Service) enqueue(r *Run) {
	select {
	case s.queue <- r:
	default:
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			select {
			case s.queue <- r:
			case <-s.base.Done():
				r.finishIfQueued(fmt.Errorf("service: run %s aborted by shutdown: %w", r.id, ErrShutdown))
			}
		}()
	}
}

// execute moves a run through Running to a terminal status, holding a
// heartbeat-refreshed claim for the attempt's duration (persisted runs
// only; inline runs are transient and lease-free).
func (s *Service) execute(r *Run) {
	worker := s.cfg.WorkerID
	if r.transient {
		worker = ""
	}
	now := s.cfg.Now()
	gen, ctx, ok := r.begin(worker, now)
	if !ok {
		return // canceled while queued
	}
	s.mu.Lock()
	s.executed++
	s.mu.Unlock()
	if !r.transient {
		s.record(&runstore.Record{Op: runstore.OpClaim, ID: r.id, Worker: worker, Attempt: gen, At: now})
		stop := s.startHeartbeat(r, gen, ctx)
		defer stop()
	}
	res, err := r.runTask(gen, ctx)
	r.finishAttempt(gen, res, err)
}

// startHeartbeat refreshes the attempt's claim every HeartbeatEvery
// until the attempt ends (its context is canceled on finish and on
// requeue) or the returned stop is called. Heartbeats mark liveness,
// they do not carry state, so the store may skip fsyncing them.
func (s *Service) startHeartbeat(r *Run, gen int, ctx context.Context) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(s.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				now := s.cfg.Now()
				if !r.beat(gen, now) {
					return // superseded or no longer running
				}
				s.record(&runstore.Record{Op: runstore.OpHeartbeat, ID: r.id, At: now})
			case <-ctx.Done():
				return
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

// Get returns the stored run with the given ID.
func (s *Service) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	r, ok := s.runs[id]
	return r, ok
}

// Runs lists the stored runs, newest first.
func (s *Service) Runs() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	out := make([]*Run, len(s.order))
	for i, r := range s.order {
		out[len(out)-1-i] = r
	}
	return out
}

// RunsBefore lists the stored runs strictly older than the run with ID
// cursor, newest first. ok is false when the cursor names no stored run
// (evicted or never existed). The cursor resolves through the ID index
// plus a binary search over the seq-sorted order — O(log n), not a scan
// — so paging through a large store stays linear overall.
func (s *Service) RunsBefore(cursor string) (runs []*Run, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	c, ok := s.runs[cursor]
	if !ok {
		return nil, false
	}
	// s.order is sorted by seq: runs append in issue order and recovery
	// replays the store's seq-sorted states, so c's position is the
	// unique index holding its seq.
	idx := sort.Search(len(s.order), func(i int) bool { return s.order[i].seq >= c.seq })
	out := make([]*Run, idx)
	for i, r := range s.order[:idx] {
		out[idx-1-i] = r
	}
	return out, true
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	storeStats := s.store.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Submitted: s.submitted, Executed: s.executed,
		CacheHits: s.cacheHits, Deduped: s.deduped, Evicted: s.evicted,
		Done: s.done, Failed: s.failed, Canceled: s.canceled,
		DeadLetters:   s.deadLetters,
		RecoveredRuns: s.recovered, Requeues: s.requeues,
		WALRecords: storeStats.WALRecords, Snapshots: storeStats.Snapshots,
		StoreErrors: s.storeErrs.Load(),
		Stored:      len(s.runs),
		Workers:     s.cfg.Workers, QueueDepth: s.cfg.QueueDepth,
	}
	for _, r := range s.order {
		switch r.Status() {
		case StatusQueued:
			st.Queued++
		case StatusRunning:
			st.Running++
		}
	}
	return st
}

// Shutdown stops intake, cancels every queued and running run, and waits
// (bounded by ctx) for the workers to exit. Inline runs execute under
// their caller's context and are unaffected. The store is not closed:
// its lifecycle belongs to whoever opened it. Shutdown is idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	pending := make([]*Run, 0, len(s.order))
	for _, r := range s.order {
		if !r.Status().Terminal() {
			pending = append(pending, r)
		}
	}
	s.mu.Unlock()

	s.baseCancel(ErrShutdown)
	for _, r := range pending {
		// Queued runs may sit in the channel with no worker ever
		// started; release their waiters directly. finishIfQueued is
		// atomic with begin, so a worker that already started the task
		// wins and the task finishes itself by observing the canceled
		// base context.
		r.finishIfQueued(fmt.Errorf("service: run %s aborted by shutdown: %w", r.id, ErrShutdown))
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown: %w", ctx.Err())
	}
}

// evictLocked drops finished runs past their TTL and, beyond MaxRuns,
// the oldest finished runs. Caller holds s.mu.
func (s *Service) evictLocked() {
	now := s.cfg.Now()
	keep := s.order[:0]
	for _, r := range s.order {
		drop := false
		if st, finished := r.terminalSince(); st.Terminal() {
			if s.cfg.TTL >= 0 && now.Sub(finished) >= s.cfg.TTL {
				drop = true
			}
		}
		if drop {
			s.dropLocked(r)
			continue
		}
		keep = append(keep, r)
	}
	s.order = keep
	for len(s.order) > s.cfg.MaxRuns {
		victim := -1
		for i, r := range s.order {
			if r.Status().Terminal() {
				victim = i
				break
			}
		}
		if victim < 0 {
			break // everything live; the queue bound caps this
		}
		r := s.order[victim]
		s.dropLocked(r)
		s.order = append(s.order[:victim], s.order[victim+1:]...)
	}
}

func (s *Service) dropLocked(r *Run) {
	delete(s.runs, r.id)
	if r.key != "" && s.byKey[r.key] == r {
		delete(s.byKey, r.key)
	}
	if !r.transient {
		// Evict from disk too, or the store would resurrect the run at
		// the next boot and re-grow without bound.
		s.record(&runstore.Record{Op: runstore.OpDrop, ID: r.id})
	}
	s.evicted++
}

// removeLocked undoes newRunLocked for a rejected submission.
func (s *Service) removeLocked(r *Run) {
	delete(s.runs, r.id)
	if r.key != "" && s.byKey[r.key] == r {
		delete(s.byKey, r.key)
	}
	if n := len(s.order); n > 0 && s.order[n-1] == r {
		s.order = s.order[:n-1]
	}
}

// cancelIfSole cancels r only when no other submission shares it,
// atomically with respect to dedup joins: the join count can only grow
// through Submit's byKey lookup under s.mu, so checking the count and
// retiring the key under the same lock guarantees no submission joins
// between the check and the cancellation. Terminal runs report true
// (nothing left to cancel). Used by dcserve's DELETE handler.
func (s *Service) cancelIfSole(r *Run) bool {
	s.mu.Lock()
	if r.Status().Terminal() {
		s.mu.Unlock()
		return true
	}
	if r.joins.Load() > 0 {
		s.mu.Unlock()
		return false
	}
	if r.key != "" && s.byKey[r.key] == r {
		delete(s.byKey, r.key)
	}
	s.mu.Unlock()
	r.Cancel()
	return true
}

// retire is called by Run.finishAs to persist the terminal record,
// update terminal counters and retire non-reusable keys so the next
// identical submission executes afresh.
func (s *Service) retire(r *Run, st Status, res any, err error) {
	if !r.transient {
		rec := &runstore.Record{
			Op: runstore.OpFinish, ID: r.id,
			Status: st.String(), At: s.cfg.Now(),
		}
		if err != nil {
			rec.Error = err.Error()
		}
		if st == StatusDone && s.store.Durable() && s.cfg.EncodeResult != nil {
			if data, encErr := s.cfg.EncodeResult(r.kind, res); encErr != nil {
				s.storeErrs.Add(1)
			} else {
				rec.Result = data
			}
		}
		s.record(rec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch st {
	case StatusDone:
		s.done++
	case StatusFailed:
		s.failed++
	case StatusCanceled:
		s.canceled++
	case StatusDeadLetter:
		s.deadLetters++
	}
	if st != StatusDone && r.key != "" && s.byKey[r.key] == r {
		delete(s.byKey, r.key)
	}
}
