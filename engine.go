package dawningcloud

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/runstore"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/systems"

	// The shipped registry extension: registers the "ssp-spot" system.
	_ "repro/internal/spot"
)

// Runner simulates one system over a workload set; implementing it is
// how new usage models plug into the Engine. Implementations must treat
// workloads as read-only, honor context cancellation (an aborted run
// returns an error wrapping ctx.Err()), and be safe for concurrent use.
type Runner = registry.Runner

// RunnerFunc adapts a plain function to the Runner interface.
type RunnerFunc = registry.Func

// Event is one progress notification from an observable run. The
// concrete types are RunStartedEvent, RunCompletedEvent,
// CellCompletedEvent and TableRenderedEvent.
type Event = events.Event

// The typed events an Engine (and the experiment suite and scenario
// runner) emit.
type (
	// RunStartedEvent announces one simulation starting.
	RunStartedEvent = events.RunStarted
	// RunCompletedEvent announces one simulation finishing.
	RunCompletedEvent = events.RunCompleted
	// CellCompletedEvent reports progress through a multi-cell study.
	CellCompletedEvent = events.CellCompleted
	// TableRenderedEvent announces a finished table or figure.
	TableRenderedEvent = events.TableRendered
)

// Engine runs registered systems by name. It wraps a system registry —
// DefaultEngine shares the process-wide one; NewEngine snapshots it —
// and executes runs through a shared run service: Submit starts work
// asynchronously and returns a RunHandle; the blocking methods (Run,
// RunAll, Sweep) are thin wrappers executing the same lifecycle inline
// on the caller's goroutine. Per-call functional options configure
// simulation options, worker counts, seeds and event sinks.
type Engine struct {
	reg *registry.Registry

	svcCfg  ServiceConfig
	store   RunStore
	svcOnce sync.Once
	svc     *service.Service

	// feeds maps live-fed run IDs to their runs and task feeds (the
	// producer half of the runs' live sources); entries live from Submit
	// until the run turns terminal.
	feedMu sync.Mutex
	feeds  map[string]liveRun
}

// liveRun is a live-fed run and its task feed.
type liveRun struct {
	run  *service.Run
	feed *stream.Feed
}

var defaultEngine = &Engine{reg: registry.Default}

// DefaultEngine returns the engine over the process-wide registry: the
// four paper systems, ssp-spot, and anything registered afterwards.
// Systems registered on it are visible to `dcsim -system` and scenario
// specs in the same process.
func DefaultEngine() *Engine { return defaultEngine }

// NewEngine returns an engine over an independent snapshot of the
// default registry: it starts with every currently registered system,
// and later registrations on either side stay isolated. Options
// configure the engine's run service (see WithServiceConfig).
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{reg: registry.Default.Snapshot()}
	for _, o := range opts {
		o(e)
	}
	return e
}

// EngineOption configures a new Engine.
type EngineOption func(*Engine)

// ServiceConfig tunes the engine's run service: the asynchronous
// lifecycle behind Submit (and, inline, behind the blocking methods).
// Zero fields take the documented defaults.
type ServiceConfig struct {
	// Workers bounds how many submitted runs execute concurrently
	// (default: all CPUs). It does not limit the blocking methods,
	// which execute on their caller's goroutine.
	Workers int
	// QueueDepth bounds how many submitted runs may wait for a worker;
	// a full queue rejects Submit with ErrBusy (default 256).
	QueueDepth int
	// TTL evicts finished runs from the store this long after
	// completion (default 15 minutes; negative keeps them forever).
	TTL time.Duration
	// MaxRuns caps the run store, evicting the oldest finished runs
	// beyond it (default 2048).
	MaxRuns int
	// WorkerID names this process's worker claims in a durable run
	// store (default "local"); see WithRunStore.
	WorkerID string
	// LeaseTTL is how stale a running run's heartbeat may grow before
	// the service's reconciler treats its worker as lost and re-queues
	// the run (default 30s). HeartbeatEvery and ReconcileEvery default
	// to LeaseTTL/3 and LeaseTTL/2.
	LeaseTTL       time.Duration
	HeartbeatEvery time.Duration
	ReconcileEvery time.Duration
	// MaxRetries bounds self-healing: a run may be re-queued this many
	// times after stale claims; the next one dead-letters it (default
	// 3; negative means no retries).
	MaxRetries int
}

// WithServiceConfig sets the run-service tuning for a new engine.
// DefaultEngine uses the defaults; dcserve passes its flags through
// here.
func WithServiceConfig(cfg ServiceConfig) EngineOption {
	return func(e *Engine) { e.svcCfg = cfg }
}

// RunStore is the pluggable persistence layer behind the engine's run
// service. runstore.NewMem() (the default) keeps runs in memory;
// runstore.Open(runstore.Options{Dir: ...}) makes the engine
// crash-recoverable: every submission, claim, requeue and result is
// written through a checksummed WAL with snapshot compaction, and a
// restarted engine over the same directory resumes interrupted runs and
// serves finished results from disk.
type RunStore = runstore.Store

// WithRunStore plugs a persistence layer into a new engine's run
// service. The caller owns the store's lifecycle: open it before
// NewEngine, close it after Engine.Shutdown. Recovery happens when the
// run service first starts (first Submit/Handles/ServiceStats call).
func WithRunStore(store RunStore) EngineOption {
	return func(e *Engine) { e.store = store }
}

// runService returns the engine's run service, creating it on first
// use so engines that only ever resolve names own no extra state.
func (e *Engine) runService() *service.Service {
	e.svcOnce.Do(func() {
		e.svc = service.New(service.Config{
			Workers:        e.svcCfg.Workers,
			QueueDepth:     e.svcCfg.QueueDepth,
			TTL:            e.svcCfg.TTL,
			MaxRuns:        e.svcCfg.MaxRuns,
			WorkerID:       e.svcCfg.WorkerID,
			LeaseTTL:       e.svcCfg.LeaseTTL,
			HeartbeatEvery: e.svcCfg.HeartbeatEvery,
			ReconcileEvery: e.svcCfg.ReconcileEvery,
			MaxRetries:     e.svcCfg.MaxRetries,
			Store:          e.store,
			Rehydrate:      e.rehydrateTask,
			EncodeResult:   encodeRunResult,
			DecodeResult:   decodeRunResult,
		})
	})
	return e.svc
}

// persistSpecs reports whether submissions should carry a serialized
// spec for crash recovery. Only durable stores need one: serializing a
// million-job workload on every in-memory submission would be pure
// overhead.
func (e *Engine) persistSpecs() bool {
	return e.store != nil && e.store.Durable()
}

// Submit starts req asynchronously and returns its handle: a stable run
// ID, a live status, a replayable event stream, Cancel and Result. The
// engine deduplicates by content: submissions whose requests hash
// identically share one run (the handle's Deduped reports joining
// pre-existing work, and identical specs execute exactly once), and a
// finished run's result is served from cache until its TTL expires.
// Backpressure is explicit: a full queue fails fast with ErrBusy.
//
// ctx gates admission only; execution runs under the engine's own
// lifetime and stops via handle.Cancel or Engine.Shutdown. Bound the
// wait instead: h.Result(ctx) honors the caller's deadline.
func (e *Engine) Submit(ctx context.Context, req SubmitRequest, opts ...RunOption) (*RunHandle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := newRunConfig(opts)
	sreq, feed, err := e.buildRequest(req, cfg)
	if err != nil {
		return nil, err
	}
	run, reused, err := e.runService().Submit(sreq)
	if err != nil {
		return nil, fmt.Errorf("dawningcloud: submit: %w", err)
	}
	if feed != nil && !reused {
		e.registerFeed(run, feed)
	}
	return &RunHandle{run: run, reused: reused, resolve: resolveResult}, nil
}

// LiveFeed is the producer half of a live-fed run: one bounded
// LiveSource per live provider lane, shared between the run's compiled
// workloads (consumer side) and whatever pushes tasks in — dcserve's
// POST /v1/runs/{id}/tasks endpoint, or an in-process producer. Push
// tasks with Get(lane).TryPush/Push, end a lane with Close (buffered
// tasks still drain), end everything with CloseAll.
type LiveFeed = stream.Feed

// ErrRunTerminal is the error every lane of a live run's feed fails
// with once the run is terminal: a producer that obtained the feed just
// before the run finished learns that the run takes no more tasks
// (dcserve answers it with 409, like a POST to a finished run).
var ErrRunTerminal = errors.New("dawningcloud: run is terminal")

// registerFeed indexes a live run's task feed by run ID for Feed, and
// retires it when the run turns terminal: remaining producers get
// ErrRunTerminal instead of feeding a dead run.
func (e *Engine) registerFeed(run *service.Run, feed *stream.Feed) {
	id := run.ID()
	e.feedMu.Lock()
	if e.feeds == nil {
		e.feeds = make(map[string]liveRun)
	}
	e.feeds[id] = liveRun{run: run, feed: feed}
	e.feedMu.Unlock()
	go func() {
		<-run.Done()
		feed.FailAll(fmt.Errorf("%w: %s", ErrRunTerminal, id))
		e.feedMu.Lock()
		delete(e.feeds, id)
		e.feedMu.Unlock()
	}()
}

// Feed returns the live task feed of a run with live providers. ok is
// false for runs without one — no live providers, terminal, or evicted.
// A run is terminal here as soon as its result is, even before the
// feed's retirement has run.
func (e *Engine) Feed(id string) (*LiveFeed, bool) {
	e.feedMu.Lock()
	defer e.feedMu.Unlock()
	lr, ok := e.feeds[id]
	if !ok {
		return nil, false
	}
	select {
	case <-lr.run.Done():
		return nil, false
	default:
		return lr.feed, true
	}
}

// Handle returns the handle of a stored run by ID (previously submitted
// and not yet evicted).
func (e *Engine) Handle(id string) (*RunHandle, bool) {
	run, ok := e.runService().Get(id)
	if !ok {
		return nil, false
	}
	return &RunHandle{run: run, resolve: resolveResult}, true
}

// Handles lists the stored runs, newest first: everything submitted
// (or executed inline by the blocking methods) that has not aged out.
func (e *Engine) Handles() []*RunHandle {
	runs := e.runService().Runs()
	out := make([]*RunHandle, len(runs))
	for i, r := range runs {
		out[i] = &RunHandle{run: r, resolve: resolveResult}
	}
	return out
}

// HandlesBefore lists the stored runs older than the run with ID
// cursor, newest first — the resume point of a paged listing. ok is
// false when cursor names no stored run (evicted mid-pagination, or
// plain wrong). Cursor resolution goes through the service's ID index,
// so a full paged listing costs O(n), not O(n^2).
func (e *Engine) HandlesBefore(cursor string) (handles []*RunHandle, ok bool) {
	runs, ok := e.runService().RunsBefore(cursor)
	if !ok {
		return nil, false
	}
	out := make([]*RunHandle, len(runs))
	for i, r := range runs {
		out[i] = &RunHandle{run: r, resolve: resolveResult}
	}
	return out, true
}

// ServiceStats snapshots the run service's counters (submissions,
// executions, cache hits, dedup joins, queue occupancy).
func (e *Engine) ServiceStats() ServiceStats { return e.runService().Stats() }

// Shutdown stops accepting submissions, cancels every queued and
// running submitted run, and waits (bounded by ctx) for the service
// workers to exit. In-flight blocking calls execute under their own
// caller's context and are not interrupted.
func (e *Engine) Shutdown(ctx context.Context) error {
	return e.runService().Shutdown(ctx)
}

// Register adds a system under name (case-insensitively unique). The
// system is immediately runnable via Run, RunAll and Sweep; on the
// default engine it also becomes available to the CLIs and to scenario
// specs by name. A Runner runs blocking only: streamed and federated
// runs need a backend registered in internal/registry.
func (e *Engine) Register(name string, r Runner) error { return e.reg.Register(name, r) }

// MustRegister is Register, panicking on error.
func (e *Engine) MustRegister(name string, r Runner) { e.reg.MustRegister(name, r) }

// Systems lists the registered system names in registration order (the
// four paper systems first, in presentation order).
func (e *Engine) Systems() []string { return e.reg.Names() }

// Has reports whether name (case-insensitive) is registered.
func (e *Engine) Has(name string) bool { return e.reg.Has(name) }

// RunOption configures one Engine run. Options apply in order, so a
// later WithOptions overrides an earlier WithSeed's field and vice
// versa.
type RunOption func(*runConfig)

type runConfig struct {
	opts    Options
	workers int
	sink    events.Sink
}

// WithOptions sets the simulation options (horizon, pool capacity,
// provision policy, setup cost, seed) for the run.
func WithOptions(opts Options) RunOption {
	return func(c *runConfig) { c.opts = opts }
}

// WithWorkers bounds how many simulations run concurrently in RunAll and
// Sweep (0 = all CPUs). Single runs ignore it.
func WithWorkers(n int) RunOption {
	return func(c *runConfig) { c.workers = n }
}

// WithSeed sets the seed stochastic runners (e.g. ssp-spot's price
// process) derive their random state from. The four paper systems are
// deterministic and ignore it.
func WithSeed(seed int64) RunOption {
	return func(c *runConfig) { c.opts.Seed = seed }
}

// WithPartitions splits the run's providers onto n per-core kernel
// partitions advancing in lockstep (0 or 1 = serial, negative = one per
// CPU). A partitioned run's Result is byte-identical to the serial
// run's; runners fall back to serial whenever partitioning cannot
// preserve that (a capacity-bound shared pool, a single provider). A
// later WithOptions overrides it, like every run option.
func WithPartitions(n int) RunOption {
	return func(c *runConfig) { c.opts.Partitions = n }
}

// WithEvents subscribes fn to the run's progress stream (run started /
// completed, cell completed). fn may be called concurrently from worker
// goroutines and must be safe for concurrent use.
//
// On Submit, fn is attached to the execution itself, so it only
// observes runs this submission actually starts: a submission that
// deduplicates onto an already-running or cached identical run
// delivers nothing to fn. Subscribe on the returned handle instead —
// handle streams replay history and are shared by every submission of
// the run.
func WithEvents(fn func(Event)) RunOption {
	return func(c *runConfig) { c.sink = events.Sink(fn) }
}

func newRunConfig(opts []RunOption) runConfig {
	var c runConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Run simulates the named system over the workloads. The context cancels
// the simulation mid-run (an aborted run's error wraps ctx.Err());
// unknown names fail with the registry's available-system list.
// Workloads are treated as read-only; clone first (CloneWorkloads) if
// the caller mutates them concurrently.
//
// Run is a thin blocking wrapper over the Submit lifecycle: the
// simulation executes inline on the calling goroutine under ctx, the
// run is recorded in the engine's run store (visible via Handles), and
// events reach WithEvents sinks synchronously exactly as before. Use
// Submit for asynchronous execution, dedup/caching and streaming.
func (e *Engine) Run(ctx context.Context, system string, workloads []Workload, opts ...RunOption) (Result, error) {
	cfg := newRunConfig(opts)
	return e.runOne(ctx, system, workloads, cfg, "")
}

// runOne resolves and executes a single simulation inline through the
// run-service lifecycle, emitting its start/completion events
// synchronously to the configured sink.
func (e *Engine) runOne(ctx context.Context, system string, workloads []Workload, cfg runConfig, cell string) (Result, error) {
	runner, canonical, err := e.reg.Resolve(system)
	if err != nil {
		return Result{}, fmt.Errorf("dawningcloud: %w", err)
	}
	label := fmt.Sprintf("system %s (%d providers)", canonical, len(workloads))
	if cell != "" {
		label += " [" + cell + "]"
	}
	// Blocking callers own their workloads for the duration of the call
	// (RunAll and Sweep pre-clone per cell), so no execution-time clone —
	// exactly the pre-handle behavior.
	run, err := e.runService().RunInline(ctx, service.Request{
		Kind:  "system",
		Label: label,
		Sink:  cfg.sink,
		Task:  systemTask(runner, canonical, workloads, cfg.opts, cell, false),
	})
	if err != nil {
		return Result{}, fmt.Errorf("dawningcloud: %w", err)
	}
	// The inline run is terminal; read its result without re-entering
	// the caller's (possibly canceled) context.
	v, err := run.Result(context.Background()) //dclint:allow ctxfirst -- terminal-result read must not fail on the caller's already-canceled ctx
	if err != nil {
		return Result{}, err
	}
	return v.(Result), nil
}

// RunAll simulates several systems over the same workloads concurrently,
// bounded by WithWorkers. A nil or empty system list runs every
// registered system. Each run receives a deep clone of the workloads so
// no simulation aliases another's job slices, and results come back
// indexed like the (resolved) input regardless of completion order.
func (e *Engine) RunAll(ctx context.Context, sys []string, workloads []Workload, opts ...RunOption) ([]Result, error) {
	cfg := newRunConfig(opts)
	if len(sys) == 0 {
		sys = e.Systems()
	}
	results := make([]Result, len(sys))
	var done atomic.Int64
	err := par.ForEach(workers(cfg.workers), len(sys), func(i int) error {
		r, err := e.runOne(ctx, sys[i], systems.CloneWorkloads(workloads), cfg, "")
		if err != nil {
			return err
		}
		results[i] = r
		cfg.sink.Emit(events.CellCompleted{Index: int(done.Add(1)), Total: len(sys), Key: r.System})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SweepPoint is one B×R parameter combination's outcome in a Sweep. Both
// performance quantities are recorded separately so a sweep surface never
// splices incomparable units: Completed counts finished jobs (or workflow
// tasks) and TasksPerSecond is the MTC throughput (zero for HTC
// workloads).
type SweepPoint struct {
	B         int
	R         float64
	NodeHours float64
	// Completed is the number of jobs (HTC) or workflow tasks (MTC)
	// finished within the accounting window.
	Completed int
	// TasksPerSecond is the MTC throughput; it stays 0 for HTC
	// workloads rather than standing in for a job count.
	TasksPerSecond float64
	// Perf is the metric the corresponding paper figure plots, chosen
	// by workload class: Completed for HTC (Figures 9-10),
	// TasksPerSecond for MTC (Figure 11).
	Perf float64
}

// Sweep runs one system over the B×R policy grid for a single provider's
// workload in isolation — the paper's parameter-tuning methodology,
// generalized to any registered system. Grid points are independent
// simulations fanning out over WithWorkers; the returned slice is in
// b-major, r-minor order regardless of scheduling, and each point clones
// the base workload before retuning it.
func (e *Engine) Sweep(ctx context.Context, system string, base Workload, bs []int, rs []float64, opts ...RunOption) ([]SweepPoint, error) {
	cfg := newRunConfig(opts)
	if len(bs) == 0 || len(rs) == 0 {
		return nil, fmt.Errorf("dawningcloud: sweep needs at least one B and one R value")
	}
	points := make([]SweepPoint, len(bs)*len(rs))
	var done atomic.Int64
	err := par.ForEach(workers(cfg.workers), len(points), func(i int) error {
		b, r := bs[i/len(rs)], rs[i%len(rs)]
		wl := base.Clone()
		wl.Params.InitialNodes = b
		wl.Params.ThresholdRatio = r
		cell := fmt.Sprintf("B%d|R%g", b, r)
		res, err := e.runOne(ctx, system, []Workload{wl}, cfg, cell)
		if err != nil {
			return fmt.Errorf("dawningcloud: sweep %s B%d R%g: %w", base.Name, b, r, err)
		}
		p, ok := res.Provider(base.Name)
		if !ok {
			return fmt.Errorf("dawningcloud: sweep %s B%d R%g: provider missing from result", base.Name, b, r)
		}
		pt := SweepPoint{
			B:              b,
			R:              r,
			NodeHours:      p.NodeHours,
			Completed:      p.Completed,
			TasksPerSecond: p.TasksPerSecond,
			Perf:           float64(p.Completed),
		}
		if base.Class == MTC {
			pt.Perf = p.TasksPerSecond
		}
		points[i] = pt
		cfg.sink.Emit(events.CellCompleted{Index: int(done.Add(1)), Total: len(points), Key: cell})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}
