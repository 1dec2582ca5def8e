package dawningcloud

// This file is the asynchronous half of the public run API: SubmitRequest
// (the union of everything the engine can execute), RunHandle (a
// submitted run's identity, status, event stream, cancel switch and
// awaitable result) and the Engine.Submit entry point's supporting
// types. The blocking methods in engine.go are thin wrappers over the
// same lifecycle; cmd/dcserve exposes it over HTTP.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/synth"
	"repro/internal/systems"
)

// RunStatus is a submitted run's lifecycle state: queued, running, done,
// failed, canceled or dead_letter.
type RunStatus = service.Status

// The run lifecycle states.
const (
	// RunStatusQueued: accepted, waiting for a worker slot.
	RunStatusQueued = service.StatusQueued
	// RunStatusRunning: executing.
	RunStatusRunning = service.StatusRunning
	// RunStatusDone: finished successfully; Result is available.
	RunStatusDone = service.StatusDone
	// RunStatusFailed: finished with a non-cancellation error.
	RunStatusFailed = service.StatusFailed
	// RunStatusCanceled: aborted by Cancel or engine shutdown.
	RunStatusCanceled = service.StatusCanceled
	// RunStatusDeadLetter: abandoned by the self-healing fleet after
	// the run's worker claim went stale more than MaxRetries times.
	RunStatusDeadLetter = service.StatusDeadLetter
)

// ParseRunStatus maps a wire-form status string ("queued", "running",
// "done", "failed", "canceled", "dead_letter") back to its RunStatus.
// dcserve's ?status= filter routes through it.
func ParseRunStatus(s string) (RunStatus, error) { return service.ParseStatus(s) }

// Submission-path sentinel errors, re-exported for errors.Is.
var (
	// ErrBusy rejects a submission when the run queue is full;
	// back off and retry.
	ErrBusy = service.ErrBusy
	// ErrShutdown rejects submissions after Engine.Shutdown.
	ErrShutdown = service.ErrShutdown
)

// SubmitRequest is the union of everything the engine can execute
// asynchronously. Exactly one of the three request forms must be set:
//
//   - System + Workloads: one simulation of a registered system
//     (options via WithOptions/WithSeed);
//   - Scenario: a declarative n-provider × m-system study
//     (inner concurrency via WithWorkers);
//   - Experiments: paper-evaluation artifacts by ID ("all",
//     "extensions", or any of table1..table4, fig9..fig14, tco,
//     ext-scale, ext-backfill, ext-provision), built from a suite with
//     the request's Seed and Days.
//
// Submitted workloads and scenario specs must be treated as read-only
// until the run is terminal: the run may execute at any time on a
// service worker.
type SubmitRequest struct {
	// System names a registered system (case-insensitive).
	System string
	// Workloads is the provider set for a System run.
	Workloads []Workload
	// Scenario is a parsed scenario spec (LoadScenario/ParseScenario).
	Scenario *Scenario
	// Experiments lists paper-evaluation artifact IDs.
	Experiments []string
	// Seed drives suite workload generation for Experiments requests
	// (0 means 42, the paper's seed).
	Seed int64
	// Days is the suite trace window for Experiments requests
	// (0 means 14, the paper's two weeks; at most 3,650, synth.MaxDays).
	Days int
}

// RunResult is the union of a finished run's output; the field matching
// the request form is set.
type RunResult struct {
	// Result is a System run's report.
	Result Result
	// Report is a Scenario run's structured report.
	Report *ScenarioReport
	// Artifacts are an Experiments run's rendered tables and figures.
	Artifacts []Artifact
}

// RunInfo is a JSON-friendly snapshot of a submitted run (identity,
// status, timestamps, event count).
type RunInfo = service.Info

// ServiceStats snapshots the engine's run-service counters: submissions,
// executions, cache hits, in-flight dedup joins, evictions and current
// queue occupancy. Submitted - Executed is the work the dedup/cache
// layer absorbed.
type ServiceStats = service.Stats

// RunHandle is one submission's view of a run: a stable ID, the live
// status, a replayable typed event stream, a cancel switch and the
// awaitable result. Identical submissions (equal content hashes) share
// one underlying run — their handles carry the same ID, and Deduped
// reports whether this particular submission attached to pre-existing
// work. All methods are safe for concurrent use.
type RunHandle struct {
	run     *service.Run
	reused  bool
	resolve func(any) RunResult
}

// ID returns the run's stable identity (shared by deduplicated
// submissions of identical requests).
func (h *RunHandle) ID() string { return h.run.ID() }

// Kind reports the request form: "system", "scenario" or "suite".
func (h *RunHandle) Kind() string { return h.run.Kind() }

// Label returns the run's human-readable description.
func (h *RunHandle) Label() string { return h.run.Label() }

// Status returns the run's current lifecycle state.
func (h *RunHandle) Status() RunStatus { return h.run.Status() }

// Deduped reports whether this submission attached to an identical run
// that already existed (in flight or finished) instead of starting a
// new execution.
func (h *RunHandle) Deduped() bool { return h.reused }

// Submissions reports how many submissions share this run (1 when no
// identical request ever deduplicated onto it). dcserve refuses to
// cancel runs shared by several submissions.
func (h *RunHandle) Submissions() int { return int(h.run.Joins()) + 1 }

// ResultView returns a memoized derived view of a finished run's
// result: build runs at most once per run (not per handle), and every
// caller shares the value — dcserve uses it so rendering a report
// happens once, not on every poll. Call only on a RunStatusDone run.
func (h *RunHandle) ResultView(build func(RunResult) any) any {
	return h.run.Memo(func(v any) any { return build(h.resolve(v)) })
}

// Retries reports how many times the run was re-queued after a stale
// worker claim (crash-recovery resumes included); MaxRetries of them
// park the run in RunStatusDeadLetter.
func (h *RunHandle) Retries() int { return h.run.Retries() }

// Done returns a channel closed when the run reaches a terminal status.
func (h *RunHandle) Done() <-chan struct{} { return h.run.Done() }

// Err returns the terminal error (nil before completion and on
// success).
func (h *RunHandle) Err() error { return h.run.Err() }

// Snapshot captures the run's current state for logs or JSON.
func (h *RunHandle) Snapshot() RunInfo {
	info := h.run.Snapshot()
	info.Deduped = h.reused
	return info
}

// Cancel aborts the run: a queued run finishes canceled without
// executing; a running simulation observes its canceled context and
// returns promptly with an error wrapping context.Canceled. Cancel is
// idempotent, a no-op on terminal runs, and returns without waiting —
// receive on Done to wait for the abort to land. Note that canceling
// cancels the shared run, affecting every submission deduplicated onto
// it; use CancelIfSole to protect shared work.
func (h *RunHandle) Cancel() { h.run.Cancel() }

// CancelIfSole cancels the run only when this is its sole submission,
// atomically with respect to concurrent dedup joins — a submission
// joining the run just before the cancel blocks it. It reports whether
// the cancel applied (true, vacuously, for terminal runs). dcserve's
// DELETE uses it so one tenant cannot destroy deduplicated work others
// wait on.
func (h *RunHandle) CancelIfSole() bool { return h.run.CancelIfSole() }

// Result blocks until the run is terminal (or ctx is done) and returns
// its output. The wait is bounded by the caller's ctx only; abandoning
// the wait does not cancel the run.
func (h *RunHandle) Result(ctx context.Context) (RunResult, error) {
	v, err := h.run.Result(ctx)
	if err != nil {
		return RunResult{}, err
	}
	return h.resolve(v), nil
}

// Events returns a channel that first replays every event the run has
// recorded and then follows live emissions. The channel closes once the
// run is terminal and fully delivered, or when ctx is done. Streams are
// lossless: a subscriber joining late still sees the full history, and
// the last event is always a RunFinishedEvent.
func (h *RunHandle) Events(ctx context.Context) <-chan Event {
	return h.run.Events(ctx)
}

// Subscribe feeds the run's event stream (history, then live) to fn on
// a dedicated goroutine until the run is terminal and fully delivered.
// The returned stop function detaches early and waits for the delivery
// goroutine to exit; after the run is terminal, stop returns once every
// buffered event has been delivered.
func (h *RunHandle) Subscribe(fn func(Event)) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background()) //dclint:allow ctxfirst -- subscription lifetime is bounded by the returned stop(), not a caller ctx
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range h.run.Events(ctx) {
			fn(ev)
		}
	}()
	return func() {
		select {
		case <-h.run.Done():
			// Terminal: let the stream drain to its natural close so no
			// buffered event is lost, then return.
			<-done
			cancel()
		default:
			cancel()
			<-done
		}
	}
}

// RunQueuedEvent and RunFinishedEvent frame a submitted run's stream:
// the first event on every handle announces admission with the run ID,
// and the last carries the terminal status. (RunCompletedEvent, by
// contrast, reports one simulation inside the run.)
type (
	// RunQueuedEvent announces a submission accepted into the run
	// service.
	RunQueuedEvent = events.RunQueued
	// RunRequeuedEvent announces the self-healing path: a run whose
	// worker claim went stale returned to the queue for a new attempt.
	RunRequeuedEvent = events.RunRequeued
	// RunDeadLetteredEvent reports a run abandoned after MaxRetries
	// stale claims; a RunFinishedEvent with status "dead_letter"
	// follows it.
	RunDeadLetteredEvent = events.RunDeadLettered
	// RunFinishedEvent closes a run's stream with its terminal status.
	RunFinishedEvent = events.RunFinished
)

// buildRequest validates the union, derives the content hash and
// constructs the service request. cfg.workers feeds the inner
// concurrency of scenario and suite runs; cfg.opts/seed feed system
// runs; cfg.sink receives the task's events synchronously. A scenario
// with live providers additionally returns the run's task feed — the
// producer half of its live sources — for Submit to register under the
// run ID.
func (e *Engine) buildRequest(req SubmitRequest, cfg runConfig) (service.Request, *stream.Feed, error) {
	forms := 0
	if req.System != "" {
		forms++
	}
	if req.Scenario != nil {
		forms++
	}
	if len(req.Experiments) > 0 {
		forms++
	}
	if forms != 1 {
		return service.Request{}, nil, fmt.Errorf(
			"dawningcloud: submit: exactly one of System, Scenario or Experiments must be set (got %d)", forms)
	}
	switch {
	case req.System != "":
		sreq, err := e.buildSystemRequest(req, cfg)
		return sreq, nil, err
	case req.Scenario != nil:
		return e.buildScenarioRequest(req, cfg)
	default:
		sreq, err := e.buildSuiteRequest(req, cfg)
		return sreq, nil, err
	}
}

func (e *Engine) buildSystemRequest(req SubmitRequest, cfg runConfig) (service.Request, error) {
	runner, canonical, err := e.reg.Resolve(req.System)
	if err != nil {
		return service.Request{}, fmt.Errorf("dawningcloud: %w", err)
	}
	if len(req.Workloads) == 0 {
		return service.Request{}, fmt.Errorf("dawningcloud: submit %s: no workloads", canonical)
	}
	workloads := req.Workloads
	opts := cfg.opts
	h := service.NewHasher("system", canonical)
	// Like Params below, Options is a flat value struct: its printed
	// form covers every field, so future Options fields can never be
	// silently excluded from the dedup identity.
	h.Str(fmt.Sprintf("%#v", opts))
	for i := range workloads {
		hashWorkload(h, &workloads[i])
	}
	var spec []byte
	if e.persistSpecs() {
		if spec, err = specForSystem(canonical, workloads, cfg); err != nil {
			return service.Request{}, fmt.Errorf("dawningcloud: submit %s: persist spec: %w", canonical, err)
		}
	}
	return service.Request{
		Key:   h.Sum(),
		Kind:  "system",
		Label: fmt.Sprintf("system %s (%d providers)", canonical, len(workloads)),
		Spec:  spec,
		Sink:  cfg.sink,
		// Asynchronous runs clone at execution time: the run may start
		// long after Submit returned, and cloning inside the worker
		// isolates it from anything the caller does meanwhile.
		Task: systemTask(runner, canonical, workloads, opts, "", true),
	}, nil
}

// systemTask is the one execution body shared by the blocking Run path
// and the asynchronous Submit path: emit RunStarted, run, emit
// RunCompleted, wrap errors. Keeping a single copy is what the golden
// tests' blocking-vs-Submit equivalence rests on.
func systemTask(runner Runner, canonical string, workloads []Workload, opts Options, cell string, clone bool) service.Task {
	return func(ctx context.Context, sink events.Sink) (any, error) {
		wls := workloads
		if clone {
			wls = systems.CloneWorkloads(workloads)
		}
		sink.Emit(events.RunStarted{System: canonical, Providers: len(wls), Cell: cell})
		res, err := runner.Run(ctx, wls, opts)
		sink.Emit(events.RunCompleted{System: canonical, Cell: cell, Err: err, TotalNodeHours: res.TotalNodeHours})
		if err != nil {
			return nil, fmt.Errorf("dawningcloud: run %s: %w", canonical, err)
		}
		return res, nil
	}
}

func (e *Engine) buildScenarioRequest(req SubmitRequest, cfg runConfig) (service.Request, *stream.Feed, error) {
	spec := req.Scenario
	if err := spec.Validate(); err != nil {
		return service.Request{}, nil, err
	}
	// Scenario runs take every simulation knob from the spec; silently
	// dropping WithOptions/WithSeed here would hand a caller another
	// configuration's cached result.
	if cfg.opts != (Options{}) {
		return service.Request{}, nil, fmt.Errorf(
			"dawningcloud: submit scenario %s: WithOptions/WithSeed apply only to System requests (set seed, days and pool in the spec)", spec.Name)
	}
	// The spec is already canonical (defaults applied, validated), so its
	// JSON form is the content identity. Workers and sinks are execution
	// details and deliberately excluded: identical specs deduplicate to
	// one run regardless of how callers tuned their pools.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return service.Request{}, nil, fmt.Errorf("dawningcloud: submit scenario %s: %w", spec.Name, err)
	}
	workers := cfg.workers
	key := service.NewHasher("scenario").Str(string(specJSON)).Sum()
	var persisted []byte
	if e.persistSpecs() {
		if persisted, err = specForScenario(specJSON, cfg); err != nil {
			return service.Request{}, nil, fmt.Errorf("dawningcloud: submit scenario %s: persist spec: %w", spec.Name, err)
		}
	}
	task := func(ctx context.Context, sink events.Sink) (any, error) {
		return scenario.RunContext(ctx, spec, workers, sink)
	}
	live := spec.LiveProviders()
	var feed *stream.Feed
	if len(live) > 0 {
		// A live run owns its task feed, so two identical live specs are
		// different work: no dedup, no result cache. It is not
		// crash-recoverable either — the feed's buffered tasks die with
		// the process — so no spec is persisted and a durable service
		// fails a recovered live run as lost.
		key, persisted = "", nil
		feed = stream.NewFeed()
		for _, p := range live {
			if _, err := feed.Add(p.Name, spec.Stream.BufferTasks, p.FixedNodes); err != nil {
				return service.Request{}, nil, fmt.Errorf("dawningcloud: submit scenario %s: %w", spec.Name, err)
			}
		}
		f := feed
		task = func(ctx context.Context, sink events.Sink) (any, error) {
			c, err := scenario.Compile(spec)
			if err != nil {
				return nil, err
			}
			c.Sources = make(map[string]stream.Source, len(live))
			for _, p := range live {
				src, err := f.Get(p.Name)
				if err != nil {
					return nil, err
				}
				c.Sources[p.Name] = src
			}
			// A feeder blocked in a live source's Next cannot observe ctx;
			// cancellation must reach it through the feed.
			stop := context.AfterFunc(ctx, func() { f.FailAll(context.Cause(ctx)) })
			defer stop()
			return c.RunContext(ctx, workers, sink)
		}
	}
	return service.Request{
		Key:   key,
		Kind:  "scenario",
		Label: fmt.Sprintf("scenario %s", spec.Name),
		Spec:  persisted,
		Sink:  cfg.sink,
		Task:  task,
	}, feed, nil
}

func (e *Engine) buildSuiteRequest(req SubmitRequest, cfg runConfig) (service.Request, error) {
	if cfg.opts != (Options{}) {
		return service.Request{}, fmt.Errorf(
			"dawningcloud: submit experiments: WithOptions/WithSeed apply only to System requests (use SubmitRequest.Seed and Days)")
	}
	seed := req.Seed
	if seed == 0 {
		seed = 42
	}
	days := req.Days
	if days == 0 {
		days = 14
	}
	if days < 1 || days > synth.MaxDays {
		return service.Request{}, fmt.Errorf("dawningcloud: submit experiments: days %d outside [1,%d]", days, synth.MaxDays)
	}
	ids, err := experiments.ExpandArtifactIDs(req.Experiments)
	if err != nil {
		return service.Request{}, fmt.Errorf("dawningcloud: submit experiments: %w", err)
	}
	workers := cfg.workers
	h := service.NewHasher("suite").Int(seed).Int(int64(days))
	for _, id := range ids {
		h.Str(id)
	}
	var spec []byte
	if e.persistSpecs() {
		if spec, err = specForSuite(ids, seed, days, cfg); err != nil {
			return service.Request{}, fmt.Errorf("dawningcloud: submit experiments: persist spec: %w", err)
		}
	}
	return service.Request{
		Key:   h.Sum(),
		Kind:  "suite",
		Label: fmt.Sprintf("suite seed=%d days=%d [%s]", seed, days, strings.Join(ids, ",")),
		Spec:  spec,
		Sink:  cfg.sink,
		Task: func(ctx context.Context, sink events.Sink) (any, error) {
			suite := experiments.NewSuite(seed)
			suite.Days = days
			suite.Workers = workers
			suite.Events = sink
			return suite.ArtifactsByID(ctx, ids...)
		},
	}, nil
}

// hashWorkload folds a workload's full content identity into h: name,
// class, RE size, policy knobs and every job's fields.
func hashWorkload(h *service.Hasher, wl *Workload) {
	h.Str(wl.Name).Int(int64(wl.Class)).Int(int64(wl.FixedNodes))
	// Params is a flat value struct; its printed form covers every knob
	// without tracking field additions here.
	h.Str(fmt.Sprintf("%#v", wl.Params))
	h.Int(int64(len(wl.Jobs)))
	for i := range wl.Jobs {
		j := &wl.Jobs[i]
		h.Int(int64(j.ID)).Int(int64(j.Class)).Int(j.Submit).Int(j.Runtime).Int(int64(j.Nodes))
		h.Str(j.Name).Str(j.Workflow)
		h.Int(int64(len(j.Deps)))
		for _, d := range j.Deps {
			h.Int(int64(d))
		}
	}
}

// resolveResult wraps the service-layer result union into a RunResult.
func resolveResult(v any) RunResult {
	switch r := v.(type) {
	case systems.Result:
		return RunResult{Result: r}
	case *scenario.Report:
		return RunResult{Report: r}
	case []experiments.Artifact:
		return RunResult{Artifacts: r}
	default:
		return RunResult{}
	}
}
