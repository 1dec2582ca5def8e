package dawningcloud

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestEngine builds an isolated engine whose run service is torn
// down with the test.
func newTestEngine(t *testing.T, cfg ServiceConfig) *Engine {
	t.Helper()
	eng := NewEngine(WithServiceConfig(cfg))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	return eng
}

// blockingRunner registers a runner under name that signals started (if
// non-nil) and then blocks until its context is canceled.
func blockingRunner(t *testing.T, eng *Engine, name string, started chan<- struct{}) {
	t.Helper()
	eng.MustRegister(name, RunnerFunc(
		func(ctx context.Context, wls []Workload, opts Options) (Result, error) {
			if started != nil {
				started <- struct{}{}
			}
			<-ctx.Done()
			return Result{}, fmt.Errorf("%s aborted: %w", name, ctx.Err())
		}))
}

func montageOrDie(t *testing.T, seed int64) Workload {
	t.Helper()
	wl, err := MontageWorkload(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestSubmitSystemRunMatchesBlockingRun: the asynchronous Submit path
// and the blocking Run wrapper produce identical results for the same
// request — Run is a thin wrapper over the same lifecycle.
func TestSubmitSystemRunMatchesBlockingRun(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 2})
	wl := montageOrDie(t, 3)
	opts := Options{Horizon: 6 * 3600}

	blocking, err := eng.Run(context.Background(), "DCS", []Workload{wl.Clone()}, WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.Submit(context.Background(),
		SubmitRequest{System: "dcs", Workloads: []Workload{wl.Clone()}}, WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != "system" || h.ID() == "" {
		t.Errorf("handle kind/id: %q / %q", h.Kind(), h.ID())
	}
	res, err := h.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.System != "DCS" {
		t.Errorf("System = %q", res.Result.System)
	}
	if fmt.Sprintf("%+v", res.Result) != fmt.Sprintf("%+v", blocking) {
		t.Errorf("Submit result diverges from blocking Run:\n%+v\nvs\n%+v", res.Result, blocking)
	}
	if st := h.Status(); st != RunStatusDone {
		t.Errorf("status = %v, want done", st)
	}
}

// TestConcurrentSubmitIdenticalRequestsDedup is the handle-lifecycle
// satellite: concurrent Submits of identical requests dedup to one
// simulation — equal run IDs, one execution, the rest reported as
// deduped/cached by the service stats.
func TestConcurrentSubmitIdenticalRequestsDedup(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 4})
	var executions atomic.Int64
	release := make(chan struct{})
	eng.MustRegister("count-once", RunnerFunc(
		func(ctx context.Context, wls []Workload, opts Options) (Result, error) {
			executions.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
			return Result{System: "count-once", TotalNodeHours: 1}, nil
		}))
	wl := montageOrDie(t, 3)

	const n = 8
	handles := make([]*RunHandle, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := eng.Submit(context.Background(),
				SubmitRequest{System: "count-once", Workloads: []Workload{wl.Clone()}},
				WithOptions(Options{Horizon: 3600}))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			handles[i] = h
		}(i)
	}
	wg.Wait()
	close(release)
	for i, h := range handles {
		if h == nil {
			t.Fatalf("submit %d failed", i)
		}
		if h.ID() != handles[0].ID() {
			t.Fatalf("run IDs diverge: %q vs %q", h.ID(), handles[0].ID())
		}
		if _, err := h.Result(context.Background()); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("identical requests executed %d times, want exactly 1", got)
	}
	deduped := 0
	for _, h := range handles {
		if h.Deduped() {
			deduped++
		}
	}
	if deduped != n-1 {
		t.Errorf("Deduped handles = %d, want %d", deduped, n-1)
	}
	if got := handles[0].Submissions(); got != n {
		t.Errorf("Submissions() = %d, want %d (every submission shares the run)", got, n)
	}
	st := eng.ServiceStats()
	if st.Executed != 1 || st.Deduped+st.CacheHits != n-1 {
		t.Errorf("stats = %+v, want 1 executed and %d reused", st, n-1)
	}
	// A different request (another seed) must NOT dedup onto it.
	other := montageOrDie(t, 4)
	h2, err := eng.Submit(context.Background(),
		SubmitRequest{System: "count-once", Workloads: []Workload{other}},
		WithOptions(Options{Horizon: 3600}))
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() == handles[0].ID() {
		t.Error("different workloads hashed to the same run")
	}
	h2.Cancel()
}

// TestSubmitCancelMidRunReturnsCtxWrappingError is the cancellation
// satellite at the handle level: Cancel mid-run aborts the simulation
// and Result returns an error wrapping context.Canceled.
func TestSubmitCancelMidRunReturnsCtxWrappingError(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 2})
	started := make(chan struct{}, 1)
	blockingRunner(t, eng, "block-forever", started)
	h, err := eng.Submit(context.Background(),
		SubmitRequest{System: "block-forever", Workloads: []Workload{montageOrDie(t, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the simulation is mid-run now
	if st := h.Status(); st != RunStatusRunning {
		t.Errorf("status before cancel = %v, want running", st)
	}
	h.Cancel()
	_, err = h.Result(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v, want wrapping context.Canceled", err)
	}
	if st := h.Status(); st != RunStatusCanceled {
		t.Errorf("status = %v, want canceled", st)
	}
	if h.Err() == nil {
		t.Error("Err() nil on a canceled run")
	}
}

// TestSubmitCancelCyclesNoGoroutineLeak is the leak half of the
// lifecycle satellite: 100 submit/cancel cycles (with event
// subscriptions attached) leave no goroutines behind. Run under -race
// in CI.
func TestSubmitCancelCyclesNoGoroutineLeak(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 2, MaxRuns: 32})
	started := make(chan struct{}, 1)
	blockingRunner(t, eng, "leak-probe", started)
	wl := montageOrDie(t, 3)

	// Prime the service's worker pool so the baseline includes it.
	h0, err := eng.Submit(context.Background(),
		SubmitRequest{System: "leak-probe", Workloads: []Workload{wl.Clone()}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	h0.Cancel()
	if _, err := h0.Result(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("prime cycle err = %v", err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < 100; i++ {
		// Vary the seed so every cycle is a distinct request (no dedup).
		h, err := eng.Submit(context.Background(),
			SubmitRequest{System: "leak-probe", Workloads: []Workload{wl.Clone()}},
			WithSeed(int64(i+1)))
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		ch := h.Events(context.Background())
		<-started
		h.Cancel()
		if _, err := h.Result(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("cycle %d: err = %v, want wrapping context.Canceled", i, err)
		}
		for range ch {
			// Drain to the stream's natural close.
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d baseline, %d after 100 submit/cancel cycles",
		before, runtime.NumGoroutine())
}

// TestSubmitEventsStreamFraming: a handle's stream starts with
// RunQueuedEvent (carrying the run ID), contains the simulation's
// start/completion, and closes with RunFinishedEvent.
func TestSubmitEventsStreamFraming(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 1})
	h, err := eng.Submit(context.Background(),
		SubmitRequest{System: "DCS", Workloads: []Workload{montageOrDie(t, 3)}},
		WithOptions(Options{Horizon: 6 * 3600}))
	if err != nil {
		t.Fatal(err)
	}
	var all []Event
	for ev := range h.Events(context.Background()) {
		all = append(all, ev)
	}
	if len(all) < 4 {
		t.Fatalf("stream has %d events: %v", len(all), all)
	}
	q, ok := all[0].(RunQueuedEvent)
	if !ok || q.ID != h.ID() {
		t.Errorf("first event = %#v, want RunQueued with id %s", all[0], h.ID())
	}
	f, ok := all[len(all)-1].(RunFinishedEvent)
	if !ok || f.Status != "done" || f.ID != h.ID() {
		t.Errorf("last event = %#v, want RunFinished done", all[len(all)-1])
	}
	var sawStart, sawComplete bool
	for _, ev := range all {
		switch e := ev.(type) {
		case RunStartedEvent:
			sawStart = e.System == "DCS"
		case RunCompletedEvent:
			sawComplete = e.System == "DCS" && e.Err == nil
		}
	}
	if !sawStart || !sawComplete {
		t.Errorf("stream missing simulation events: %v", all)
	}

	// Subscribe on the finished run replays the same history.
	var replayed atomic.Int64
	stop := h.Subscribe(func(Event) { replayed.Add(1) })
	stop()
	if got := replayed.Load(); got != int64(len(all)) {
		t.Errorf("Subscribe replayed %d events, want %d", got, len(all))
	}
}

// TestSubmitScenarioMatchesRunScenario: a scenario submitted through
// the handle produces the same report as the blocking entry point.
func TestSubmitScenarioMatchesRunScenario(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 2})
	src := []byte(`{"name":"mini-submit","days":1,"systems":["DCS","DawningCloud"],
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`)
	spec1, err := ParseScenario(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunScenario(spec1, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := ParseScenario(src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.Submit(context.Background(), SubmitRequest{Scenario: spec2}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != "scenario" {
		t.Errorf("kind = %q", h.Kind())
	}
	res, err := h.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("scenario run returned no report")
	}
	if got, want := res.Report.Render(), want.Render(); got != want {
		t.Errorf("submitted scenario report diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestSubmitExperimentsTablesGoldenBytes proves the acceptance
// criterion that Tables 2-4 are byte-identical through the new Submit
// path: a suite request submitted asynchronously must reproduce the
// Table 2-4 goldens exactly. Those were captured under the original
// container/heap kernel; table2.golden and table3.golden were re-pinned
// once, when runtime environments began closing each grant by its own
// lease handle (paper Section 3.2.2; see
// internal/experiments.TestPaperTablesGoldenBytes).
func TestSubmitExperimentsTablesGoldenBytes(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 2})
	h, err := eng.Submit(context.Background(),
		SubmitRequest{Experiments: []string{"table2", "table3", "table4"}, Seed: 42, Days: 14},
		WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != "suite" {
		t.Errorf("kind = %q", h.Kind())
	}
	res, err := h.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifacts) != 3 {
		t.Fatalf("artifacts = %d, want 3", len(res.Artifacts))
	}
	for i, id := range []string{"table2", "table3", "table4"} {
		a := res.Artifacts[i]
		if a.ID != id {
			t.Fatalf("artifacts[%d].ID = %q, want %q (request order)", i, a.ID, id)
		}
		want, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if a.Text != string(want) {
			t.Errorf("%s through Submit drifted from the reference-kernel golden:\n got:\n%s\nwant:\n%s",
				id, a.Text, want)
		}
	}
}

// TestSubmitValidation: the request union rejects zero or multiple
// forms, unknown systems and unknown experiment IDs at submit time.
func TestSubmitValidation(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 1})
	wl := montageOrDie(t, 3)
	spec, err := ParseScenario([]byte(`{"name":"v","days":1,"systems":["DCS"],
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  SubmitRequest
		want string
	}{
		{"empty union", SubmitRequest{}, "exactly one of"},
		{"two forms", SubmitRequest{System: "DCS", Workloads: []Workload{wl}, Scenario: spec}, "exactly one of"},
		{"unknown system", SubmitRequest{System: "warp", Workloads: []Workload{wl}}, `unknown system "warp"`},
		{"no workloads", SubmitRequest{System: "DCS"}, "no workloads"},
		{"unknown experiment", SubmitRequest{Experiments: []string{"table99"}}, `unknown experiment "table99"`},
		{"experiments days above bound", SubmitRequest{Experiments: []string{"table1"}, Days: 3651}, "days 3651 outside [1,3650]"},
		{"experiments days 2^30", SubmitRequest{Experiments: []string{"table1"}, Days: 1 << 30}, "days 1073741824 outside"},
		{"experiments days overflow", SubmitRequest{Experiments: []string{"table1"}, Days: 106751991167301}, "days 106751991167301 outside"},
		{"experiments negative days", SubmitRequest{Experiments: []string{"table1"}, Days: -1}, "days -1 outside"},
	}
	// Options that would be silently dropped are rejected instead: a
	// WithSeed(7) suite submission must not be served another seed's
	// cached artifacts.
	optCases := []struct {
		name string
		req  SubmitRequest
		opt  RunOption
	}{
		{"seed on experiments", SubmitRequest{Experiments: []string{"table1"}}, WithSeed(7)},
		{"options on scenario", SubmitRequest{Scenario: spec}, WithOptions(Options{PoolCapacity: 9})},
	}
	for _, tc := range optCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := eng.Submit(context.Background(), tc.req, tc.opt)
			if err == nil || !strings.Contains(err.Error(), "apply only to System requests") {
				t.Errorf("err = %v, want options-rejection", err)
			}
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := eng.Submit(context.Background(), tc.req)
			if err == nil {
				t.Fatal("invalid request accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, missing %q", err, tc.want)
			}
		})
	}
}

// TestSubmitBackpressure: with a tiny queue, excess submissions fail
// fast with ErrBusy instead of blocking.
func TestSubmitBackpressure(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 1, QueueDepth: 1})
	started := make(chan struct{}, 1)
	blockingRunner(t, eng, "bp-block", started)
	wl := montageOrDie(t, 3)
	submit := func(seed int64) (*RunHandle, error) {
		return eng.Submit(context.Background(),
			SubmitRequest{System: "bp-block", Workloads: []Workload{wl.Clone()}}, WithSeed(seed))
	}
	h1, err := submit(1)
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied
	if _, err := submit(2); err != nil {
		t.Fatal(err) // queued
	}
	_, err = submit(3)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	h1.Cancel()
}

// TestEngineHandlesListing: the run store lists blocking and submitted
// runs alike, newest first, addressable by ID.
func TestEngineHandlesListing(t *testing.T) {
	eng := newTestEngine(t, ServiceConfig{Workers: 1})
	wl := montageOrDie(t, 3)
	if _, err := eng.Run(context.Background(), "DCS", []Workload{wl.Clone()},
		WithOptions(Options{Horizon: 3600})); err != nil {
		t.Fatal(err)
	}
	h, err := eng.Submit(context.Background(),
		SubmitRequest{System: "SSP", Workloads: []Workload{wl.Clone()}},
		WithOptions(Options{Horizon: 3600}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(context.Background()); err != nil {
		t.Fatal(err)
	}
	handles := eng.Handles()
	if len(handles) != 2 {
		t.Fatalf("Handles() = %d runs, want 2 (blocking + submitted)", len(handles))
	}
	if handles[0].ID() != h.ID() {
		t.Errorf("newest-first ordering violated: %q first, want %q", handles[0].ID(), h.ID())
	}
	got, ok := eng.Handle(h.ID())
	if !ok || got.ID() != h.ID() {
		t.Errorf("Handle(%q) = %v, %v", h.ID(), got, ok)
	}
	info := got.Snapshot()
	if info.Status != RunStatusDone || info.Events == 0 {
		t.Errorf("snapshot = %+v", info)
	}
	if _, ok := eng.Handle("run-999999"); ok {
		t.Error("unknown ID resolved")
	}
}

// TestRunScenarioContextNilSinkAndConcurrentEmission is the sink
// contract satellite: events.Sink(nil) is explicitly a no-op (a nil fn
// must be accepted), and a real sink is emitted to concurrently from
// Workers > 1 without races (run under -race in CI).
func TestRunScenarioContextNilSinkAndConcurrentEmission(t *testing.T) {
	src := []byte(`{"name":"sink-race","days":1,"seed":3,
		"systems":["DCS","SSP","DawningCloud"],
		"providers":[{"name":"p","count":2,"source":{"kind":"synth","model":"nasa"}}]}`)
	spec, err := ParseScenario(src)
	if err != nil {
		t.Fatal(err)
	}

	// A nil fn is a valid no-op sink at Workers > 1.
	repNil, err := RunScenarioContext(context.Background(), spec, 4, nil)
	if err != nil {
		t.Fatalf("nil sink: %v", err)
	}

	// A counting sink sees concurrent emission from the worker pool; the
	// event totals are deterministic even though delivery order is not.
	var started, completed, cells atomic.Int64
	spec2, err := ParseScenario(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunScenarioContext(context.Background(), spec2, 4, func(ev Event) {
		switch ev.(type) {
		case RunStartedEvent:
			started.Add(1)
		case RunCompletedEvent:
			completed.Add(1)
		case CellCompletedEvent:
			cells.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != repNil.Render() {
		t.Error("observed and unobserved runs diverge")
	}
	if started.Load() != rep.Simulations || completed.Load() != rep.Simulations {
		t.Errorf("started/completed = %d/%d, want %d each",
			started.Load(), completed.Load(), rep.Simulations)
	}
	if cells.Load() != 3 {
		t.Errorf("cells = %d, want 3 (one per system)", cells.Load())
	}
}
