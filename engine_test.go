package dawningcloud

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
)

// longHTCWorkload builds a cheap-to-construct workload whose simulation
// schedules enough events (tens of thousands) that mid-run cancellation
// has something to interrupt.
func longHTCWorkload() Workload {
	var jobs []job.Job
	for i := 0; i < 30000; i++ {
		jobs = append(jobs, job.Job{
			ID:      i + 1,
			Class:   job.HTC,
			Submit:  int64(i) * 40,
			Runtime: 1800,
			Nodes:   (i % 16) + 1,
		})
	}
	return Workload{
		Name:       "long-htc",
		Class:      HTC,
		Jobs:       jobs,
		FixedNodes: 64,
		Params:     HTCPolicy(16, 1.5),
	}
}

func TestDefaultEngineSystems(t *testing.T) {
	names := DefaultEngine().Systems()
	for _, want := range []string{"DCS", "SSP", "DRP", "DawningCloud", "ssp-spot"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Systems() = %v, missing %s", names, want)
		}
	}
}

func TestEngineRunByName(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DefaultEngine().Run(context.Background(), "dcs", []Workload{montage},
		WithOptions(Options{Horizon: 6 * 3600}))
	if err != nil {
		t.Fatal(err)
	}
	if res.System != "DCS" {
		t.Errorf("System = %q, want canonical DCS", res.System)
	}
	p, _ := res.Provider("montage-mtc")
	if p.Completed != 1000 {
		t.Errorf("completed = %d, want 1000", p.Completed)
	}
}

// TestRunAllSystemsEndToEnd runs each paper system by name over the
// Montage workflow: every one completes all 1,000 tasks at a positive
// rate.
func TestRunAllSystemsEndToEnd(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Horizon: 6 * 3600}
	for _, system := range []string{"DawningCloud", "SSP", "DCS", "DRP"} {
		res, err := DefaultEngine().Run(context.Background(), system, []Workload{montage}, WithOptions(opts))
		if err != nil {
			t.Fatalf("Run(%s): %v", system, err)
		}
		p, ok := res.Provider("montage-mtc")
		if !ok {
			t.Fatalf("%s: provider missing", system)
		}
		if p.Completed != 1000 {
			t.Errorf("%s: completed = %d, want 1000", system, p.Completed)
		}
		if p.TasksPerSecond <= 0 {
			t.Errorf("%s: tasks/s = %g", system, p.TasksPerSecond)
		}
	}
}

// TestRunSystemsMatchesSequentialRuns checks the concurrent fan-out:
// RunAll's results come back in input order, equal to one-at-a-time Run
// calls, and leave the caller's workloads unmodified.
func TestRunSystemsMatchesSequentialRuns(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	wls := []Workload{montage}
	before := CloneWorkloads(wls)
	opts := Options{Horizon: 6 * 3600}
	names := []string{"DCS", "SSP", "DRP", "DawningCloud"}
	parallel, err := DefaultEngine().RunAll(context.Background(), names, wls, WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(names) {
		t.Fatalf("results = %d, want %d", len(parallel), len(names))
	}
	for i, system := range names {
		res, err := DefaultEngine().Run(context.Background(), system, CloneWorkloads(wls), WithOptions(opts))
		if err != nil {
			t.Fatalf("Run(%s): %v", system, err)
		}
		if !reflect.DeepEqual(parallel[i], res) {
			t.Errorf("RunAll result %d diverged from the sequential %s run:\n got %+v\nwant %+v", i, system, parallel[i], res)
		}
	}
	if !reflect.DeepEqual(wls, before) {
		t.Error("RunAll mutated the caller's workloads")
	}
}

// TestRunSystemsPropagatesErrors: one unknown name fails the whole
// fan-out.
func TestRunSystemsPropagatesErrors(t *testing.T) {
	_, err := DefaultEngine().RunAll(context.Background(), []string{"DawningCloud", "no-such-system"}, nil, WithWorkers(2))
	if err == nil {
		t.Error("invalid input accepted")
	}
}

func TestEngineRunUnknownSystemListsNames(t *testing.T) {
	_, err := DefaultEngine().Run(context.Background(), "nope", nil)
	if err == nil {
		t.Fatal("unknown system accepted")
	}
	for _, want := range []string{`unknown system "nope"`, "DCS", "DawningCloud", "ssp-spot"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRegisterCustomSystemEndToEnd is the acceptance test for the
// extensibility contract: a system registered from this test file — no
// edits to any core dispatch — is runnable by name via Engine.Run AND
// from a scenario spec (the dcsim CLI path is covered in
// cmd/dcsim/main_test.go).
func TestRegisterCustomSystemEndToEnd(t *testing.T) {
	const name = "test-echo"
	if !DefaultEngine().Has(name) {
		DefaultEngine().MustRegister(name, RunnerFunc(
			func(ctx context.Context, wls []Workload, opts Options) (Result, error) {
				if err := ctx.Err(); err != nil {
					return Result{}, err
				}
				res := Result{System: name, Horizon: opts.HorizonFor(wls), TotalNodeHours: 1}
				for _, wl := range wls {
					res.Providers = append(res.Providers, ProviderResult{
						Name: wl.Name, Class: wl.Class,
						Submitted: len(wl.Jobs), Completed: len(wl.Jobs), NodeHours: 1,
					})
				}
				return res, nil
			}))
	}

	// 1. Runnable via Engine.Run.
	montage, err := MontageWorkload(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DefaultEngine().Run(context.Background(), name, []Workload{montage})
	if err != nil {
		t.Fatalf("Engine.Run(%s): %v", name, err)
	}
	if res.System != name {
		t.Errorf("System = %q, want %q", res.System, name)
	}

	// 2. Runnable from a scenario spec by name.
	spec, err := ParseScenario([]byte(fmt.Sprintf(`{"name":"ext","days":1,"seed":3,
		"systems":["DCS",%q],
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`, name)))
	if err != nil {
		t.Fatalf("ParseScenario with registered extension: %v", err)
	}
	report, err := RunScenario(spec, 2)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	got, ok := report.Base[name]
	if !ok {
		t.Fatalf("scenario report missing %q results (have %v)", name, report.Systems)
	}
	if p, ok := got.Provider("p"); !ok || p.Completed == 0 {
		t.Errorf("extension result empty: %+v", got)
	}
}

func TestNewEngineIsolatedFromDefault(t *testing.T) {
	eng := NewEngine()
	if !eng.Has("DawningCloud") {
		t.Fatal("NewEngine missing snapshot of builtins")
	}
	eng.MustRegister("isolated-sys", RunnerFunc(
		func(ctx context.Context, wls []Workload, opts Options) (Result, error) {
			return Result{System: "isolated-sys"}, nil
		}))
	if DefaultEngine().Has("isolated-sys") {
		t.Error("NewEngine registration leaked into the default engine")
	}
}

func TestEngineRunAllExplicitList(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DefaultEngine().RunAll(context.Background(),
		[]string{"DCS", "SSP"}, []Workload{montage},
		WithOptions(Options{Horizon: 6 * 3600}), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].System != "DCS" || results[1].System != "SSP" {
		t.Fatalf("results = %v", results)
	}
}

// TestEngineRunAllNilRunsAllRegistered pins the documented default: a
// nil system list fans out over every registered system, one result per
// name in registration order.
func TestEngineRunAllNilRunsAllRegistered(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine() // snapshot: isolated from other tests' registrations
	want := eng.Systems()
	results, err := eng.RunAll(context.Background(), nil, []Workload{montage},
		WithOptions(Options{Horizon: 6 * 3600}), WithSeed(3), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(want) {
		t.Fatalf("results = %d, want one per registered system (%d: %v)", len(results), len(want), want)
	}
	for i, name := range want {
		if results[i].System != name {
			t.Errorf("results[%d].System = %q, want %q (registration order)", i, results[i].System, name)
		}
	}
}

func TestEngineSweep(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	points, err := DefaultEngine().Sweep(context.Background(), "DawningCloud", montage,
		[]int{10, 80}, []float64{8}, WithOptions(Options{Horizon: 6 * 3600}))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	for _, pt := range points {
		if pt.NodeHours <= 0 || pt.Completed != 1000 {
			t.Errorf("point B%d R%g: %+v", pt.B, pt.R, pt)
		}
		if pt.Perf != pt.TasksPerSecond {
			t.Errorf("MTC sweep Perf = %g, want tasks/s %g", pt.Perf, pt.TasksPerSecond)
		}
	}
	if _, err := DefaultEngine().Sweep(context.Background(), "DawningCloud", montage, nil, nil); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestEngineEventsStream(t *testing.T) {
	montage, err := MontageWorkload(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var started, completed, cells int
	_, err = DefaultEngine().RunAll(context.Background(), []string{"DCS", "DRP"},
		[]Workload{montage},
		WithOptions(Options{Horizon: 6 * 3600}),
		WithEvents(func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.(type) {
			case RunStartedEvent:
				started++
			case RunCompletedEvent:
				completed++
			case CellCompletedEvent:
				cells++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 || completed != 2 || cells != 2 {
		t.Errorf("events: started=%d completed=%d cells=%d, want 2/2/2", started, completed, cells)
	}
}

// TestEngineRunCancellation is the cancellation satellite at the single
// run level: a run aborted mid-simulation returns promptly with an error
// wrapping ctx.Err().
func TestEngineRunCancellation(t *testing.T) {
	wl := longHTCWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	// Cancel on the run's own start event rather than a wall-clock timer:
	// the fast kernel finishes this workload in tens of milliseconds, so
	// any sleep-based cancellation would race the simulation.
	_, err := DefaultEngine().Run(ctx, "DawningCloud", []Workload{wl},
		WithOptions(Options{Horizon: TwoWeeks}),
		WithEvents(func(ev Event) {
			if _, ok := ev.(RunStartedEvent); ok {
				cancel()
			}
		}))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v to return", elapsed)
	}
}

// TestEngineRunTimeout: a context deadline aborts the run with
// DeadlineExceeded.
func TestEngineRunTimeout(t *testing.T) {
	wl := longHTCWorkload()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := DefaultEngine().Run(ctx, "SSP", []Workload{wl},
		WithOptions(Options{Horizon: TwoWeeks}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunAllCancellationNoGoroutineLeak is the cancellation satellite at
// the fan-out level: cancelling a RunAll with Workers > 1 returns
// promptly with ctx.Err() and leaves no worker goroutines behind.
// Run under -race in CI.
func TestRunAllCancellationNoGoroutineLeak(t *testing.T) {
	wl := longHTCWorkload()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := DefaultEngine().RunAll(ctx, []string{"DCS", "SSP", "DRP", "DawningCloud"},
		[]Workload{wl}, WithOptions(Options{Horizon: TwoWeeks}), WithWorkers(4))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled RunAll took %v to return", elapsed)
	}
	// All workers exit once their in-flight runs observe cancellation;
	// allow a grace period for the scheduler to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancellation grace period",
		before, runtime.NumGoroutine())
}

// TestScenarioCancellation: cancellation propagates through the
// declarative scenario engine too.
func TestScenarioCancellation(t *testing.T) {
	spec, err := ParseScenario([]byte(`{"name":"cancel","days":14,"seed":3,
		"systems":["DCS","SSP","DawningCloud"],
		"providers":[{"name":"p","count":3,"source":{"kind":"synth","model":"nasa"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err = RunScenarioContext(ctx, spec, 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLiveRunWithRefusedStartFails pins that a live-fed run whose second
// runtime environment the pool cannot start ends failed while its lanes
// are still open, and that producers blocked pushing into them learn the
// run is over (ErrRunTerminal) instead of hanging.
func TestLiveRunWithRefusedStartFails(t *testing.T) {
	eng := NewEngine(WithServiceConfig(ServiceConfig{Workers: 1}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	spec, err := ParseScenario([]byte(`{"name":"live-refused","days":1,"systems":["SSP"],
		"pool":{"capacity":150},"stream":{"enabled":true},
		"providers":[{"name":"a","fixed_nodes":128,"source":{"kind":"live"}},
		             {"name":"b","fixed_nodes":128,"source":{"kind":"live"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.Submit(context.Background(), SubmitRequest{Scenario: spec})
	if err != nil {
		t.Fatal(err)
	}
	feed, ok := eng.Feed(h.ID())
	if !ok {
		t.Fatal("live run has no feed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	produced := make(chan error, 2)
	for _, lane := range []string{"a", "b"} {
		src, err := feed.Get(lane)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			// Push far more than the lane buffer and never close: only
			// the run's end can unblock this producer.
			for i := 0; ; i++ {
				j := Job{ID: i + 1, Class: HTC, Submit: int64(i) * 60, Runtime: 600, Nodes: 1}
				if err := src.Push(ctx, j); err != nil {
					produced <- err
					return
				}
			}
		}()
	}
	if _, err := h.Result(ctx); err == nil || !strings.Contains(err.Error(), "initial provision for b") {
		t.Fatalf("result error = %v, want the refused start of b", err)
	}
	if st := h.Status(); st != RunStatusFailed {
		t.Errorf("status = %v, want %v", st, RunStatusFailed)
	}
	for range 2 {
		if err := <-produced; !errors.Is(err, ErrRunTerminal) {
			t.Errorf("producer ended with %v, want ErrRunTerminal", err)
		}
	}
}

// TestFeedRetiredOnceResultReturns pins that a finished live run hands
// out no feed: Feed reports false as soon as the run's result is
// available, not only once the feed's retirement has run. A producer
// that kept the feed learns the run is over through ErrRunTerminal.
func TestFeedRetiredOnceResultReturns(t *testing.T) {
	eng := NewEngine(WithServiceConfig(ServiceConfig{Workers: 1}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	spec, err := ParseScenario([]byte(`{"name":"feed-retire","days":1,"systems":["SSP"],
		"providers":[{"name":"org","fixed_nodes":8,"source":{"kind":"live"}}],
		"stream":{"enabled":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.Submit(context.Background(), SubmitRequest{Scenario: spec})
	if err != nil {
		t.Fatal(err)
	}
	feed, ok := eng.Feed(h.ID())
	if !ok {
		t.Fatal("live run has no feed")
	}
	src, err := feed.Get("org")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.TryPush(Job{ID: 1, Class: HTC, Submit: 0, Runtime: 60, Nodes: 1}); err != nil {
		t.Fatal(err)
	}
	feed.CloseAll()
	if _, err := h.Result(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Feed(h.ID()); ok {
		t.Fatal("Feed handed out the feed of a run whose result has returned")
	}
	deadline := time.Now().Add(5 * time.Second)
	for err := src.Close(); !errors.Is(err, ErrRunTerminal); err = src.Close() {
		if time.Now().After(deadline) {
			t.Fatalf("end record on a retired lane: %v, want ErrRunTerminal", err)
		}
		time.Sleep(time.Millisecond)
	}
}
