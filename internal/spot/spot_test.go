package spot

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/systems"
)

func htcWorkload() systems.Workload {
	// Enough jobs spread over days that several hourly price ticks (and
	// with most seeds at least one interruption) fall inside the run.
	var jobs []job.Job
	for i := 0; i < 200; i++ {
		jobs = append(jobs, job.Job{
			ID:      i + 1,
			Class:   job.HTC,
			Submit:  int64(i) * 1800,
			Runtime: 2400,
			Nodes:   (i % 8) + 1,
		})
	}
	return systems.Workload{
		Name:       "spot-htc",
		Class:      job.HTC,
		Jobs:       jobs,
		FixedNodes: 16,
		Params:     policy.HTCDefaults(8, 1.5),
	}
}

func mtcWorkload() systems.Workload {
	// A three-stage chain repeated over independent roots.
	var jobs []job.Job
	id := 0
	for w := 0; w < 5; w++ {
		root := id + 1
		jobs = append(jobs,
			job.Job{ID: root, Class: job.MTC, Submit: 3600, Runtime: 600, Nodes: 2, Workflow: "wf"},
			job.Job{ID: root + 1, Class: job.MTC, Submit: 3600, Runtime: 600, Nodes: 2, Deps: []int{root}, Workflow: "wf"},
			job.Job{ID: root + 2, Class: job.MTC, Submit: 3600, Runtime: 300, Nodes: 1, Deps: []int{root + 1}, Workflow: "wf"},
		)
		id += 3
	}
	return systems.Workload{
		Name:       "spot-mtc",
		Class:      job.MTC,
		Jobs:       jobs,
		FixedNodes: 12,
		Params:     policy.MTCDefaults(4, 8),
	}
}

func TestRegisteredInDefaultRegistry(t *testing.T) {
	if !registry.Default.Has(Name) {
		t.Fatalf("%s not registered in registry.Default", Name)
	}
	_, canonical, err := registry.Default.Resolve("SSP-SPOT")
	if err != nil || canonical != Name {
		t.Errorf("Resolve(SSP-SPOT) = %q, %v", canonical, err)
	}
}

func TestRunCompletesHTCWork(t *testing.T) {
	res, err := systems.Run(context.Background(), Backend, []systems.Workload{htcWorkload()}, systems.Options{
		Horizon: 7 * sim.Day, Seed: 42,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.System != Name {
		t.Errorf("System = %q, want %q", res.System, Name)
	}
	p, ok := res.Provider("spot-htc")
	if !ok {
		t.Fatal("provider missing")
	}
	if p.Submitted != 200 {
		t.Errorf("Submitted = %d, want 200", p.Submitted)
	}
	// Interruptions may lose some completions but the bulk must finish
	// over a 7-day window for a ~4-day job stream.
	if p.Completed < 150 {
		t.Errorf("Completed = %d, want >= 150", p.Completed)
	}
	if p.NodeHours <= 0 || p.PeakNodes <= 0 {
		t.Errorf("empty consumption: %.0f node*hours, peak %d", p.NodeHours, p.PeakNodes)
	}
}

func TestRunCompletesMTCWorkflows(t *testing.T) {
	res, err := systems.Run(context.Background(), Backend, []systems.Workload{mtcWorkload()}, systems.Options{
		Horizon: 2 * sim.Day, Seed: 5,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	p, _ := res.Provider("spot-mtc")
	if p.Completed != 15 {
		t.Errorf("Completed = %d, want 15 (all tasks within a 2-day window)", p.Completed)
	}
	if p.TasksPerSecond <= 0 {
		t.Error("TasksPerSecond not positive")
	}
	// A finished MTC runtime environment releases its lease (SSP's
	// DestroyOnCompletion semantics): the chains take well under two
	// hours, so billing anywhere near the 48-hour horizon means the idle
	// cluster kept leasing after the work drained.
	if p.NodeHours > 4*12 {
		t.Errorf("NodeHours = %.0f; finished spot RE kept billing (want <= %d)", p.NodeHours, 4*12)
	}
}

func TestDeterministicPerSeedAndSensitiveToSeed(t *testing.T) {
	opts := systems.Options{Horizon: 14 * sim.Day, Seed: 11}
	a, err := systems.Run(context.Background(), Backend, []systems.Workload{htcWorkload()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := systems.Run(context.Background(), Backend, []systems.Workload{htcWorkload()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different results")
	}
	// Different seeds should differ somewhere across a 14-day window
	// (different price paths). Check a few seeds to avoid flakiness.
	varied := false
	for seed := int64(12); seed < 17; seed++ {
		c, err := systems.Run(context.Background(), Backend, []systems.Workload{htcWorkload()},
			systems.Options{Horizon: 14 * sim.Day, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, c) {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("five different seeds all reproduced the same run; price process looks seed-insensitive")
	}
}

func TestInterruptionsCostAdjustmentsVersusSSP(t *testing.T) {
	// Across a spread of seeds, at least one 14-day run must see an
	// interruption, visible as more node adjustments than plain SSP's
	// startup/teardown pair.
	wl := htcWorkload()
	ssp, err := systems.Run(context.Background(), systems.SSP, []systems.Workload{wl.Clone()}, systems.Options{Horizon: 14 * sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	sawInterruption := false
	for seed := int64(1); seed <= 8 && !sawInterruption; seed++ {
		res, err := systems.Run(context.Background(), Backend, []systems.Workload{wl.Clone()},
			systems.Options{Horizon: 14 * sim.Day, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalNodesAdjusted > ssp.TotalNodesAdjusted {
			sawInterruption = true
		}
	}
	if !sawInterruption {
		t.Error("no seed in 1..8 produced a spot interruption over 14 days")
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := systems.Run(ctx, Backend, []systems.Workload{htcWorkload()}, systems.Options{Horizon: 14 * sim.Day})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestValidatesWorkloads(t *testing.T) {
	bad := htcWorkload()
	bad.Name = ""
	if _, err := systems.Run(context.Background(), Backend, []systems.Workload{bad}, systems.Options{}); err == nil {
		t.Error("invalid workload accepted")
	}
}
