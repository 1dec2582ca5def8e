package systems

import (
	"context"
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
)

// tinyHTC builds a deterministic 3-job HTC workload on 8 fixed nodes.
func tinyHTC() Workload {
	return Workload{
		Name:  "htc",
		Class: job.HTC,
		Jobs: []job.Job{
			{ID: 1, Submit: 0, Runtime: 1800, Nodes: 4},
			{ID: 2, Submit: 600, Runtime: 1800, Nodes: 4},
			{ID: 3, Submit: 1200, Runtime: 1800, Nodes: 8},
		},
		FixedNodes: 8,
		Params:     policy.HTCDefaults(2, 1.5),
	}
}

// tinyMTC builds a 3-task chain workflow.
func tinyMTC() Workload {
	return Workload{
		Name:  "mtc",
		Class: job.MTC,
		Jobs: []job.Job{
			{ID: 1, Submit: 0, Runtime: 60, Nodes: 1, Class: job.MTC, Workflow: "w"},
			{ID: 2, Submit: 0, Runtime: 60, Nodes: 2, Class: job.MTC, Workflow: "w", Deps: []int{1}},
			{ID: 3, Submit: 0, Runtime: 60, Nodes: 1, Class: job.MTC, Workflow: "w", Deps: []int{2}},
		},
		FixedNodes: 2,
		Params:     policy.MTCDefaults(1, 2),
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := tinyHTC()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Workload)
	}{
		{"empty name", func(w *Workload) { w.Name = "" }},
		{"no jobs", func(w *Workload) { w.Jobs = nil }},
		{"zero fixed", func(w *Workload) { w.FixedNodes = 0 }},
		{"bad params", func(w *Workload) { w.Params.InitialNodes = 0 }},
		{"invalid job", func(w *Workload) { w.Jobs[0].Nodes = 0 }},
		{"job exceeds RE", func(w *Workload) { w.FixedNodes = 4 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := tinyHTC()
			tt.mutate(&w)
			if err := w.Validate(); err == nil {
				t.Error("invalid workload accepted")
			}
		})
	}
}

func TestValidateWorkloadsDuplicates(t *testing.T) {
	if err := ValidateWorkloads([]Workload{tinyHTC(), tinyHTC()}); err == nil {
		t.Error("duplicate names accepted")
	}
	if err := ValidateWorkloads(nil); err == nil {
		t.Error("empty set accepted")
	}
}

func TestHorizonForDefaults(t *testing.T) {
	w := tinyHTC()
	h := Options{}.HorizonFor([]Workload{w})
	// Last submit+runtime = 3000; plus one day, rounded to whole hours.
	if h <= 3000 || h%3600 != 0 {
		t.Errorf("derived horizon = %d, want hour-aligned > 3000", h)
	}
	if got := (Options{Horizon: 7200}).HorizonFor([]Workload{w}); got != 7200 {
		t.Errorf("explicit horizon = %d, want 7200", got)
	}
}

func TestDCSAndSSPIdenticalPerformance(t *testing.T) {
	opts := Options{Horizon: 4 * 3600}
	dcs, err := Run(context.Background(), DCS, []Workload{tinyHTC(), tinyMTC()}, opts)
	if err != nil {
		t.Fatalf("Run(DCS): %v", err)
	}
	ssp, err := Run(context.Background(), SSP, []Workload{tinyHTC(), tinyMTC()}, opts)
	if err != nil {
		t.Fatalf("Run(SSP): %v", err)
	}
	for i := range dcs.Providers {
		d, s := dcs.Providers[i], ssp.Providers[i]
		if d.Completed != s.Completed || d.NodeHours != s.NodeHours {
			t.Errorf("provider %s differs: DCS %d/%.0f vs SSP %d/%.0f",
				d.Name, d.Completed, d.NodeHours, s.Completed, s.NodeHours)
		}
	}
	if dcs.TotalNodesAdjusted != 0 {
		t.Errorf("DCS adjustments = %d, want 0", dcs.TotalNodesAdjusted)
	}
	if ssp.TotalNodesAdjusted == 0 {
		t.Error("SSP adjustments = 0, want startup+teardown counts")
	}
	if dcs.OverheadSeconds != 0 {
		t.Errorf("DCS overhead = %g, want 0", dcs.OverheadSeconds)
	}
}

func TestFixedBillsSizeTimesPeriod(t *testing.T) {
	opts := Options{Horizon: 10 * 3600}
	res, err := Run(context.Background(), DCS, []Workload{tinyHTC()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res.Provider("htc")
	if !ok {
		t.Fatal("provider missing")
	}
	if p.NodeHours != 80 {
		t.Errorf("NodeHours = %.0f, want 80 (8 nodes x 10 h)", p.NodeHours)
	}
	if p.Completed != 3 {
		t.Errorf("Completed = %d, want 3", p.Completed)
	}
	if p.PeakNodes != 8 {
		t.Errorf("PeakNodes = %d, want 8", p.PeakNodes)
	}
}

func TestMTCFixedSelfDestroysAndBillsOneHour(t *testing.T) {
	opts := Options{Horizon: 24 * 3600}
	res, err := Run(context.Background(), SSP, []Workload{tinyMTC()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.Provider("mtc")
	// The chain takes ~3 minutes on 2 nodes; the RE starts at t=0 and is
	// destroyed at completion, so the lease bills a single hour.
	if p.NodeHours != 2 {
		t.Errorf("NodeHours = %.0f, want 2 (2 nodes x 1 billed hour)", p.NodeHours)
	}
	if p.Completed != 3 {
		t.Errorf("Completed = %d, want 3", p.Completed)
	}
	if p.TasksPerSecond <= 0 {
		t.Error("TasksPerSecond not positive")
	}
}

func TestDRPRunsJobsImmediately(t *testing.T) {
	opts := Options{Horizon: 4 * 3600}
	res, err := Run(context.Background(), DRP, []Workload{tinyHTC()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.Provider("htc")
	if p.Completed != 3 {
		t.Errorf("Completed = %d, want 3", p.Completed)
	}
	// Each job leases its own nodes for ceil(1800s) = 1 hour:
	// 4 + 4 + 8 = 16 node-hours.
	if p.NodeHours != 16 {
		t.Errorf("NodeHours = %.0f, want 16", p.NodeHours)
	}
	// Jobs 1-3 overlap around t=1200..1800: peak = 16 concurrent nodes.
	if p.PeakNodes != 16 {
		t.Errorf("PeakNodes = %d, want 16", p.PeakNodes)
	}
	// Adjustments: each job leases and releases its nodes: 2*(4+4+8) = 32.
	if p.NodesAdjusted != 32 {
		t.Errorf("NodesAdjusted = %d, want 32", p.NodesAdjusted)
	}
}

func TestDRPMTCReusesNodes(t *testing.T) {
	opts := Options{Horizon: 24 * 3600}
	res, err := Run(context.Background(), DRP, []Workload{tinyMTC()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.Provider("mtc")
	if p.Completed != 3 {
		t.Errorf("Completed = %d, want 3", p.Completed)
	}
	// Task 1 leases 1 node; task 2 reuses it and leases 1 more; task 3
	// reuses. Distinct leased nodes = 2, all released at the end within
	// the first hour: 2 node-hours.
	if p.NodeHours != 2 {
		t.Errorf("NodeHours = %.0f, want 2", p.NodeHours)
	}
	if p.TasksPerSecond <= 0 {
		t.Error("TasksPerSecond not positive")
	}
}

func TestDRPCapacityBoundWalksAway(t *testing.T) {
	w := tinyHTC()
	opts := Options{Horizon: 4 * 3600, PoolCapacity: 4}
	res, err := Run(context.Background(), DRP, []Workload{w}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := res.Provider("htc")
	// Only job 1 fits (4 nodes); job 2 arrives while 1 runs and is
	// rejected; job 3 needs 8 > 4. DRP has no queue: they walk away.
	if p.Completed != 1 {
		t.Errorf("Completed = %d, want 1 under a 4-node pool", p.Completed)
	}
	if res.RejectedRequests == 0 {
		t.Error("no rejections recorded under a tiny pool")
	}
}

func TestUnknownProviderLookup(t *testing.T) {
	res := Result{Providers: []ProviderResult{{Name: "a"}}}
	if _, ok := res.Provider("b"); ok {
		t.Error("Provider(b) found on result without b")
	}
	if p, ok := res.Provider("a"); !ok || p.Name != "a" {
		t.Error("Provider(a) lookup failed")
	}
}

func TestRunRejectsInvalidWorkloads(t *testing.T) {
	bad := tinyHTC()
	bad.Name = ""
	for _, b := range []Backend{DCS, SSP, DRP} {
		if _, err := Run(context.Background(), b, []Workload{bad}, Options{Horizon: 3600}); err == nil {
			t.Errorf("%s accepted invalid workload", b.Name)
		}
	}
}
