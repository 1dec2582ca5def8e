package dawningcloud

import (
	"context"
	"math"
	"testing"

	"repro/internal/job"
)

func TestWorkloadConstructors(t *testing.T) {
	nasa, err := NASATrace(1)
	if err != nil {
		t.Fatalf("NASATrace: %v", err)
	}
	if nasa.FixedNodes != 128 || nasa.Class != HTC {
		t.Errorf("NASA workload: fixed=%d class=%v", nasa.FixedNodes, nasa.Class)
	}
	if err := nasa.Validate(); err != nil {
		t.Errorf("NASA workload invalid: %v", err)
	}
	blue, err := BlueTrace(1)
	if err != nil {
		t.Fatalf("BlueTrace: %v", err)
	}
	if blue.FixedNodes != 144 {
		t.Errorf("BLUE fixed = %d, want 144", blue.FixedNodes)
	}
	montage, err := MontageWorkload(1, 3600)
	if err != nil {
		t.Fatalf("MontageWorkload: %v", err)
	}
	if montage.Class != MTC || len(montage.Jobs) != 1000 {
		t.Errorf("Montage workload: class=%v tasks=%d", montage.Class, len(montage.Jobs))
	}
	if montage.FirstSubmit() != 3600 {
		t.Errorf("Montage first submit = %d, want 3600", montage.FirstSubmit())
	}
}

func TestPaperWorkloads(t *testing.T) {
	wls, err := PaperWorkloads(5)
	if err != nil {
		t.Fatalf("PaperWorkloads: %v", err)
	}
	if len(wls) != 3 {
		t.Fatalf("workloads = %d, want 3", len(wls))
	}
	classes := map[job.Class]int{}
	for _, wl := range wls {
		classes[wl.Class]++
	}
	if classes[HTC] != 2 || classes[MTC] != 1 {
		t.Errorf("classes = %v, want 2 HTC + 1 MTC", classes)
	}
}

func TestRunWithBackfillCompletesWork(t *testing.T) {
	nasa, err := NASATrace(9)
	if err != nil {
		t.Fatal(err)
	}
	// Shorten: take the first 200 jobs only.
	nasa.Jobs = nasa.Jobs[:200]
	opts := Options{Horizon: TwoWeeks}
	res, err := RunWithBackfill([]Workload{nasa}, opts)
	if err != nil {
		t.Fatalf("RunWithBackfill: %v", err)
	}
	p, _ := res.Provider("nasa-htc")
	if p.Completed < 190 {
		t.Errorf("backfill completed = %d/200", p.Completed)
	}
}

func TestPolicyHelpers(t *testing.T) {
	h := HTCPolicy(40, 1.2)
	if h.ScanInterval != 60 || h.InitialNodes != 40 {
		t.Errorf("HTCPolicy = %+v", h)
	}
	m := MTCPolicy(10, 8)
	if m.ScanInterval != 3 || m.ThresholdRatio != 8 {
		t.Errorf("MTCPolicy = %+v", m)
	}
}

func TestTCOComparison(t *testing.T) {
	dcs, ssp, ratio, err := TCOComparison()
	if err != nil {
		t.Fatalf("TCOComparison: %v", err)
	}
	if math.Abs(dcs-3162.5) > 0.01 || ssp != 2260 {
		t.Errorf("TCO = %.2f/%.2f, want 3162.50/2260", dcs, ssp)
	}
	if math.Abs(ratio-0.7146) > 0.001 {
		t.Errorf("ratio = %.4f, want ~0.715", ratio)
	}
}

func TestNewSuiteProducesArtifacts(t *testing.T) {
	s := NewSuite(11)
	arts, err := s.ArtifactsByID(context.Background(), "table4")
	if err != nil {
		t.Fatalf("table4: %v", err)
	}
	a := arts[0]
	if a.ID != "table4" || a.Text == "" {
		t.Errorf("artifact = %+v", a)
	}
}

func TestTwoWeeksConstant(t *testing.T) {
	if TwoWeeks != 14*24*3600 {
		t.Errorf("TwoWeeks = %d", TwoWeeks)
	}
}

func TestRunScenarioPublicAPI(t *testing.T) {
	names := ScenarioNames()
	if len(names) != 10 || names[0] != "paper-baseline" {
		t.Fatalf("ScenarioNames = %v", names)
	}
	spec, err := ParseScenario([]byte(`{"name":"api","days":1,"seed":3,
		"systems":["DCS","DawningCloud"],
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`))
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	report, err := RunScenario(spec, 2)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if len(report.Base) != 2 {
		t.Errorf("base systems = %d, want 2", len(report.Base))
	}
	dcs, dsp := report.Base["DCS"], report.Base["DawningCloud"]
	if dcs.TotalNodeHours <= 0 || dsp.TotalNodeHours <= 0 {
		t.Errorf("empty totals: DCS %.0f, DawningCloud %.0f", dcs.TotalNodeHours, dsp.TotalNodeHours)
	}
	if report.Render() == "" {
		t.Error("empty rendered report")
	}
	if _, err := LoadScenario("mixed-federation"); err != nil {
		t.Errorf("LoadScenario builtin: %v", err)
	}
	if _, err := ParseScenario([]byte(`{"name":"bad","days":0,"providers":[]}`)); err == nil {
		t.Error("invalid spec accepted")
	}
}
