package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// Extensions run on the quick suite: a 4-day window keeps the scale study
// fast while preserving the consolidation dynamics.
var extSuite = NewQuickSuite(42)

// scaleReport runs the suite's scale study over n organizations.
func scaleReport(t *testing.T, s *Suite, n int) *scenario.Report {
	t.Helper()
	rep, err := scenario.Run(s.scaleSpec(n), s.Workers)
	if err != nil {
		t.Fatalf("scale study n=%d: %v", n, err)
	}
	return rep
}

func TestScaleStudySavingsPersist(t *testing.T) {
	points := scaleReport(t, extSuite, 3).Scale
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	for _, p := range points {
		if p.DSPNodeHours >= p.DCSNodeHours {
			t.Errorf("n=%d: DSP %.0f not below DCS %.0f", p.Providers, p.DSPNodeHours, p.DCSNodeHours)
		}
		if p.SavedFraction <= 0 {
			t.Errorf("n=%d: no savings (%.3f)", p.Providers, p.SavedFraction)
		}
	}
	// Totals grow with consolidation size.
	if points[2].DCSNodeHours <= points[0].DCSNodeHours {
		t.Error("DCS total did not grow with more providers")
	}
}

// TestScaleStudyValidation: a scale study over zero organizations fails
// the spec's provider-count validation instead of running.
func TestScaleStudyValidation(t *testing.T) {
	spec := extSuite.scaleSpec(1)
	spec.Providers[0].Count = 0
	if _, err := scenario.Run(spec, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestScaleArtifactRenders(t *testing.T) {
	a, err := scaleArtifact(scaleReport(t, extSuite, 2))
	if err != nil {
		t.Fatalf("ScaleArtifact: %v", err)
	}
	if a.ID != "ext-scale" || !strings.Contains(a.Text, "providers") {
		t.Errorf("artifact = %+v", a)
	}
	if !strings.Contains(a.SVG, "<svg") {
		t.Error("missing SVG")
	}
	if _, ok := a.Values["saved_pct_n1"]; !ok {
		t.Error("missing n=1 value")
	}
}

func TestAblationBackfill(t *testing.T) {
	a, err := extSuite.AblationBackfill(context.Background(), NASAProvider)
	if err != nil {
		t.Fatalf("AblationBackfill: %v", err)
	}
	ffDone := a.Values["firstfit_completed"]
	easyDone := a.Values["easy_completed"]
	if ffDone == 0 || easyDone == 0 {
		t.Fatalf("no completions: ff=%.0f easy=%.0f", ffDone, easyDone)
	}
	// Both schedulers must process essentially the whole trace.
	if ratio := easyDone / ffDone; ratio < 0.98 || ratio > 1.02 {
		t.Errorf("completion ratio = %.3f, want ~1", ratio)
	}
	if !strings.Contains(a.Text, "EASY") {
		t.Errorf("text missing EASY row:\n%s", a.Text)
	}
}

func TestAblationBackfillUnknownProvider(t *testing.T) {
	if _, err := extSuite.AblationBackfill(context.Background(), "ghost"); err == nil {
		t.Error("unknown provider accepted")
	}
}

// TestScaleStudySingleProviderEdge covers the sweep's smallest grid —
// a one-organization scale study runs exactly one consolidation point,
// from its base cells — and pins its determinism: a Workers > 1 suite
// must reproduce the serial suite's numbers bit for bit (run under -race
// in CI, this also exercises the cell fan-out's synchronization).
func TestScaleStudySingleProviderEdge(t *testing.T) {
	serial := NewQuickSuite(42)
	serial.Workers = 1
	parallel := NewQuickSuite(42)
	parallel.Workers = 4

	sp := scaleReport(t, serial, 1).Scale
	pp := scaleReport(t, parallel, 1).Scale
	if len(sp) != 1 || len(pp) != 1 {
		t.Fatalf("points = %d/%d, want 1/1", len(sp), len(pp))
	}
	if sp[0].Providers != 1 {
		t.Errorf("point providers = %d, want 1", sp[0].Providers)
	}
	if !reflect.DeepEqual(sp, pp) {
		t.Errorf("Workers=4 diverged from serial:\n serial   %+v\n parallel %+v", sp[0], pp[0])
	}
}

// TestAblationProvisionTwoPointDeterminism runs the ablation's two
// simulations (grant-or-reject vs best-effort) on serial and Workers > 1
// suites and requires identical artifact values: the worker count must
// not reach an ablation's numbers.
func TestAblationProvisionTwoPointDeterminism(t *testing.T) {
	serial := NewQuickSuite(42)
	serial.Workers = 1
	parallel := NewQuickSuite(42)
	parallel.Workers = 4

	sa, err := serial.AblationProvision(context.Background(), NASAProvider, 160)
	if err != nil {
		t.Fatalf("serial AblationProvision: %v", err)
	}
	pa, err := parallel.AblationProvision(context.Background(), NASAProvider, 160)
	if err != nil {
		t.Fatalf("parallel AblationProvision: %v", err)
	}
	if !reflect.DeepEqual(sa.Values, pa.Values) {
		t.Errorf("Workers=4 diverged from serial:\n serial   %v\n parallel %v", sa.Values, pa.Values)
	}
	if sa.Text != pa.Text {
		t.Error("rendered ablation tables differ between worker counts")
	}
}

func TestAblationProvisionConstrainedPool(t *testing.T) {
	// 160 nodes: B=40 fits but large DR requests are rejected outright
	// under grant-or-reject while best-effort takes partial grants.
	a, err := extSuite.AblationProvision(context.Background(), NASAProvider, 160)
	if err != nil {
		t.Fatalf("AblationProvision: %v", err)
	}
	if a.Values["strict_rejected"] == 0 {
		t.Error("strict policy recorded no rejections on a 160-node pool")
	}
	// Best-effort never rejects while nodes remain; it may still reject
	// when the pool is fully allocated, but must reject no more often.
	if a.Values["effort_rejected"] > a.Values["strict_rejected"] {
		t.Errorf("best-effort rejected more (%v) than strict (%v)",
			a.Values["effort_rejected"], a.Values["strict_rejected"])
	}
	if a.Values["effort_completed"] < a.Values["strict_completed"]*0.95 {
		t.Errorf("best-effort completed %v << strict %v",
			a.Values["effort_completed"], a.Values["strict_completed"])
	}
}
