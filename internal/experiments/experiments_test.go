package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/scenario"
)

// The full two-week suite runs in well under a second, so the shape tests
// use the paper's real window. One shared suite avoids re-simulating.
var shared = NewSuite(42)

func TestWorkloadsConstruction(t *testing.T) {
	wls, err := shared.Workloads()
	if err != nil {
		t.Fatalf("Workloads: %v", err)
	}
	if len(wls) != 3 {
		t.Fatalf("workloads = %d, want 3 (two HTC + one MTC)", len(wls))
	}
	byName := map[string]int{}
	for i, wl := range wls {
		byName[wl.Name] = i
	}
	nasa := wls[byName[NASAProvider]]
	if nasa.Class != job.HTC || nasa.FixedNodes != 128 {
		t.Errorf("NASA workload misconfigured: %v fixed=%d", nasa.Class, nasa.FixedNodes)
	}
	if nasa.Params.InitialNodes != 40 || nasa.Params.ThresholdRatio != 1.2 {
		t.Errorf("NASA params = %+v, want B40 R1.2", nasa.Params)
	}
	blue := wls[byName[BLUEProvider]]
	if blue.FixedNodes != 144 || blue.Params.InitialNodes != 80 || blue.Params.ThresholdRatio != 1.5 {
		t.Errorf("BLUE workload misconfigured: fixed=%d params=%+v", blue.FixedNodes, blue.Params)
	}
	montage := wls[byName[MontageProvider]]
	if montage.Class != job.MTC || montage.FixedNodes != 166 {
		t.Errorf("Montage workload misconfigured: %v fixed=%d", montage.Class, montage.FixedNodes)
	}
	if len(montage.Jobs) != 1000 {
		t.Errorf("Montage tasks = %d, want 1000", len(montage.Jobs))
	}
	if montage.Params.ScanInterval != 3 {
		t.Errorf("Montage scan interval = %d, want 3", montage.Params.ScanInterval)
	}
}

func TestRunUnknownSystem(t *testing.T) {
	if _, err := shared.runSystem(context.Background(), "VMS"); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestPaperShapeServiceProviders asserts the orderings of Tables 2-4: who
// wins and roughly by what factor, the reproduction contract.
func TestPaperShapeServiceProviders(t *testing.T) {
	rs, err := shared.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	get := func(system, provider string) float64 {
		p, ok := rs[system].Provider(provider)
		if !ok {
			t.Fatalf("%s missing provider %s", system, provider)
		}
		return p.NodeHours
	}
	// DCS and SSP are performance-identical by construction.
	for _, prov := range []string{NASAProvider, BLUEProvider, MontageProvider} {
		if dcs, ssp := get("DCS", prov), get("SSP", prov); dcs != ssp {
			t.Errorf("%s: DCS %.0f != SSP %.0f", prov, dcs, ssp)
		}
	}
	// Fixed REs bill exactly size x period for the HTC providers.
	if got := get("DCS", NASAProvider); got != 128*14*24 {
		t.Errorf("DCS NASA = %.0f, want %d", got, 128*14*24)
	}
	if got := get("DCS", BLUEProvider); got != 144*14*24 {
		t.Errorf("DCS BLUE = %.0f, want %d", got, 144*14*24)
	}
	// Table 2 shape: DawningCloud saves >= 10% vs DCS on NASA; DRP is
	// more expensive than DCS (the short-job hourly-rounding penalty).
	nasaDCS, nasaDRP, nasaDC := get("DCS", NASAProvider), get("DRP", NASAProvider), get("DawningCloud", NASAProvider)
	if nasaDC >= nasaDCS*0.9 {
		t.Errorf("NASA: DawningCloud %.0f not <= 0.9x DCS %.0f", nasaDC, nasaDCS)
	}
	if nasaDRP <= nasaDCS {
		t.Errorf("NASA: DRP %.0f not above DCS %.0f (paper: -25.8%%)", nasaDRP, nasaDCS)
	}
	if nasaDRP <= nasaDC {
		t.Errorf("NASA: DRP %.0f not above DawningCloud %.0f", nasaDRP, nasaDC)
	}
	// Table 3 shape: both DRP and DawningCloud save vs DCS on BLUE and
	// land near each other (paper: 25.9% vs 27.2%).
	blueDCS, blueDRP, blueDC := get("DCS", BLUEProvider), get("DRP", BLUEProvider), get("DawningCloud", BLUEProvider)
	if blueDC >= blueDCS {
		t.Errorf("BLUE: DawningCloud %.0f not below DCS %.0f", blueDC, blueDCS)
	}
	if blueDRP >= blueDCS {
		t.Errorf("BLUE: DRP %.0f not below DCS %.0f", blueDRP, blueDCS)
	}
	if ratio := blueDC / blueDRP; ratio < 0.75 || ratio > 1.25 {
		t.Errorf("BLUE: DawningCloud/DRP = %.2f, want near 1 (paper: 35201/35838)", ratio)
	}
	// Table 4 shape: DawningCloud matches the fixed systems on Montage
	// while DRP pays for the workflow's full width.
	mDCS, mDRP, mDC := get("DCS", MontageProvider), get("DRP", MontageProvider), get("DawningCloud", MontageProvider)
	if mDCS != 166 {
		t.Errorf("Montage DCS = %.0f, want 166 (fixed RE for one billed hour)", mDCS)
	}
	if diff := mDC / mDCS; diff < 0.85 || diff > 1.15 {
		t.Errorf("Montage: DawningCloud %.0f not within 15%% of DCS %.0f", mDC, mDCS)
	}
	if mDRP < 3*mDCS {
		t.Errorf("Montage: DRP %.0f not >= 3x DCS %.0f (paper: -298.8%%)", mDRP, mDCS)
	}
}

// TestPaperShapeThroughput asserts the performance columns: queued systems
// never beat DRP, and DawningCloud matches DCS/SSP.
func TestPaperShapeThroughput(t *testing.T) {
	rs, err := shared.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, prov := range []string{NASAProvider, BLUEProvider} {
		dcs, _ := rs["DCS"].Provider(prov)
		drp, _ := rs["DRP"].Provider(prov)
		dc, _ := rs["DawningCloud"].Provider(prov)
		if drp.Completed < dcs.Completed {
			t.Errorf("%s: DRP completed %d < DCS %d", prov, drp.Completed, dcs.Completed)
		}
		if dc.Completed < dcs.Completed {
			t.Errorf("%s: DawningCloud completed %d < DCS %d", prov, dc.Completed, dcs.Completed)
		}
	}
	dcs, _ := rs["DCS"].Provider(MontageProvider)
	drp, _ := rs["DRP"].Provider(MontageProvider)
	dc, _ := rs["DawningCloud"].Provider(MontageProvider)
	if drp.TasksPerSecond < dcs.TasksPerSecond {
		t.Errorf("Montage: DRP tasks/s %.2f < DCS %.2f", drp.TasksPerSecond, dcs.TasksPerSecond)
	}
	if ratio := dc.TasksPerSecond / dcs.TasksPerSecond; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("Montage: DawningCloud/DCS tasks/s = %.2f, want ~1 (paper: 2.49/2.49)", ratio)
	}
	if dcs.Completed != 1000 || drp.Completed != 1000 || dc.Completed != 1000 {
		t.Error("Montage workflow did not complete in some system")
	}
}

// TestPaperShapeResourceProvider asserts Figures 12-14: total, peak and
// adjustment orderings for the resource provider.
func TestPaperShapeResourceProvider(t *testing.T) {
	rs, err := shared.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	dcs, ssp, drp, dc := rs["DCS"], rs["SSP"], rs["DRP"], rs["DawningCloud"]
	// Figure 12: DawningCloud's total is the lowest.
	if dc.TotalNodeHours >= dcs.TotalNodeHours {
		t.Errorf("total: DawningCloud %.0f not below DCS %.0f (paper: -29.7%%)",
			dc.TotalNodeHours, dcs.TotalNodeHours)
	}
	if dc.TotalNodeHours >= drp.TotalNodeHours {
		t.Errorf("total: DawningCloud %.0f not below DRP %.0f (paper: -29.0%%)",
			dc.TotalNodeHours, drp.TotalNodeHours)
	}
	if dcs.TotalNodeHours != ssp.TotalNodeHours {
		t.Errorf("total: DCS %.0f != SSP %.0f", dcs.TotalNodeHours, ssp.TotalNodeHours)
	}
	// Figure 13: DCS/SSP peak is the sum of fixed REs; DawningCloud sits
	// within ~25% of it (paper: 1.06x) and far below DRP (paper: 0.21x).
	if dcs.PeakNodes != 438 {
		t.Errorf("DCS peak = %d, want 438 (128+144+166)", dcs.PeakNodes)
	}
	ratio := float64(dc.PeakNodes) / float64(dcs.PeakNodes)
	if ratio < 0.95 || ratio > 1.3 {
		t.Errorf("peak: DawningCloud/DCS = %.2f, want ~1.06", ratio)
	}
	if dc.PeakNodes >= drp.PeakNodes {
		t.Errorf("peak: DawningCloud %d not below DRP %d", dc.PeakNodes, drp.PeakNodes)
	}
	// Figure 14: SSP adjusts least; DawningCloud adjusts less than DRP.
	if !(ssp.TotalNodesAdjusted < dc.TotalNodesAdjusted && dc.TotalNodesAdjusted < drp.TotalNodesAdjusted) {
		t.Errorf("adjustments: want SSP %d < DawningCloud %d < DRP %d",
			ssp.TotalNodesAdjusted, dc.TotalNodesAdjusted, drp.TotalNodesAdjusted)
	}
	if dcs.TotalNodesAdjusted != 0 {
		t.Errorf("DCS adjustments = %d, want 0 (owned machines)", dcs.TotalNodesAdjusted)
	}
	if dc.OverheadPerHour <= 0 {
		t.Error("DawningCloud overhead per hour not positive")
	}
	// No system should hit provisioning rejections on the open pool.
	for name, r := range rs {
		if r.RejectedRequests != 0 {
			t.Errorf("%s: %d rejected requests on an unconstrained pool", name, r.RejectedRequests)
		}
	}
}

func TestTable1Static(t *testing.T) {
	a := Table1()
	if a.ID != "table1" {
		t.Errorf("ID = %s", a.ID)
	}
	for _, want := range []string{"DCS", "SSP", "DRP", "DSP", "created on demand", "flexible"} {
		if !strings.Contains(a.Text, want) {
			t.Errorf("Table1 missing %q:\n%s", want, a.Text)
		}
	}
}

func TestTablesRender(t *testing.T) {
	arts, err := shared.ArtifactsByID(context.Background(), "table2", "table3", "table4")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		for _, system := range SystemNames {
			if !strings.Contains(a.Text, system) {
				t.Errorf("%s missing row for %s:\n%s", a.ID, system, a.Text)
			}
		}
		if a.PaperRef == "" {
			t.Errorf("%s has no paper reference", a.ID)
		}
		if len(a.Values) == 0 {
			t.Errorf("%s exposes no values", a.ID)
		}
	}
}

func TestFiguresRender(t *testing.T) {
	arts, err := shared.ArtifactsByID(context.Background(), "fig12", "fig13", "fig14")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		if !strings.Contains(a.SVG, "<svg") {
			t.Errorf("%s has no SVG", a.ID)
		}
		for _, system := range SystemNames {
			if _, ok := a.Values[system]; !ok {
				t.Errorf("%s missing value for %s", a.ID, system)
			}
		}
	}
}

func TestTCOMatchesPaper(t *testing.T) {
	a, err := TCO()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports $3,160 vs $2,260 per month, ratio 71.5%.
	if got := a.Values["dcs_total"]; got < 3100 || got > 3200 {
		t.Errorf("DCS TCO = %.1f, want ~3162.5", got)
	}
	if got := a.Values["ssp_total"]; got != 2260 {
		t.Errorf("SSP TCO = %.1f, want 2260", got)
	}
	if got := a.Values["ratio"]; got < 0.705 || got > 0.725 {
		t.Errorf("ratio = %.3f, want ~0.715", got)
	}
}

// TestSweepParameterEffects checks the Figure 11 trade-off: with B=10 and
// R=8 the first Montage wave (166 ready tasks against 10 owned) trips DR1
// and the TRE expands to the working width, while with B=80 the ratio
// 166/80 stays under the threshold, so the TRE never expands — cheaper but
// slower. The paper picks B10_R8 for exactly this reason.
func TestSweepParameterEffects(t *testing.T) {
	spec := shared.gridSpec(montageIndex, []float64{8})
	spec.Sweep.Grid.B = []int{10, 80}
	rep, err := scenario.Run(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts := rep.Grid
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	b10, b80 := pts[0], pts[1]
	if b80.NodeHours >= b10.NodeHours {
		t.Errorf("B80 consumption %.0f not below B10 %.0f (no expansion expected)",
			b80.NodeHours, b10.NodeHours)
	}
	if b80.TasksPerSecond >= b10.TasksPerSecond {
		t.Errorf("B80 tasks/s %.2f not below B10 %.2f (fewer nodes must be slower)",
			b80.TasksPerSecond, b10.TasksPerSecond)
	}
	for _, p := range pts {
		if p.TasksPerSecond < 0.5 || p.TasksPerSecond > 4.0 {
			t.Errorf("B%d R%g tasks/s = %.2f outside sane band", p.B, p.R, p.TasksPerSecond)
		}
	}
}

// TestSweepUnknownProvider: a grid study naming a provider the spec does
// not declare fails validation instead of sweeping nothing.
func TestSweepUnknownProvider(t *testing.T) {
	spec := shared.gridSpec(nasaIndex, []float64{1})
	spec.Sweep.Grid.Provider = "nobody"
	if _, err := scenario.Run(spec, 1); err == nil {
		t.Error("unknown provider accepted")
	}
}

func TestFigure9SweepRendersAllPoints(t *testing.T) {
	arts, err := shared.ArtifactsByID(context.Background(), "fig9")
	if err != nil {
		t.Fatal(err)
	}
	a := arts[0]
	wantPoints := len(SweepInitials) * len(SweepRatiosHTC)
	count := 0
	for k := range a.Values {
		if strings.HasPrefix(k, "nodehours_") {
			count++
		}
	}
	if count != wantPoints {
		t.Errorf("sweep points = %d, want %d", count, wantPoints)
	}
	if !strings.Contains(a.Text, "B80_R1.5") {
		t.Errorf("figure 9 missing the paper's chosen configuration:\n%s", a.Text)
	}
}

func TestArtifactsComplete(t *testing.T) {
	arts, err := shared.ArtifactsByID(context.Background(), "all")
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"table1", "fig9", "fig10", "fig11", "table2", "table3",
		"table4", "fig12", "fig13", "fig14", "tco"}
	if len(arts) != len(wantIDs) {
		t.Fatalf("artifacts = %d, want %d", len(arts), len(wantIDs))
	}
	for i, id := range wantIDs {
		if arts[i].ID != id {
			t.Errorf("artifact %d = %s, want %s", i, arts[i].ID, id)
		}
		if arts[i].Text == "" {
			t.Errorf("artifact %s has empty text", id)
		}
	}
}

func TestQuickSuiteRuns(t *testing.T) {
	q := NewQuickSuite(7)
	r, err := q.runSystem(context.Background(), "DawningCloud")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Providers) != 3 {
		t.Errorf("quick suite providers = %d, want 3", len(r.Providers))
	}
	if r.Horizon != 4*24*3600 {
		t.Errorf("quick horizon = %d, want 4 days", r.Horizon)
	}
}

func TestSuiteDeterminism(t *testing.T) {
	a := NewSuite(123)
	b := NewSuite(123)
	ra, err := a.runSystem(context.Background(), "DawningCloud")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.runSystem(context.Background(), "DawningCloud")
	if err != nil {
		t.Fatal(err)
	}
	if ra.TotalNodeHours != rb.TotalNodeHours || ra.PeakNodes != rb.PeakNodes {
		t.Errorf("same seed produced different results: %.0f/%d vs %.0f/%d",
			ra.TotalNodeHours, ra.PeakNodes, rb.TotalNodeHours, rb.PeakNodes)
	}
}

// TestZeroDaysRejected: a suite without a window fails every study and
// the oracle alike, instead of a study quietly running the two-week
// default.
func TestZeroDaysRejected(t *testing.T) {
	s := &Suite{Seed: 42}
	for _, id := range []string{"table2", "fig9", "ext-scale", "ext-backfill"} {
		if _, err := s.ArtifactsByID(context.Background(), id); err == nil {
			t.Errorf("%s ran with a zero-day window", id)
		}
	}
	if _, err := s.RunAll(); err == nil {
		t.Error("RunAll ran with a zero-day window")
	}
}
