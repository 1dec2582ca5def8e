package synth

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/job"
)

func TestValidate(t *testing.T) {
	valid := NASAiPSC(1)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	valid.Days = MaxDays
	if err := valid.Validate(); err != nil {
		t.Fatalf("a %d-day model rejected: %v", MaxDays, err)
	}
	tests := []struct {
		name   string
		mutate func(*Model)
	}{
		{"zero days", func(m *Model) { m.Days = 0 }},
		{"days above bound", func(m *Model) { m.Days = MaxDays + 1 }},
		{"2^30 days", func(m *Model) { m.Days = 1 << 30 }},
		{"span overflows", func(m *Model) { m.Days = 106751991167301 }},
		{"zero nodes", func(m *Model) { m.MachineNodes = 0 }},
		{"util zero", func(m *Model) { m.TargetUtil = 0 }},
		{"util one", func(m *Model) { m.TargetUtil = 1 }},
		{"bad median", func(m *Model) { m.RuntimeMedian = 0 }},
		{"negative sigma", func(m *Model) { m.RuntimeSigma = -1 }},
		{"no sizes", func(m *Model) { m.SizeWeights = nil }},
		{"size too big", func(m *Model) { m.SizeWeights = []SizeWeight{{m.MachineNodes + 1, 1}} }},
		{"negative weight", func(m *Model) { m.SizeWeights = []SizeWeight{{1, -1}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NASAiPSC(1)
			tt.mutate(m)
			if err := m.Validate(); err == nil {
				t.Error("invalid model accepted")
			}
		})
	}
}

func checkTrace(t *testing.T, m *Model, jobs []job.Job) {
	t.Helper()
	if err := job.ValidateAll(jobs); err != nil {
		t.Fatalf("invalid workload: %v", err)
	}
	span := m.Span()
	util := float64(job.TotalNodeSeconds(jobs)) / (float64(m.MachineNodes) * float64(span))
	if math.Abs(util-m.TargetUtil) > 0.02 {
		t.Errorf("utilization = %.4f, want %.4f +/- 0.02", util, m.TargetUtil)
	}
	if got := job.MaxNodes(jobs); got != m.MachineNodes {
		t.Errorf("max nodes = %d, want machine size %d", got, m.MachineNodes)
	}
	for i := range jobs {
		if jobs[i].Nodes > m.MachineNodes {
			t.Fatalf("job %d demands %d > machine %d", jobs[i].ID, jobs[i].Nodes, m.MachineNodes)
		}
		if jobs[i].Submit < 0 || jobs[i].Submit >= span {
			t.Fatalf("job %d submit %d outside [0,%d)", jobs[i].ID, jobs[i].Submit, span)
		}
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].Submit > jobs[i].Submit {
			t.Fatal("jobs not sorted by submit time")
		}
	}
}

func TestNASAGeneration(t *testing.T) {
	m := NASAiPSC(42)
	jobs, err := m.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	checkTrace(t, m, jobs)
	// The paper's window has ~2600 jobs; stay in the same order of
	// magnitude so queue dynamics are comparable.
	if len(jobs) < 1000 || len(jobs) > 10000 {
		t.Errorf("job count = %d, want O(2600)", len(jobs))
	}
}

func TestBLUEGeneration(t *testing.T) {
	m := SDSCBlue(42)
	jobs, err := m.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	checkTrace(t, m, jobs)
	if len(jobs) < 500 || len(jobs) > 10000 {
		t.Errorf("job count = %d, want O(2600)", len(jobs))
	}
}

func TestNASAJobsShorterThanBLUE(t *testing.T) {
	nasa, err := NASAiPSC(7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	blue, err := SDSCBlue(7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	meanRun := func(jobs []job.Job) float64 {
		var s float64
		for i := range jobs {
			s += float64(jobs[i].Runtime)
		}
		return s / float64(len(jobs))
	}
	if meanRun(nasa) >= meanRun(blue) {
		t.Errorf("NASA mean runtime %.0f >= BLUE %.0f; paper has NASA short, BLUE long",
			meanRun(nasa), meanRun(blue))
	}
}

func TestBLUESecondWeekBusier(t *testing.T) {
	jobs, err := SDSCBlue(42).Generate()
	if err != nil {
		t.Fatal(err)
	}
	week := int64(7 * 24 * 3600)
	var w1, w2 int64
	for i := range jobs {
		if jobs[i].Submit < week {
			w1 += jobs[i].NodeSeconds()
		} else {
			w2 += jobs[i].NodeSeconds()
		}
	}
	if w2 < w1*5/4 {
		t.Errorf("week2 demand %d not >= 1.25x week1 %d; paper: quiet then busy", w2, w1)
	}
}

func TestNASAWeeksBalanced(t *testing.T) {
	jobs, err := NASAiPSC(42).Generate()
	if err != nil {
		t.Fatal(err)
	}
	week := int64(7 * 24 * 3600)
	var w1, w2 int64
	for i := range jobs {
		if jobs[i].Submit < week {
			w1 += jobs[i].NodeSeconds()
		} else {
			w2 += jobs[i].NodeSeconds()
		}
	}
	ratio := float64(w2) / float64(w1)
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("NASA week2/week1 demand = %.2f, want near 1 (smooth trace)", ratio)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, err := NASAiPSC(99).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NASAiPSC(99).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Submit != b[i].Submit || a[i].Nodes != b[i].Nodes || a[i].Runtime != b[i].Runtime {
			t.Fatalf("job %d differs between runs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, err := NASAiPSC(1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NASAiPSC(2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i].Submit != b[i].Submit {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestDailyCycleShapesArrivals(t *testing.T) {
	jobs, err := NASAiPSC(11).Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 24)
	for i := range jobs {
		counts[(jobs[i].Submit/3600)%24]++
	}
	night := counts[2] + counts[3] + counts[4]
	day := counts[10] + counts[11] + counts[12]
	if day <= night {
		t.Errorf("daytime arrivals %d not above night %d; daily cycle missing", day, night)
	}
}

func TestGenerateRejectsInvalidModel(t *testing.T) {
	m := NASAiPSC(1)
	m.Days = -1
	if _, err := m.Generate(); err == nil {
		t.Error("Generate accepted invalid model")
	}
}

// TestGenerateRejectsDegenerateModels covers models whose arrival rate
// is not a finite positive number: Validate must name the field, and
// Generate must return that error instead of drawing Poisson counts
// from a NaN rate forever. Each Generate runs under a deadline so a
// regression fails instead of hanging the suite.
func TestGenerateRejectsDegenerateModels(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Model)
		want   string
	}{
		{"zero size weights", func(m *Model) {
			for i := range m.SizeWeights {
				m.SizeWeights[i].Weight = 0
			}
		}, "size weights sum to 0, want finite and > 0"},
		{"size weights summing past MaxFloat64", func(m *Model) {
			for i := range m.SizeWeights {
				m.SizeWeights[i].Weight = math.MaxFloat64
			}
		}, "size weights sum to +Inf"},
		{"NaN size weight", func(m *Model) { m.SizeWeights[0].Weight = math.NaN() }, "size weight NaN for size 1"},
		{"infinite size weight", func(m *Model) { m.SizeWeights[0].Weight = math.Inf(1) }, "size weight +Inf for size 1"},
		{"negative daily cycle", func(m *Model) {
			for h := range m.DailyCycle {
				m.DailyCycle[h] = -1
			}
		}, "daily cycle weight -1 for hour 0"},
		{"NaN daily cycle hour", func(m *Model) { m.DailyCycle[5] = math.NaN() }, "daily cycle weight NaN for hour 5"},
		{"negative week factor", func(m *Model) { m.WeekFactors = []float64{1, -0.5} }, "week factor -0.5 for week 2"},
		{"zero week factors", func(m *Model) { m.WeekFactors = []float64{0, 0} }, "daily cycle and week factors give the 14-day trace arrival weight 0"},
		{"zero week factor over a one-week trace", func(m *Model) {
			m.Days = 7
			m.WeekFactors = []float64{0, 1}
		}, "daily cycle and week factors give the 7-day trace arrival weight 0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NASAiPSC(1)
			tt.mutate(m)
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tt.want)
			}
			done := make(chan error, 1)
			go func() {
				_, err := m.Generate()
				done <- err
			}()
			select {
			case got := <-done:
				if got == nil || got.Error() != err.Error() {
					t.Errorf("Generate() error = %v, want %v", got, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Generate did not return within 10s")
			}
		})
	}
	// A week factor of zero still leaves the other week's arrivals.
	m := NASAiPSC(1)
	m.WeekFactors = []float64{0, 1}
	if err := m.Validate(); err != nil {
		t.Errorf("one quiet week rejected: %v", err)
	}
}

func TestFlatCycleWorks(t *testing.T) {
	m := &Model{
		Name: "flat", Seed: 3, Days: 2, MachineNodes: 16, TargetUtil: 0.5,
		RuntimeMedian: 600, RuntimeSigma: 1,
		SizeWeights: []SizeWeight{{1, 1}, {4, 1}},
	}
	jobs, err := m.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	checkTrace(t, m, jobs)
}

// Property: generation never exceeds the machine size and always hits the
// utilization target within tolerance, across seeds.
func TestPropertyCalibrationAcrossSeeds(t *testing.T) {
	f := func(seed int64) bool {
		m := &Model{
			Name: "prop", Seed: seed, Days: 3, MachineNodes: 64, TargetUtil: 0.4,
			RuntimeMedian: 900, RuntimeSigma: 1.2,
			SizeWeights: []SizeWeight{{1, 1}, {8, 1}, {32, 0.5}},
		}
		jobs, err := m.Generate()
		if err != nil {
			return false
		}
		util := float64(job.TotalNodeSeconds(jobs)) / (float64(m.MachineNodes) * float64(m.Span()))
		if math.Abs(util-0.4) > 0.03 {
			return false
		}
		for i := range jobs {
			if jobs[i].Nodes > 64 || jobs[i].Runtime < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerateNASA(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NASAiPSC(int64(i)).Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMillionTaskGeneratesAMillionTasks pins the stress model's contract:
// at least 10⁶ valid tasks over the two-week window, calibrated near its
// utilization target, deterministic per seed. Generation costs a couple
// of seconds, so -short skips it.
func TestMillionTaskGeneratesAMillionTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("million-task generation skipped in -short mode")
	}
	m := MillionTask(1)
	jobs, err := m.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 1_000_000 {
		t.Fatalf("generated %d jobs, want >= 1e6", len(jobs))
	}
	util := float64(job.TotalNodeSeconds(jobs)) / (float64(m.MachineNodes) * float64(m.Span()))
	if util < m.TargetUtil-0.02 || util > m.TargetUtil+0.02 {
		t.Errorf("realized utilization %.4f, want %.2f ± 0.02", util, m.TargetUtil)
	}
	again, err := MillionTask(1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(jobs) {
		t.Errorf("regeneration not deterministic: %d vs %d jobs", len(again), len(jobs))
	}
}

// TestMillionTaskWindowedScales checks the short-window variant stays
// valid and proportional.
func TestMillionTaskWindowedScales(t *testing.T) {
	m := MillionTaskWindowed(3, 1)
	jobs, err := m.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 50_000 {
		t.Errorf("1-day window generated %d jobs, want >= 50k (≈1e6/14)", len(jobs))
	}
	if err := job.ValidateAll(jobs); err != nil {
		t.Fatal(err)
	}
}
