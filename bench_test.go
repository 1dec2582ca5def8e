package dawningcloud

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/policy"
)

// benchSeed keeps every bench on the same deterministic workloads.
const benchSeed = 42

// printOnce prints each artifact a single time per `go test -bench` run so
// the bench output contains the regenerated tables and figures.
var printMu sync.Mutex
var printed = map[string]bool{}

func printArtifact(a experiments.Artifact) {
	printMu.Lock()
	defer printMu.Unlock()
	if printed[a.ID] {
		return
	}
	printed[a.ID] = true
	fmt.Printf("\n%s\n%s", a.PaperRef, a.Text)
}

// benchArtifact measures the full regeneration of one paper artifact.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		arts, err := experiments.NewSuite(benchSeed).ArtifactsByID(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
		a := arts[0]
		if i == 0 {
			printArtifact(a)
			reportValues(b, a)
		}
	}
}

// reportValues surfaces the artifact's headline numbers as bench metrics.
func reportValues(b *testing.B, a experiments.Artifact) {
	for _, system := range experiments.SystemNames {
		if v, ok := a.Values["nodehours_"+system]; ok {
			b.ReportMetric(v, system+"-node-hours")
		}
		if v, ok := a.Values[system]; ok {
			b.ReportMetric(v, system)
		}
	}
}

// BenchmarkTable1UsageModels regenerates the qualitative model comparison.
func BenchmarkTable1UsageModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.Table1()
		if i == 0 {
			printArtifact(a)
		}
	}
}

// BenchmarkFigure9ParamSweepBLUE regenerates the BLUE B x R sweep.
func BenchmarkFigure9ParamSweepBLUE(b *testing.B) {
	benchArtifact(b, "fig9")
}

// BenchmarkFigure10ParamSweepNASA regenerates the NASA B x R sweep.
func BenchmarkFigure10ParamSweepNASA(b *testing.B) {
	benchArtifact(b, "fig10")
}

// BenchmarkFigure11ParamSweepMontage regenerates the Montage B x R sweep.
func BenchmarkFigure11ParamSweepMontage(b *testing.B) {
	benchArtifact(b, "fig11")
}

// BenchmarkTable2NASA regenerates the NASA service-provider table.
func BenchmarkTable2NASA(b *testing.B) {
	benchArtifact(b, "table2")
}

// BenchmarkTable3BLUE regenerates the BLUE service-provider table.
func BenchmarkTable3BLUE(b *testing.B) {
	benchArtifact(b, "table3")
}

// BenchmarkTable4Montage regenerates the Montage service-provider table.
func BenchmarkTable4Montage(b *testing.B) {
	benchArtifact(b, "table4")
}

// BenchmarkFigure12TotalConsumption regenerates the resource provider's
// total consumption comparison.
func BenchmarkFigure12TotalConsumption(b *testing.B) {
	benchArtifact(b, "fig12")
}

// BenchmarkFigure13PeakConsumption regenerates the peak comparison.
func BenchmarkFigure13PeakConsumption(b *testing.B) {
	benchArtifact(b, "fig13")
}

// BenchmarkFigure14AdjustmentOverhead regenerates the management-overhead
// comparison.
func BenchmarkFigure14AdjustmentOverhead(b *testing.B) {
	benchArtifact(b, "fig14")
}

// BenchmarkTCOAnalysis regenerates the Section 4.5.5 cost comparison.
func BenchmarkTCOAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.TCO()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printArtifact(a)
			b.ReportMetric(a.Values["dcs_total"], "DCS-$/mo")
			b.ReportMetric(a.Values["ssp_total"], "SSP-$/mo")
		}
	}
}

// BenchmarkAblationEasyBackfill compares the paper's First-Fit HTC
// dispatch against EASY backfilling on the NASA trace (an extension the
// paper leaves open: its policy avoids runtime estimates).
func BenchmarkAblationEasyBackfill(b *testing.B) {
	nasa, err := NASATrace(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Horizon: TwoWeeks, Provision: policy.GrantOrReject}
	for i := 0; i < b.N; i++ {
		ff, err := DefaultEngine().Run(context.Background(), "DawningCloud", []Workload{nasa}, WithOptions(opts))
		if err != nil {
			b.Fatal(err)
		}
		easy, err := RunWithBackfill([]Workload{nasa}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pf, _ := ff.Provider("nasa-htc")
			pe, _ := easy.Provider("nasa-htc")
			b.ReportMetric(pf.NodeHours, "first-fit-node-hours")
			b.ReportMetric(pe.NodeHours, "easy-node-hours")
		}
	}
}

// BenchmarkAblationProvisionPolicy compares grant-or-reject against
// best-effort provisioning on a capacity-constrained pool (the paper's
// future-work question about provision policies).
func BenchmarkAblationProvisionPolicy(b *testing.B) {
	nasa, err := NASATrace(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		strict, err := DefaultEngine().Run(context.Background(), "DawningCloud", []Workload{nasa},
			WithOptions(Options{Horizon: TwoWeeks, PoolCapacity: 160, Provision: policy.GrantOrReject}))
		if err != nil {
			b.Fatal(err)
		}
		effort, err := DefaultEngine().Run(context.Background(), "DawningCloud", []Workload{nasa},
			WithOptions(Options{Horizon: TwoWeeks, PoolCapacity: 160, Provision: policy.BestEffort}))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ps, _ := strict.Provider("nasa-htc")
			pe, _ := effort.Provider("nasa-htc")
			b.ReportMetric(float64(ps.Completed), "strict-completed")
			b.ReportMetric(float64(pe.Completed), "best-effort-completed")
			b.ReportMetric(float64(strict.RejectedRequests), "strict-rejections")
		}
	}
}

// BenchmarkFullEvaluation regenerates every artifact in paper order, the
// whole Section 4 in one measurement. Each study fans its simulation
// cells out over all CPUs; compare with BenchmarkFullEvaluationSerial for
// the parallel speedup.
func BenchmarkFullEvaluation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite(benchSeed)
		if _, err := suite.ArtifactsByID(context.Background(), "all"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullEvaluationSerial is the workers=1 reference for the same
// artifact set: the pre-parallelization behaviour.
func BenchmarkFullEvaluationSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite(benchSeed)
		suite.Workers = 1
		if _, err := suite.ArtifactsByID(context.Background(), "all"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDawningCloudSimulation measures the raw simulator throughput on
// the consolidated three-provider workload.
func BenchmarkDawningCloudSimulation(b *testing.B) {
	wls, err := PaperWorkloads(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Horizon: TwoWeeks}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DefaultEngine().Run(context.Background(), "DawningCloud", wls, WithOptions(opts)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDawningCloudSimulationParallel runs independent full
// simulations on every P, the aggregate-throughput view of the engine:
// each iteration clones the workloads exactly like the suite's parallel
// runner does.
func BenchmarkDawningCloudSimulationParallel(b *testing.B) {
	wls, err := PaperWorkloads(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Horizon: TwoWeeks}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := DefaultEngine().Run(context.Background(), "DawningCloud", CloneWorkloads(wls), WithOptions(opts)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRunSystemsAllFour measures the Engine's fan-out runner over
// the four compared systems on all CPUs.
func BenchmarkRunSystemsAllFour(b *testing.B) {
	wls, err := PaperWorkloads(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Horizon: TwoWeeks}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DefaultEngine().RunAll(context.Background(),
			[]string{"DCS", "SSP", "DRP", "DawningCloud"}, wls, WithOptions(opts)); err != nil {
			b.Fatal(err)
		}
	}
}
