package experiments

import (
	"fmt"

	"repro/internal/plot"
	"repro/internal/scenario"
)

// Paper sweep grids (Section 4.5.1): B from 10 to 80; R from 1.0 to 2.0
// for HTC and from 2 to 16 for MTC.
var (
	SweepInitials  = []int{10, 20, 40, 80}
	SweepRatiosHTC = []float64{1.0, 1.2, 1.5, 2.0}
	SweepRatiosMTC = []float64{2, 4, 8, 16}
)

// sweepArtifact renders a grid study as the paper's paired consumption/
// performance view. The performance column is tasks/second for an MTC
// provider (Figure 11) and completed jobs for an HTC one (Figures 9-10).
func sweepArtifact(id, title, paperRef string, mtc bool, rep *scenario.Report) Artifact {
	perfLabel := "completed jobs"
	if mtc {
		perfLabel = "tasks/second"
	}
	points := rep.Grid
	xs := make([]string, len(points))
	consumption := make([]float64, len(points))
	perf := make([]float64, len(points))
	values := make(map[string]float64, 4*len(points))
	for i, p := range points {
		key := fmt.Sprintf("B%d_R%g", p.B, p.R)
		xs[i] = key
		consumption[i] = p.NodeHours
		perf[i] = float64(p.Completed)
		if mtc {
			perf[i] = p.TasksPerSecond
		}
		values["nodehours_"+key] = p.NodeHours
		values["perf_"+key] = perf[i]
		values["completed_"+key] = float64(p.Completed)
		values["tps_"+key] = p.TasksPerSecond
	}
	series := []plot.Series{
		{Label: "resource consumption (node*hour)", Y: consumption},
		{Label: perfLabel, Y: perf},
	}
	return Artifact{
		ID:    id,
		Title: title,
		Text: plot.LineTable(title, "parameters", xs, series,
			"DawningCloud only; each row is one (B, R) configuration; "+
				"performance column plots "+perfLabel),
		SVG:      plot.LineChartSVG(title, "parameters (B, R)", "value", xs, series),
		PaperRef: paperRef,
		Values:   values,
	}
}

// figure9 formats the BLUE trace's B×R sweep.
func figure9(rep *scenario.Report) (Artifact, error) {
	return sweepArtifact("fig9",
		"Figure 9: resource consumption and completed jobs vs parameters, BLUE trace",
		"paper: chooses B80_R1.5 to save consumption while preserving throughput",
		false, rep), nil
}

// figure10 formats the NASA trace's B×R sweep.
func figure10(rep *scenario.Report) (Artifact, error) {
	return sweepArtifact("fig10",
		"Figure 10: resource consumption and completed jobs vs parameters, NASA trace",
		"paper: chooses B40_R1.2",
		false, rep), nil
}

// figure11 formats the Montage workload's B×R sweep.
func figure11(rep *scenario.Report) (Artifact, error) {
	return sweepArtifact("fig11",
		"Figure 11: resource consumption and tasks/second vs parameters, Montage",
		"paper: chooses B10_R8",
		true, rep), nil
}
