package experiments

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/systems"
)

// tableSpec drives the shared service-provider table construction.
type tableSpec struct {
	id         string
	title      string
	provider   string
	mtc        bool // use tasks/second instead of completed jobs
	paperRef   string
	paperSaved map[string]float64 // system -> paper's saved-vs-DCS fraction
}

// table2 reproduces the NASA-trace service-provider metrics.
func table2(rep *scenario.Report) (Artifact, error) {
	return providerTable(rep, tableSpec{
		id:       "table2",
		title:    "Table 2: metrics of the service providers for NASA trace",
		provider: NASAProvider,
		paperRef: "paper: completed 2603 for all systems; node-hours DCS/SSP 43008, " +
			"DRP 54118 (-25.8%), DawningCloud 29014 (+32.5%)",
		paperSaved: map[string]float64{"SSP": 0, "DRP": -0.258, "DawningCloud": 0.325},
	})
}

// table3 reproduces the BLUE-trace service-provider metrics.
func table3(rep *scenario.Report) (Artifact, error) {
	return providerTable(rep, tableSpec{
		id:       "table3",
		title:    "Table 3: metrics of the service provider for BLUE trace",
		provider: BLUEProvider,
		paperRef: "paper: completed 2649/2649/2657/2653; node-hours DCS/SSP 48384, " +
			"DRP 35838 (+25.9%), DawningCloud 35201 (+27.2%)",
		paperSaved: map[string]float64{"SSP": 0, "DRP": 0.259, "DawningCloud": 0.272},
	})
}

// table4 reproduces the Montage service-provider metrics.
func table4(rep *scenario.Report) (Artifact, error) {
	return providerTable(rep, tableSpec{
		id:       "table4",
		title:    "Table 4: metrics of the service provider for Montage",
		provider: MontageProvider,
		mtc:      true,
		paperRef: "paper: tasks/s 2.49/2.49/2.71/2.49; node-hours DCS/SSP 166, " +
			"DRP 662 (-298.8%), DawningCloud 166 (0%)",
		paperSaved: map[string]float64{"SSP": 0, "DRP": -2.988, "DawningCloud": 0},
	})
}

func providerTable(rep *scenario.Report, spec tableSpec) (Artifact, error) {
	dcs, ok := rep.Base["DCS"].Provider(spec.provider)
	if !ok {
		return Artifact{}, fmt.Errorf("experiments: provider %s missing from DCS run", spec.provider)
	}
	perfHeader := "completed jobs"
	if spec.mtc {
		perfHeader = "tasks/second"
	}
	columns := []string{"configuration", perfHeader, "resource consumption", "saved resources"}
	values := make(map[string]float64)
	var rows [][]string
	for _, system := range SystemNames {
		p, ok := rep.Base[system].Provider(spec.provider)
		if !ok {
			return Artifact{}, fmt.Errorf("experiments: provider %s missing from %s run", spec.provider, system)
		}
		perf := fmt.Sprintf("%d", p.Completed)
		if spec.mtc {
			perf = fmt.Sprintf("%.2f", p.TasksPerSecond)
		}
		saved := "/"
		if system != "DCS" && dcs.NodeHours > 0 {
			frac := 1 - p.NodeHours/dcs.NodeHours
			saved = fmt.Sprintf("%.1f%%", frac*100)
			values["saved_"+system] = frac
		}
		values["nodehours_"+system] = p.NodeHours
		values["completed_"+system] = float64(p.Completed)
		if spec.mtc {
			values["tps_"+system] = p.TasksPerSecond
		}
		rows = append(rows, []string{system + " system", perf, fmt.Sprintf("%.0f", p.NodeHours), saved})
	}
	text := plot.Table(spec.title, columns, rows,
		"resource consumption in node*hour; saved resources relative to the DCS system")
	return Artifact{
		ID:       spec.id,
		Title:    spec.title,
		Text:     text,
		PaperRef: spec.paperRef,
		Values:   values,
	}, nil
}

// TCO reproduces Section 4.5.5: monthly total cost of ownership of a
// service provider under DCS versus SSP (EC2 pricing).
func TCO() (Artifact, error) {
	cmp, err := cost.Compare(cost.PaperDCS(), cost.PaperEC2())
	if err != nil {
		return Artifact{}, err
	}
	columns := []string{"system", "item", "$/month"}
	var rows [][]string
	for _, it := range cmp.DCS.Items {
		rows = append(rows, []string{"DCS", it.Label, fmt.Sprintf("%.1f", it.Dollars)})
	}
	rows = append(rows, []string{"DCS", "total", fmt.Sprintf("%.1f", cmp.DCS.Total())})
	for _, it := range cmp.SSP.Items {
		rows = append(rows, []string{"SSP (EC2)", it.Label, fmt.Sprintf("%.1f", it.Dollars)})
	}
	rows = append(rows, []string{"SSP (EC2)", "total", fmt.Sprintf("%.1f", cmp.SSP.Total())})
	note := fmt.Sprintf("SSP TCO is %.1f%% of DCS TCO", cmp.Ratio*100)
	return Artifact{
		ID:       "tco",
		Title:    "Section 4.5.5: total cost of ownership per month",
		Text:     plot.Table("TCO of the service provider in the SSP and DCS systems", columns, rows, note),
		PaperRef: "paper: DCS $3,160/month; SSP $2,260/month = 71.5% of DCS",
		Values: map[string]float64{
			"dcs_total": cmp.DCS.Total(),
			"ssp_total": cmp.SSP.Total(),
			"ratio":     cmp.Ratio,
		},
	}, nil
}

// totalsFigure renders one resource-provider bar chart over the four
// systems from a per-result metric.
func totalsFigure(rep *scenario.Report, id, title, unit, paperRef string, metric func(systems.Result) float64) Artifact {
	bars := make([]plot.Bar, 0, len(SystemNames))
	values := make(map[string]float64)
	for _, system := range SystemNames {
		v := metric(rep.Base[system])
		bars = append(bars, plot.Bar{Label: system, Value: v})
		values[system] = v
	}
	return Artifact{
		ID:       id,
		Title:    title,
		Text:     plot.BarChart(title, unit, bars, 48),
		SVG:      plot.BarChartSVG(title, unit, bars),
		PaperRef: paperRef,
		Values:   values,
	}
}

// figure12 reproduces the resource provider's total resource consumption.
func figure12(rep *scenario.Report) (Artifact, error) {
	return totalsFigure(rep, "fig12",
		"Figure 12: total resource consumption of the resource provider",
		"node*hour",
		"paper: DawningCloud saves 29.7% of the DCS/SSP total and 29.0% of the DRP total",
		func(r systems.Result) float64 { return r.TotalNodeHours }), nil
}

// figure13 reproduces the resource provider's peak resource consumption.
func figure13(rep *scenario.Report) (Artifact, error) {
	return totalsFigure(rep, "fig13",
		"Figure 13: peak resource consumption of the resource provider",
		"nodes/hour",
		"paper: DawningCloud peak = 1.06x DCS/SSP peak and 0.21x DRP peak",
		func(r systems.Result) float64 { return float64(r.PeakNodes) }), nil
}

// figure14 reproduces the accumulated node-adjustment counts (management
// overhead).
func figure14(rep *scenario.Report) (Artifact, error) {
	art := totalsFigure(rep, "fig14",
		"Figure 14: accumulated times of adjusting nodes",
		"nodes adjusted",
		"paper: SSP lowest; DawningCloud below DRP; DawningCloud overhead ~341 s/hour at 15.743 s per node",
		func(r systems.Result) float64 { return float64(r.TotalNodesAdjusted) })
	dc := rep.Base["DawningCloud"]
	art.Text += fmt.Sprintf("DawningCloud management overhead: %.0f s total, %.1f s/hour\n",
		dc.OverheadSeconds, dc.OverheadPerHour)
	art.Values["dawningcloud_overhead_per_hour"] = dc.OverheadPerHour
	return art, nil
}
