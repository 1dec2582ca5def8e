package scenario

import (
	"fmt"
	"strings"

	"repro/internal/job"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/systems"
)

// ScalePoint is one provider-count prefix of the scale sweep: the
// economies-of-scale curve the paper's title question asks about.
type ScalePoint struct {
	Providers     int
	DCSNodeHours  float64
	DSPNodeHours  float64
	SavedFraction float64
	PeakNodes     int
}

// GridPoint is one B×R combination of the grid sweep (DawningCloud over
// the swept provider in isolation).
type GridPoint struct {
	B              int
	R              float64
	NodeHours      float64
	Completed      int
	TasksPerSecond float64
}

// FederationInstance summarizes one provider instance of the federated
// run.
type FederationInstance struct {
	Name       string
	Dispatched int
	NodeHours  float64
	PeakNodes  int
}

// FederationDispatch records one routing decision of the federated run:
// which instance the policy chose for a provider's workload.
type FederationDispatch struct {
	// Time is the dispatch instant in virtual seconds (the workload's
	// first submission).
	Time int64
	// Workload is the provider name; Instance is the target's 0-based
	// InstanceID.
	Workload string
	Instance int
}

// FederationReport is the federated run's section of the report (nil
// without a federation block): the spec's member providers routed across
// N instances of one system behind a shared clock.
type FederationReport struct {
	System string
	Policy string
	// Providers lists the member providers, in dispatch-owner order.
	Providers []string
	// Instances holds the per-instance summaries in InstanceID order.
	Instances []FederationInstance
	// Merged aggregates the federation as if it were one platform
	// (provider rows in workload order, totals summed; peak nodes is the
	// sum of per-instance peaks).
	Merged systems.Result
	// Dispatches is the routing log, in dispatch order.
	Dispatches []FederationDispatch
	// Windows counts the ClusterWindow aggregates emitted.
	Windows int
}

// Summary condenses the base runs into the economies-of-scale headline.
type Summary struct {
	// TotalNodeHours and PeakNodes index the resource provider's totals
	// by system.
	TotalNodeHours map[string]float64
	PeakNodes      map[string]int
	NodesAdjusted  map[string]int
	// DSPSavedVsDCS is DawningCloud's total-consumption saving against
	// dedicated clusters (0 when either system is absent).
	DSPSavedVsDCS float64
	// DSPSavedVsDRP is the saving against direct resource provision.
	DSPSavedVsDRP float64
}

// Report is a scenario run's structured output.
type Report struct {
	Spec      *Spec
	Horizon   sim.Time
	Providers []string
	Systems   []string
	// Base maps each compared system to its run over the full provider
	// set.
	Base map[string]systems.Result
	// Scale holds the provider-count sweep (empty without sweep.scale).
	Scale []ScalePoint
	// Grid holds the B×R sweep (empty without sweep.grid).
	Grid []GridPoint
	// Federation holds the federated run (nil without a federation
	// block).
	Federation *FederationReport `json:",omitempty"`
	Summary    Summary
	// Simulations counts the simulations executed: one per cell, plus
	// one for a federation.
	Simulations int64
}

func summarize(r *Report) Summary {
	s := Summary{
		TotalNodeHours: make(map[string]float64, len(r.Base)),
		PeakNodes:      make(map[string]int, len(r.Base)),
		NodesAdjusted:  make(map[string]int, len(r.Base)),
	}
	for system, res := range r.Base {
		s.TotalNodeHours[system] = res.TotalNodeHours
		s.PeakNodes[system] = res.PeakNodes
		s.NodesAdjusted[system] = res.TotalNodesAdjusted
	}
	if dsp, ok := s.TotalNodeHours["DawningCloud"]; ok {
		if dcs := s.TotalNodeHours["DCS"]; dcs > 0 {
			s.DSPSavedVsDCS = 1 - dsp/dcs
		}
		if drp := s.TotalNodeHours["DRP"]; drp > 0 {
			s.DSPSavedVsDRP = 1 - dsp/drp
		}
	}
	return s
}

// Render formats the whole report as aligned text: the header, one
// service-provider table per provider (the Tables 2-4 shape), the
// resource-provider totals, the sweep tables and the economies-of-scale
// summary.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s  (seed %d, %d-day window, %d providers, %d systems)\n",
		r.Spec.Name, r.Spec.Seed, r.Spec.Days, len(r.Providers), len(r.Systems))
	if r.Spec.Description != "" {
		fmt.Fprintf(&b, "%s\n", r.Spec.Description)
	}
	if r.Spec.Pool.Capacity > 0 {
		fmt.Fprintf(&b, "pool: %d nodes, %s provision\n", r.Spec.Pool.Capacity, r.Spec.Pool.Policy)
	}
	b.WriteByte('\n')
	for _, provider := range r.Providers {
		b.WriteString(r.providerTable(provider))
		b.WriteByte('\n')
	}
	b.WriteString(r.totalsTable())
	if len(r.Scale) > 0 {
		b.WriteByte('\n')
		b.WriteString(r.scaleTable())
	}
	if len(r.Grid) > 0 {
		b.WriteByte('\n')
		b.WriteString(r.gridTable())
	}
	if r.Federation != nil {
		b.WriteByte('\n')
		b.WriteString(r.federationTable())
	}
	b.WriteByte('\n')
	b.WriteString(r.summaryLines())
	return b.String()
}

// federationTable renders the federated run: one row per provider
// instance plus the merged federation-as-one-platform totals.
func (r *Report) federationTable() string {
	f := r.Federation
	columns := []string{"instance", "dispatched", "node*hours", "peak nodes"}
	var rows [][]string
	for _, inst := range f.Instances {
		rows = append(rows, []string{inst.Name, fmt.Sprintf("%d", inst.Dispatched),
			fmt.Sprintf("%.0f", inst.NodeHours), fmt.Sprintf("%d", inst.PeakNodes)})
	}
	rows = append(rows, []string{"merged", fmt.Sprintf("%d", len(f.Dispatches)),
		fmt.Sprintf("%.0f", f.Merged.TotalNodeHours), fmt.Sprintf("%d", f.Merged.PeakNodes)})
	title := fmt.Sprintf("federation: %d %s instances, %s routing", len(f.Instances), f.System, f.Policy)
	note := fmt.Sprintf("%d providers routed over %d aggregation windows", len(f.Providers), f.Windows)
	return plot.Table(title, columns, rows, note)
}

// providerIsMTC reports the provider's workload class as recorded in any
// base run.
func (r *Report) providerIsMTC(provider string) bool {
	for _, res := range r.Base {
		if p, ok := res.Provider(provider); ok {
			return p.Class == job.MTC
		}
	}
	return false
}

// providerTable renders one provider's per-system metrics in the shape of
// the paper's Tables 2-4.
func (r *Report) providerTable(provider string) string {
	mtc := r.providerIsMTC(provider)
	perfHeader := "completed jobs"
	if mtc {
		perfHeader = "tasks/second"
	}
	var dcsHours float64
	if res, ok := r.Base["DCS"]; ok {
		if p, ok := res.Provider(provider); ok {
			dcsHours = p.NodeHours
		}
	}
	columns := []string{"system", perfHeader, "node*hours", "peak", "adjusted", "saved vs DCS"}
	var rows [][]string
	for _, system := range r.Systems {
		res, ok := r.Base[system]
		if !ok {
			continue
		}
		p, ok := res.Provider(provider)
		if !ok {
			continue
		}
		perf := fmt.Sprintf("%d", p.Completed)
		if mtc {
			perf = fmt.Sprintf("%.2f", p.TasksPerSecond)
		}
		saved := "/"
		if system != "DCS" && dcsHours > 0 {
			saved = fmt.Sprintf("%.1f%%", (1-p.NodeHours/dcsHours)*100)
		}
		rows = append(rows, []string{system, perf, fmt.Sprintf("%.0f", p.NodeHours),
			fmt.Sprintf("%d", p.PeakNodes), fmt.Sprintf("%d", p.NodesAdjusted), saved})
	}
	return plot.Table("provider "+provider, columns, rows, "")
}

// totalsTable renders the resource provider's view across systems.
func (r *Report) totalsTable() string {
	columns := []string{"system", "total node*hours", "peak nodes", "adjustments", "overhead s/h", "rejections"}
	var rows [][]string
	for _, system := range r.Systems {
		res, ok := r.Base[system]
		if !ok {
			continue
		}
		rows = append(rows, []string{system,
			fmt.Sprintf("%.0f", res.TotalNodeHours),
			fmt.Sprintf("%d", res.PeakNodes),
			fmt.Sprintf("%d", res.TotalNodesAdjusted),
			fmt.Sprintf("%.1f", res.OverheadPerHour),
			fmt.Sprintf("%d", res.RejectedRequests)})
	}
	return plot.Table("resource provider", columns, rows, "")
}

func (r *Report) scaleTable() string {
	xs := make([]string, len(r.Scale))
	saved := make([]float64, len(r.Scale))
	peaks := make([]float64, len(r.Scale))
	for i, p := range r.Scale {
		xs[i] = fmt.Sprintf("%d", p.Providers)
		saved[i] = p.SavedFraction * 100
		peaks[i] = float64(p.PeakNodes)
	}
	series := []plot.Series{
		{Label: "DSP saving vs dedicated clusters (%)", Y: saved},
		{Label: "DSP peak nodes", Y: peaks},
	}
	return plot.LineTable("economies of scale: DSP savings vs consolidation size",
		"providers", xs, series, "each point consolidates the first n providers")
}

func (r *Report) gridTable() string {
	g := r.Spec.Sweep.Grid
	// The perf metric is fixed by the swept provider's class — never
	// per-point, so a cell that finishes zero tasks cannot splice a job
	// count into a tasks/second series.
	mtc := r.providerIsMTC(g.Provider)
	xs := make([]string, len(r.Grid))
	hours := make([]float64, len(r.Grid))
	perf := make([]float64, len(r.Grid))
	for i, p := range r.Grid {
		xs[i] = fmt.Sprintf("B%d_R%g", p.B, p.R)
		hours[i] = p.NodeHours
		if mtc {
			perf[i] = p.TasksPerSecond
		} else {
			perf[i] = float64(p.Completed)
		}
	}
	perfLabel := "completed jobs"
	if mtc {
		perfLabel = "tasks/second"
	}
	series := []plot.Series{
		{Label: "resource consumption (node*hour)", Y: hours},
		{Label: perfLabel, Y: perf},
	}
	return plot.LineTable("parameter sweep: "+g.Provider+" under DawningCloud",
		"parameters", xs, series, "each row is one (B, R) configuration")
}

func (r *Report) summaryLines() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simulations executed: %d\n", r.Simulations)
	if f := r.Federation; f != nil {
		// The consolidation comparison only makes sense when the whole
		// provider set was federated.
		if base, ok := r.Base[f.System]; ok && base.TotalNodeHours > 0 && len(f.Providers) == len(r.Providers) {
			diff := (f.Merged.TotalNodeHours/base.TotalNodeHours - 1) * 100
			fmt.Fprintf(&b, "federation vs consolidation: %s routing over %d %s instances consumes %.0f node*hours, %+.1f%% vs the consolidated %s run\n",
				f.Policy, len(f.Instances), f.System, f.Merged.TotalNodeHours, diff, f.System)
		} else {
			fmt.Fprintf(&b, "federation: %s routing over %d %s instances consumes %.0f node*hours\n",
				f.Policy, len(f.Instances), f.System, f.Merged.TotalNodeHours)
		}
	}
	if _, ok := r.Base["DawningCloud"]; !ok {
		return b.String()
	}
	if _, ok := r.Base["DCS"]; ok {
		fmt.Fprintf(&b, "economies of scale: DawningCloud consumes %.1f%% less than dedicated clusters (DCS)\n",
			r.Summary.DSPSavedVsDCS*100)
	}
	if _, ok := r.Base["DRP"]; ok {
		fmt.Fprintf(&b, "economies of scale: DawningCloud consumes %.1f%% less than per-job leases (DRP)\n",
			r.Summary.DSPSavedVsDRP*100)
	}
	return b.String()
}
