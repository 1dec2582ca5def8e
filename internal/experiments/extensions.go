package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/systems"
)

// This file implements studies beyond the paper's evaluation: the paper's
// conclusion asks for "a more formal framework to model the generalized
// case in that n resource provider provisions resources to m service
// providers" and for investigating "the optimal resource management and
// scheduling policies". The scale study, AblationBackfill and
// AblationProvision are concrete first steps on those questions using the
// same machinery.

// scaleArtifact formats the scale study: how the resource provider's DSP
// savings against per-organization dedicated clusters evolve as distinct-
// seed NASA-like organizations consolidate one by one.
func scaleArtifact(rep *scenario.Report) (Artifact, error) {
	points := rep.Scale
	xs := make([]string, len(points))
	saved := make([]float64, len(points))
	peaks := make([]float64, len(points))
	values := make(map[string]float64)
	for i, p := range points {
		xs[i] = fmt.Sprintf("%d", p.Providers)
		saved[i] = p.SavedFraction * 100
		peaks[i] = float64(p.PeakNodes)
		values[fmt.Sprintf("saved_pct_n%d", p.Providers)] = saved[i]
	}
	series := []plot.Series{
		{Label: "DSP saving vs dedicated clusters (%)", Y: saved},
		{Label: "DSP peak nodes", Y: peaks},
	}
	return Artifact{
		ID:    "ext-scale",
		Title: "Extension: economies of scale vs number of consolidated providers",
		Text: plot.LineTable("Extension: DSP savings as providers consolidate",
			"providers", xs, series,
			"each provider is a distinct-seed NASA-like organization"),
		SVG: plot.LineChartSVG("DSP savings vs consolidation size",
			"providers", "percent / nodes", xs, series),
		PaperRef: "paper future work: generalize to n providers; savings should persist or grow with consolidation",
		Values:   values,
	}, nil
}

// AblationBackfill compares the paper's First-Fit HTC dispatch with EASY
// backfilling on one workload under DawningCloud.
func (s *Suite) AblationBackfill(ctx context.Context, provider string) (Artifact, error) {
	wl, err := s.workloadByName(provider)
	if err != nil {
		return Artifact{}, err
	}
	opts := s.Options()
	ff, err := core.Run(ctx, []systems.Workload{wl.Clone()}, core.Config{Options: opts})
	if err != nil {
		return Artifact{}, err
	}
	easy, err := core.Run(ctx, []systems.Workload{wl.Clone()}, core.Config{Options: opts, EasyBackfill: true})
	if err != nil {
		return Artifact{}, err
	}
	pf, _ := ff.Provider(provider)
	pe, _ := easy.Provider(provider)
	rows := [][]string{
		{"first-fit (paper)", fmt.Sprintf("%d", pf.Completed), fmt.Sprintf("%.0f", pf.NodeHours)},
		{"EASY backfill", fmt.Sprintf("%d", pe.Completed), fmt.Sprintf("%.0f", pe.NodeHours)},
	}
	return Artifact{
		ID:    "ext-backfill",
		Title: "Extension: HTC dispatch ablation (" + provider + ")",
		Text: plot.Table("Extension: First-Fit vs EASY backfilling under DawningCloud",
			[]string{"scheduler", "completed jobs", "node*hours"}, rows,
			"the paper's policy avoids runtime estimates; EASY needs them"),
		PaperRef: "not in the paper; scheduling-policy future work",
		Values: map[string]float64{
			"firstfit_nodehours": pf.NodeHours,
			"easy_nodehours":     pe.NodeHours,
			"firstfit_completed": float64(pf.Completed),
			"easy_completed":     float64(pe.Completed),
		},
	}, nil
}

// AblationProvision contrasts the paper's grant-or-reject provision policy
// with best-effort partial grants on a capacity-constrained cloud.
func (s *Suite) AblationProvision(ctx context.Context, provider string, capacity int) (Artifact, error) {
	wl, err := s.workloadByName(provider)
	if err != nil {
		return Artifact{}, err
	}
	opts := s.Options()
	opts.PoolCapacity = capacity
	strictOpts, effortOpts := opts, opts
	strictOpts.Provision = policy.GrantOrReject
	effortOpts.Provision = policy.BestEffort
	strict, err := core.Run(ctx, []systems.Workload{wl.Clone()}, core.Config{Options: strictOpts})
	if err != nil {
		return Artifact{}, err
	}
	effort, err := core.Run(ctx, []systems.Workload{wl.Clone()}, core.Config{Options: effortOpts})
	if err != nil {
		return Artifact{}, err
	}
	ps, _ := strict.Provider(provider)
	pe, _ := effort.Provider(provider)
	rows := [][]string{
		{"grant-or-reject (paper)", fmt.Sprintf("%d", ps.Completed),
			fmt.Sprintf("%.0f", ps.NodeHours), fmt.Sprintf("%d", strict.RejectedRequests)},
		{"best-effort", fmt.Sprintf("%d", pe.Completed),
			fmt.Sprintf("%.0f", pe.NodeHours), fmt.Sprintf("%d", effort.RejectedRequests)},
	}
	return Artifact{
		ID:    "ext-provision",
		Title: fmt.Sprintf("Extension: provision-policy ablation (%s, %d-node cloud)", provider, capacity),
		Text: plot.Table("Extension: provision policies on a constrained pool",
			[]string{"policy", "completed jobs", "node*hours", "rejections"}, rows, ""),
		PaperRef: "paper future work: optimal resource management policies",
		Values: map[string]float64{
			"strict_completed": float64(ps.Completed),
			"effort_completed": float64(pe.Completed),
			"strict_rejected":  float64(strict.RejectedRequests),
			"effort_rejected":  float64(effort.RejectedRequests),
		},
	}, nil
}

func (s *Suite) workloadByName(name string) (*systems.Workload, error) {
	wls, err := s.Workloads()
	if err != nil {
		return nil, err
	}
	for i := range wls {
		if wls[i].Name == name {
			return &wls[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown provider %q", name)
}
