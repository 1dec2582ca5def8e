package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/par"
	"repro/internal/plot"
	"repro/internal/policy"
	"repro/internal/synth"
	"repro/internal/systems"
)

// This file implements studies beyond the paper's evaluation: the paper's
// conclusion asks for "a more formal framework to model the generalized
// case in that n resource provider provisions resources to m service
// providers" and for investigating "the optimal resource management and
// scheduling policies". ScaleStudy, AblationBackfill and AblationProvision
// are concrete first steps on those questions using the same machinery.

// ScalePoint is one consolidation size's outcome.
type ScalePoint struct {
	Providers     int
	DCSNodeHours  float64
	DSPNodeHours  float64
	SavedFraction float64
	PeakNodes     int
}

// ScaleStudy grows the number of consolidated HTC service providers from 1
// to n (each a distinct-seed NASA-like organization) and reports how the
// resource provider's DSP savings evolve against per-organization
// dedicated clusters: the economies-of-scale curve behind the paper's
// title question.
func (s *Suite) ScaleStudy(ctx context.Context, n int) ([]ScalePoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments: scale study needs n >= 1")
	}
	opts := s.Options()
	var out []ScalePoint
	var workloads []systems.Workload
	for i := 0; i < n; i++ {
		model := synth.NASAiPSC(s.Seed + int64(100+i))
		model.Days = s.Days
		jobs, err := model.Generate()
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, systems.Workload{
			Name:       fmt.Sprintf("org-%02d", i+1),
			Class:      job.HTC,
			Jobs:       jobs,
			FixedNodes: model.MachineNodes,
			Params:     policy.HTCDefaults(NASAInitial, NASARatio),
		})
		var dcs, dsp systems.Result
		runs := []func() error{
			func() (err error) {
				dcs, err = systems.Run(ctx, systems.DCS, systems.CloneWorkloads(workloads), opts)
				return err
			},
			func() (err error) {
				dsp, err = core.Run(ctx, systems.CloneWorkloads(workloads), core.Config{Options: opts})
				return err
			},
		}
		if err := s.runPair(runs); err != nil {
			return nil, err
		}
		pt := ScalePoint{
			Providers:    i + 1,
			DCSNodeHours: dcs.TotalNodeHours,
			DSPNodeHours: dsp.TotalNodeHours,
			PeakNodes:    dsp.PeakNodes,
		}
		if pt.DCSNodeHours > 0 {
			pt.SavedFraction = 1 - pt.DSPNodeHours/pt.DCSNodeHours
		}
		out = append(out, pt)
	}
	return out, nil
}

// ScaleArtifact renders the scale study.
func (s *Suite) ScaleArtifact(ctx context.Context, n int) (Artifact, error) {
	points, err := s.ScaleStudy(ctx, n)
	if err != nil {
		return Artifact{}, err
	}
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
	var ff, easy systems.Result
	runs := []func() error{
		func() (err error) {
			ff, err = core.Run(ctx, []systems.Workload{wl.Clone()}, core.Config{Options: opts})
			return err
		},
		func() (err error) {
			easy, err = core.Run(ctx, []systems.Workload{wl.Clone()}, core.Config{Options: opts, EasyBackfill: true})
			return err
		},
	}
	if err := s.runPair(runs); err != nil {
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
	var strict, effort systems.Result
	runs := []func() error{
		func() (err error) {
			strict, err = core.Run(ctx, []systems.Workload{wl.Clone()}, core.Config{Options: strictOpts})
			return err
		},
		func() (err error) {
			effort, err = core.Run(ctx, []systems.Workload{wl.Clone()}, core.Config{Options: effortOpts})
			return err
		},
	}
	if err := s.runPair(runs); err != nil {
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

// runPair executes an ablation's two independent simulations on the
// worker pool, each under a suite semaphore slot.
func (s *Suite) runPair(runs []func() error) error {
	return par.ForEach(s.workers(), len(runs), func(i int) error {
		return s.simulate(runs[i])
	})
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
