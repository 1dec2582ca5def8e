package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/systems"
)

// randomHTCWorkload draws a small valid HTC workload from a seed.
func randomHTCWorkload(seed int64) systems.Workload {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(30) + 5
	maxNodes := rng.Intn(24) + 8
	jobs := make([]job.Job, n)
	for i := range jobs {
		jobs[i] = job.Job{
			ID:      i + 1,
			Submit:  int64(rng.Intn(6 * 3600)),
			Runtime: int64(rng.Intn(3600) + 60),
			Nodes:   rng.Intn(maxNodes) + 1,
		}
	}
	return systems.Workload{
		Name:       "prop-htc",
		Class:      job.HTC,
		Jobs:       jobs,
		FixedNodes: maxNodes,
		Params:     policy.HTCDefaults(rng.Intn(8)+2, 1.0+rng.Float64()),
	}
}

// TestPropertyCrossSystemInvariants drives random workloads through all
// four systems and checks the invariants the evaluation relies on:
//
//  1. completions never exceed submissions and no system loses jobs that
//     had time to run;
//  2. DCS and SSP report identical performance and consumption;
//  3. the fixed systems bill exactly size x window;
//  4. every system's consumption covers at least the raw demand it served;
//  5. peaks are positive and bounded by the pool.
func TestPropertyCrossSystemInvariants(t *testing.T) {
	horizon := int64(48 * 3600) // generous: everything can finish
	f := func(seed int64) bool {
		wl := randomHTCWorkload(seed)
		opts := systems.Options{Horizon: horizon}
		dcs, err := systems.Run(context.Background(), systems.DCS, []systems.Workload{wl}, opts)
		if err != nil {
			return false
		}
		ssp, err := systems.Run(context.Background(), systems.SSP, []systems.Workload{wl}, opts)
		if err != nil {
			return false
		}
		drp, err := systems.Run(context.Background(), systems.DRP, []systems.Workload{wl}, opts)
		if err != nil {
			return false
		}
		dc, err := Run(context.Background(), []systems.Workload{wl}, Config{Options: opts})
		if err != nil {
			return false
		}
		pDCS, _ := dcs.Provider(wl.Name)
		pSSP, _ := ssp.Provider(wl.Name)
		pDRP, _ := drp.Provider(wl.Name)
		pDC, _ := dc.Provider(wl.Name)

		// (1) all jobs complete under the generous horizon.
		for _, p := range []systems.ProviderResult{pDCS, pSSP, pDRP, pDC} {
			if p.Completed != len(wl.Jobs) || p.Submitted != len(wl.Jobs) {
				return false
			}
		}
		// (2) DCS == SSP.
		if pDCS.Completed != pSSP.Completed || pDCS.NodeHours != pSSP.NodeHours {
			return false
		}
		// (3) fixed billing: the RE starts at the first submission and
		// bills whole hours until the horizon.
		leaseHours := float64((horizon - wl.FirstSubmit() + 3599) / 3600)
		if pDCS.NodeHours != float64(wl.FixedNodes)*leaseHours {
			return false
		}
		// (4) consumption >= raw demand served.
		raw := float64(job.TotalNodeSeconds(wl.Jobs)) / 3600
		for _, p := range []systems.ProviderResult{pDRP, pDC} {
			if p.NodeHours < raw-1e-6 {
				return false
			}
		}
		// (5) peaks sane.
		for _, r := range []systems.Result{dcs, ssp, drp, dc} {
			if r.PeakNodes <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDawningCloudNeverBelowInitialLease checks the B floor: the
// DSP system's consumption is at least B x window (the initial lease is
// never released while the TRE lives).
func TestPropertyDawningCloudNeverBelowInitialLease(t *testing.T) {
	horizon := int64(24 * 3600)
	f := func(seed int64) bool {
		wl := randomHTCWorkload(seed)
		dc, err := Run(context.Background(), []systems.Workload{wl}, Config{Options: systems.Options{Horizon: horizon}})
		if err != nil {
			return false
		}
		p, _ := dc.Provider(wl.Name)
		// The initial lease exists from the TRE's start — the first
		// submission — not from the epoch, so the floor covers the
		// remaining window. (With the epoch-based floor this property
		// failed for seeds pairing a late first submit with a large B,
		// e.g. 5464184659837772391.)
		floor := float64(wl.Params.InitialNodes) * float64(horizon-wl.FirstSubmit()) / 3600
		return p.NodeHours >= floor-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeterministicRuns re-runs each system on the same workload
// and requires bit-identical results.
func TestPropertyDeterministicRuns(t *testing.T) {
	f := func(seed int64) bool {
		wl := randomHTCWorkload(seed)
		opts := systems.Options{Horizon: 24 * 3600}
		a, err := systems.Run(context.Background(), systems.DRP, []systems.Workload{wl}, opts)
		if err != nil {
			return false
		}
		b, err := systems.Run(context.Background(), systems.DRP, []systems.Workload{wl}, opts)
		if err != nil {
			return false
		}
		pa, _ := a.Provider(wl.Name)
		pb, _ := b.Provider(wl.Name)
		return pa.NodeHours == pb.NodeHours && pa.Completed == pb.Completed &&
			a.PeakNodes == b.PeakNodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
