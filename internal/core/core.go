// Package core assembles DawningCloud, the paper's enabling system for the
// dynamic service provision (DSP) model: a Common Service Framework owned
// by the resource provider plus one thin runtime environment per service
// provider, consolidated on a single cloud platform.
//
// The runner reproduces the emulated DawningCloud of the paper's Figure 6:
// the resource provision service, one HTC server and scheduler per HTC
// provider, one MTC server, scheduler and trigger monitor per MTC provider,
// and a job emulator feeding traces and workflow files on the virtual
// clock. MTC runtime environments destroy themselves when their computing
// service finishes, releasing the initial lease; HTC runtime environments
// live through the whole accounting window.
package core

import (
	"context"
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/systems"
	"repro/internal/tre"
)

// Config extends the shared run options with DawningCloud-specific knobs.
type Config struct {
	systems.Options
	// EasyBackfill swaps the HTC dispatch policy for EASY backfilling,
	// the scheduler ablation.
	EasyBackfill bool
	// DeployDelay and StartDelay emulate TRE creation latency.
	DeployDelay sim.Time
	StartDelay  sim.Time
}

// Backend describes DawningCloud with cfg's DawningCloud-only knobs
// (cfg.Options is ignored: every driver passes its own options to
// Open). Its pool never rejects by default, so every dynamic grant
// succeeds regardless of what other providers hold and partitions need
// no gate.
func Backend(cfg Config) systems.Backend {
	return systems.Backend{
		Name: "DawningCloud",
		Open: func(capacity int, opts systems.Options, _ int) (systems.Instance, error) {
			c := cfg
			c.Options = opts
			return Open(capacity, c)
		},
		DefaultCapacity: systems.Unbounded,
	}
}

// Run simulates DawningCloud over the given workloads with cfg's knobs
// and returns the shared Result type for comparison with the baseline
// systems; see systems.Run.
func Run(ctx context.Context, workloads []systems.Workload, cfg Config) (systems.Result, error) {
	return systems.Run(ctx, Backend(cfg), workloads, cfg.Options)
}

// Instance is an open DawningCloud simulation (see systems.Instance).
type Instance struct {
	systems.Platform
	cfg       Config
	framework *csf.Framework
	servers   systems.Servers
}

// Open opens an empty DawningCloud instance over a pool of capacity
// nodes (positive).
func Open(capacity int, cfg Config) (*Instance, error) {
	p, err := systems.NewPlatform(capacity, cfg.Options)
	if err != nil {
		return nil, err
	}
	framework := csf.NewFramework(p.Engine())
	framework.DeployDelay = cfg.DeployDelay
	framework.StartDelay = cfg.StartDelay
	return &Instance{Platform: p, cfg: cfg, framework: framework}, nil
}

// Attach admits one provider workload: its thin runtime environment
// walks through the CSF create-and-start lifecycle at the first
// submission, and each job (HTC) or whole workflow (MTC) goes to its
// server on arrival. An MTC runtime environment destroys itself once
// every task of the workload completed. The initial lease must fit the
// pool.
func (x *Instance) Attach(wl *systems.Workload) error {
	if _, capacity := x.PoolLoad(); wl.Params.InitialNodes > capacity {
		return fmt.Errorf("core: workload %s: runtime environment of %d nodes exceeds the pool's %d", wl.Name, wl.Params.InitialNodes, capacity)
	}
	if err := x.Claim(wl.Name); err != nil {
		return err
	}
	cfg := tre.Config{Name: wl.Name, Params: wl.Params}
	switch wl.Class {
	case job.HTC:
		cfg.EasyBackfill = x.cfg.EasyBackfill
		srv, err := tre.NewHTCServer(x.Engine(), x.Provision(), cfg)
		if err != nil {
			return err
		}
		x.servers.Add(wl, srv)
		return x.FeedJobs(wl, x.createTRE(wl.Name, "HTC", srv.Start), srv.Submit)
	case job.MTC:
		srv, err := tre.NewMTCServer(x.Engine(), x.Provision(), cfg)
		if err != nil {
			return err
		}
		srv.DestroyAfter(len(wl.Jobs))
		x.servers.Add(wl, srv)
		return x.FeedWorkflows(wl, x.createTRE(wl.Name, "MTC", srv.Start), srv.SubmitWorkflow)
	}
	return fmt.Errorf("core: workload %s: unknown class %v", wl.Name, wl.Class)
}

// Finalize settles open leases at horizon and assembles the Result over
// every attached workload, in attach order.
func (x *Instance) Finalize(horizon sim.Time) (systems.Result, error) {
	return x.Settle("DawningCloud", horizon, true, x.servers.Aggs(horizon, false))
}

// Window snapshots every attached provider at virtual time t, for
// per-window streamed reports; see systems.FixedInstance.Window.
func (x *Instance) Window(t sim.Time) []systems.ProviderWindow {
	return systems.BuildWindow(x.Accounting(), t, x.servers.Aggs(t, false))
}

// createTRE returns the start hook that walks a thin runtime
// environment through the CSF create-and-start lifecycle, starting its
// server once the TRE is running. A failed creation or start stops the
// run and fails it at Finalize (see systems.Platform.Starter).
func (x *Instance) createTRE(name, kind string, start func() error) func() {
	return x.Starter(func() error {
		_, err := x.framework.CreateTRE(name, kind, x.Starter(start))
		return err
	})
}
