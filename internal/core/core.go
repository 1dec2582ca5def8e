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
	"repro/internal/stream"
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
	framework := csf.NewFramework(p.Engine(), p.Provision())
	framework.DeployDelay = cfg.DeployDelay
	framework.StartDelay = cfg.StartDelay
	return &Instance{Platform: p, cfg: cfg, framework: framework}, nil
}

// Attach admits one provider workload: its thin runtime environment is
// created through the CSF lifecycle and its job arrivals are scheduled
// on the instance clock.
func (x *Instance) Attach(wl *systems.Workload) error {
	if err := x.Claim(wl.Name); err != nil {
		return err
	}
	switch wl.Class {
	case job.HTC:
		srv, err := tre.NewHTCServer(x.Engine(), x.Provision(), tre.Config{
			Name:         wl.Name,
			Params:       wl.Params,
			EasyBackfill: x.cfg.EasyBackfill,
		})
		if err != nil {
			return err
		}
		if err := createAndFeedHTC(x.Engine(), x.framework, srv, wl); err != nil {
			return err
		}
		x.servers.Add(wl, srv)
	case job.MTC:
		srv, err := tre.NewMTCServer(x.Engine(), x.Provision(), tre.Config{
			Name:                wl.Name,
			Params:              wl.Params,
			DestroyOnCompletion: true,
		})
		if err != nil {
			return err
		}
		if err := createAndFeedMTC(x.Engine(), x.framework, srv, wl); err != nil {
			return err
		}
		x.servers.Add(wl, srv)
	default:
		return fmt.Errorf("core: workload %s: unknown class %v", wl.Name, wl.Class)
	}
	return nil
}

// Finalize settles open leases at horizon and assembles the Result over
// every attached workload, in attach order.
func (x *Instance) Finalize(horizon sim.Time) (systems.Result, error) {
	return x.Settle("DawningCloud", horizon, true, x.servers.Aggs(horizon, false)), nil
}

// Window snapshots every attached provider at virtual time t, for
// per-window streamed reports; see systems.FixedInstance.Window.
func (x *Instance) Window(t sim.Time) []systems.ProviderWindow {
	return systems.BuildWindow(x.Accounting(), t, x.servers.Aggs(t, false))
}

// createTREAt issues the CSF create-and-start lifecycle for wl's thin
// runtime environment at time t.
func createTREAt(engine *sim.Engine, fw *csf.Framework, name, kind string, t sim.Time, start func() error) {
	engine.At(t, func() {
		_, err := fw.CreateTRE(name, kind, func() {
			if err := start(); err != nil {
				panic(fmt.Sprintf("core: start TRE %s: %v", name, err))
			}
		})
		if err != nil {
			panic(fmt.Sprintf("core: create TRE %s: %v", name, err))
		}
	})
}

// createAndFeedHTC walks the TRE through the CSF lifecycle at the
// workload's first submission and schedules job arrivals.
func createAndFeedHTC(engine *sim.Engine, fw *csf.Framework, srv *tre.Server, wl *systems.Workload) error {
	createTREAt(engine, fw, wl.Name, "HTC", wl.FirstSubmit(), srv.Start)
	jobs := wl.Jobs
	engine.ScheduleBatch(len(jobs),
		func(i int) sim.Time { return jobs[i].Submit },
		func(i int) { srv.Submit(&jobs[i]) })
	return nil
}

// createAndFeedMTC does the same for an MTC provider, submitting whole
// workflows at their first task's submission time.
func createAndFeedMTC(engine *sim.Engine, fw *csf.Framework, srv *tre.MTCServer, wl *systems.Workload) error {
	createTREAt(engine, fw, wl.Name, "MTC", wl.FirstSubmit(), srv.Start)
	for _, a := range systems.MTCWorkflowActions(srv.SubmitWorkflow, wl.Name, wl.Jobs, "core") {
		engine.At(a.At, a.Run)
	}
	return nil
}

// AttachStream admits one provider workload fed through f instead of a
// materialized schedule; see systems.FixedInstance.AttachStream for the
// streaming contract (HTC jobs from src, MTC workloads as materialized
// workflow actions, one shared feeder per instance).
func (x *Instance) AttachStream(wl *systems.Workload, src stream.Source, f *stream.Feeder) error {
	if err := x.Claim(wl.Name); err != nil {
		return err
	}
	switch wl.Class {
	case job.HTC:
		srv, err := tre.NewHTCServer(x.Engine(), x.Provision(), tre.Config{
			Name:         wl.Name,
			Params:       wl.Params,
			EasyBackfill: x.cfg.EasyBackfill,
		})
		if err != nil {
			return err
		}
		if src == nil {
			src = stream.FromJobs(wl.Jobs)
		}
		err = f.AddJobs(wl.Name, src,
			func(first sim.Time) { createTREAt(x.Engine(), x.framework, wl.Name, "HTC", first, srv.Start) },
			func(j *job.Job) { srv.Submit(j) })
		if err != nil {
			return err
		}
		x.servers.Add(wl, srv)
	case job.MTC:
		if src != nil {
			return fmt.Errorf("core: workload %s: MTC workloads stream as materialized workflows (source must be nil)", wl.Name)
		}
		srv, err := tre.NewMTCServer(x.Engine(), x.Provision(), tre.Config{
			Name:                wl.Name,
			Params:              wl.Params,
			DestroyOnCompletion: true,
		})
		if err != nil {
			return err
		}
		actions := systems.MTCWorkflowActions(srv.SubmitWorkflow, wl.Name, wl.Jobs, "core")
		err = f.AddActions(wl.Name, actions,
			func(first sim.Time) { createTREAt(x.Engine(), x.framework, wl.Name, "MTC", first, srv.Start) })
		if err != nil {
			return err
		}
		x.servers.Add(wl, srv)
	default:
		return fmt.Errorf("core: workload %s: unknown class %v", wl.Name, wl.Class)
	}
	return nil
}
