// Package streamrun opens any registered backend for a streamed run:
// one instance, one shared stream.Feeder, per-workload sources. It is
// the bridge between the scenario/service layers and the per-system
// AttachStream implementations, and carries the invariant they share: a
// streamed run drained within its horizon is byte-identical to the
// materialized run of the same jobs (see internal/stream).
package streamrun

import (
	"context"
	"fmt"

	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/systems"
)

// Spec describes one streamed run.
type Spec struct {
	// System names a backend registered in registry.Default;
	// Runner-only systems are rejected.
	System string
	// Workloads carries provider metadata in attach order. MTC
	// workloads keep their materialized job slices (whole workflows are
	// the streamed unit); HTC workloads without an entry in Sources
	// replay their own job slice.
	Workloads []systems.Workload
	// Sources maps workload names to their streaming sources.
	Sources map[string]stream.Source
	// Options are the shared run options; Horizon must be positive (a
	// streamed run cannot derive it from jobs it has not seen).
	Options systems.Options
	// Feeder tunes the refill rounds.
	Feeder stream.Options
	// Observe, if non-nil, runs after every workload is attached and
	// before the feeder starts — the place to schedule read-only
	// observers (per-window reporters) on the instance clock.
	Observe func(inst systems.Instance)
}

// Open creates the system instance, attaches every workload to one
// shared feeder and starts it. The caller drives the engine and then
// calls Finalize; Feeder.Err must be checked after the run.
func Open(spec Spec) (systems.Instance, *stream.Feeder, error) {
	if spec.Options.Horizon <= 0 {
		return nil, nil, fmt.Errorf("streamrun: %s: options.Horizon must be positive for streamed runs", spec.System)
	}
	b, err := registry.Default.Backend(spec.System)
	if err != nil {
		return nil, nil, fmt.Errorf("streamrun: %w", err)
	}
	capacity := spec.Options.PoolCapacity
	if capacity == 0 {
		capacity = b.DefaultCapacity(spec.Workloads)
	}
	inst, err := b.Open(capacity, spec.Options, 0)
	if err != nil {
		return nil, nil, err
	}
	f := stream.NewFeeder(inst.Engine(), spec.Feeder)
	for i := range spec.Workloads {
		wl := &spec.Workloads[i]
		if err := inst.AttachStream(wl, spec.Sources[wl.Name], f); err != nil {
			return nil, nil, fmt.Errorf("streamrun: %s: attach %s: %w", spec.System, wl.Name, err)
		}
	}
	if spec.Observe != nil {
		spec.Observe(inst)
	}
	if err := f.Start(); err != nil {
		return nil, nil, err
	}
	return inst, f, nil
}

// Run drives a streamed run to its horizon and finalizes the result.
// The context cancels the simulation between events; producers of live
// sources must additionally Fail them on cancellation, since a feeder
// blocked pulling a live lane cannot observe ctx.
func Run(ctx context.Context, spec Spec) (systems.Result, error) {
	inst, f, err := Open(spec)
	if err != nil {
		return systems.Result{}, err
	}
	if err := inst.Engine().RunContext(ctx, spec.Options.Horizon); err != nil {
		return systems.Result{}, fmt.Errorf("streamrun: %s run aborted: %w", spec.System, err)
	}
	if err := f.Err(); err != nil {
		return systems.Result{}, fmt.Errorf("streamrun: %s feed failed: %w", spec.System, err)
	}
	res, err := inst.Finalize(spec.Options.Horizon)
	if err != nil {
		return systems.Result{}, err
	}
	res.System, _ = registry.Default.Canonical(spec.System)
	return res, nil
}
