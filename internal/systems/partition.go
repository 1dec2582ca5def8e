package systems

import (
	"context"
	"fmt"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sim/partition"
	"repro/internal/stats"
)

// runPartitioned executes b over P = opts.PartitionCount per-core
// kernel instances and merges their results into a Result
// byte-identical to the serial run's. Run calls it once b.Partitionable
// allows, so partitions cannot interact through simulated state and the
// workloads are already validated.
//
// Bit-identity of the merge rests on four facts, each mirroring exactly
// what BuildResult computes serially:
//
//   - Per-provider rows are computed inside each partition from that
//     provider's own lease history, which unfolds identically to the
//     serial run (isolation), and concatenate in serial provider order
//     (chunks are contiguous).
//   - TotalNodeHours and TotalNodesAdjusted re-accumulate over the
//     merged provider rows in that same order — never from per-partition
//     subtotals, whose float addition order would differ.
//   - The global PeakNodes recomputes stats.BucketMax over the union of
//     all partitions' lease intervals; BucketMax is a pure function of
//     the interval multiset, so how the intervals were partitioned is
//     invisible.
//   - OverheadSeconds is the single multiply float64(total)*setupCost,
//     exactly as serial, not a sum of per-partition products.
func runPartitioned(ctx context.Context, b Backend, workloads []Workload, opts Options) (Result, error) {
	p := opts.PartitionCount(len(workloads))
	if p < 2 {
		return Result{}, fmt.Errorf("systems: %s: partitioned run needs >= 2 partitions, have %d", b.Name, p)
	}
	horizon := opts.HorizonFor(workloads)
	bounds := chunkBounds(workloads, p)

	insts := make([]Instance, 0, len(bounds)-1)
	engines := make([]*sim.Engine, 0, len(bounds)-1)
	for k := 0; k+1 < len(bounds); k++ {
		start, end := bounds[k], bounds[k+1]
		chunk := workloads[start:end]
		inst, err := b.Open(b.DefaultCapacity(chunk), opts, start)
		if err != nil {
			return Result{}, err
		}
		for i := range chunk {
			if err := inst.Attach(&chunk[i]); err != nil {
				return Result{}, err
			}
		}
		insts = append(insts, inst)
		engines = append(engines, inst.Engine())
	}

	if _, err := partition.Run(ctx, engines, partition.Config{Horizon: horizon}); err != nil {
		return Result{}, fmt.Errorf("systems: %s partitioned run aborted: %w", b.Name, err)
	}

	parts := make([]Result, len(insts))
	for i, inst := range insts {
		r, err := inst.Finalize(horizon)
		if err != nil {
			return Result{}, err
		}
		parts[i] = r
	}
	return mergePartitionResults(b.Name, horizon, setupCostOr(opts, csf.DefaultNodeSetupSeconds), insts, parts), nil
}

// chunkBounds cuts the workload list into p contiguous chunks balanced
// by job count (the dominant cost driver), returning p+1 cut indices.
// Every chunk is non-empty; p must be <= len(workloads).
func chunkBounds(workloads []Workload, p int) []int {
	remaining := 0
	for i := range workloads {
		remaining += len(workloads[i].Jobs)
	}
	bounds := make([]int, 1, p+1)
	idx := 0
	for k := 0; k < p; k++ {
		chunksLeft := p - k
		goal := remaining / chunksLeft
		take := 0
		// Take at least one workload, then fill toward the per-chunk
		// goal while leaving one workload for each later chunk.
		for idx < len(workloads)-(chunksLeft-1) && (take == 0 || take < goal) {
			take += len(workloads[idx].Jobs)
			idx++
		}
		remaining -= take
		bounds = append(bounds, idx)
	}
	return bounds
}

// mergePartitionResults assembles the run-level Result from per-partition
// results, reproducing BuildResult's accumulation order exactly.
func mergePartitionResults(system string, horizon sim.Time, setup float64, insts []Instance, parts []Result) Result {
	res := Result{System: system, Horizon: horizon}
	for _, p := range parts {
		res.Providers = append(res.Providers, p.Providers...)
		res.RejectedRequests += p.RejectedRequests
	}
	for i := range res.Providers {
		res.TotalNodeHours += res.Providers[i].NodeHours
		res.TotalNodesAdjusted += res.Providers[i].NodesAdjusted
	}
	var ivs []stats.Interval
	for _, inst := range insts {
		ivs = append(ivs, inst.Accounting().Intervals()...)
	}
	res.PeakNodes = stats.MaxInt(stats.BucketMax(ivs, horizon, metrics.HourSeconds))
	res.OverheadSeconds = float64(res.TotalNodesAdjusted) * setup
	if horizon > 0 {
		res.OverheadPerHour = res.OverheadSeconds / (float64(horizon) / 3600)
	}
	return res
}

// mtcFitsFixed reports whether every MTC workload's widest job fits its
// fixed runtime environment. When one does not, a fixed-system MTC
// server can outgrow its own RE through the shared pool — dynamics that
// observe capacity other providers freed, which per-partition pools
// cannot reproduce — so partitioning falls back to serial.
func mtcFitsFixed(workloads []Workload) bool {
	for i := range workloads {
		wl := &workloads[i]
		if wl.Class != job.MTC {
			continue
		}
		if job.MaxNodes(wl.Jobs) > wl.FixedNodes {
			return false
		}
	}
	return true
}
