package streamrun

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/stream"
	"repro/internal/systems"
)

// boundedCount is the task volume of the bounded-memory stress run.
const boundedCount = 1_000_000

// boundedGen returns the O(1) generator source for the stress run; two
// calls yield byte-identical streams, which is what lets the streamed
// and materialized runs below share a reference result.
func boundedGen() *stream.Gen {
	return stream.NewGen(stream.GenConfig{
		Seed:             42,
		Count:            boundedCount,
		MeanInterarrival: 1,
		MaxRuntime:       10,
		MaxNodes:         4,
	})
}

// TestMillionTaskBoundedMemory is the package's capstone guarantee: a
// one-million-task streamed run holds O(records per stride + lookahead)
// records resident — thousands, not the million a materialized slice
// pins — while producing the identical result at comparable wall time.
func TestMillionTaskBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-task run; skipped in -short mode")
	}
	// Last submit ≈ count × mean interarrival (1s); slack covers the
	// interarrival jitter plus the longest runtimes draining.
	const horizon = 2_200_000
	wl := systems.Workload{
		Name: "org", Class: job.HTC, FixedNodes: 64,
		Params: policy.HTCDefaults(16, 1.5),
	}
	opts := systems.Options{Horizon: horizon, Seed: 7}

	// Materialized baseline: drain the generator into a slice up front
	// and run the blocking path.
	jobs := make([]job.Job, 0, boundedCount)
	src := boundedGen()
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if last := jobs[len(jobs)-1].Submit; last >= horizon {
		t.Fatalf("last submit %d is past the horizon %d; identity needs drained-within-horizon", last, horizon)
	}
	wlMat := wl
	wlMat.Jobs = jobs
	runMaterialized := func() (systems.Result, time.Duration) {
		t0 := time.Now()
		res, err := systems.Run(context.Background(), systems.SSP, []systems.Workload{wlMat}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(t0)
	}

	// Streamed run: the same jobs pulled from the generator as the
	// virtual clock advances.
	runStreamed := func() (systems.Result, *stream.Feeder, time.Duration) {
		t1 := time.Now()
		inst, f, err := Open(Spec{
			System:    "SSP",
			Workloads: []systems.Workload{wl},
			Sources:   map[string]stream.Source{"org": boundedGen()},
			Options:   opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Engine().RunContext(context.Background(), horizon); err != nil {
			t.Fatal(err)
		}
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
		got, err := inst.Finalize(horizon)
		if err != nil {
			t.Fatal(err)
		}
		return got, f, time.Since(t1)
	}

	// The halves run alternately, twice each, and each is timed by its
	// faster run: other packages' test binaries share the CPUs when the
	// whole suite runs, and a single sample per half can land on a busy
	// stretch. Each run starts from a collected heap, so no half pays
	// for the garbage the previous one left.
	var matDur, streamDur time.Duration
	for round := 0; round < 2; round++ {
		runtime.GC()
		want, d := runMaterialized()
		if round == 0 || d < matDur {
			matDur = d
		}
		runtime.GC()
		got, f, d := runStreamed()
		if round == 0 || d < streamDur {
			streamDur = d
		}

		if !reflect.DeepEqual(got, want) {
			t.Errorf("streamed %d-task result diverged from materialized", boundedCount)
		}
		if f.Delivered() != boundedCount {
			t.Errorf("feeder delivered %d records, want %d", f.Delivered(), boundedCount)
		}

		// The bounded-memory claim, on the feeder's own instrumentation:
		// at ~1 task/s the resident high-water mark is one
		// stride-plus-lookahead window of records (a few thousand), not
		// O(total tasks).
		if max := f.MaxResident(); max >= boundedCount/50 {
			t.Errorf("MaxResident = %d: not O(batch) for %d tasks", max, boundedCount)
		}
		if f.Resident() != 0 {
			t.Errorf("feeder still holds %d records after drain", f.Resident())
		}
	}

	// Wall-time parity: streaming must not cost more than 1.5× the
	// materialized run. The absolute slack absorbs scheduler noise when
	// the suite runs many packages concurrently; the typical ratio is ~1.
	limit := matDur + matDur/2 + 500*time.Millisecond
	t.Logf("streamed %v, materialized %v (faster of two runs each): ratio %.2f, limit %v",
		streamDur, matDur, float64(streamDur)/float64(matDur), limit)
	if streamDur > limit {
		t.Errorf("streamed run took %v vs materialized %v (limit %v)", streamDur, matDur, limit)
	}
}
