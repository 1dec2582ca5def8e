package streamrun

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	_ "repro/internal/spot" // registers the ssp-spot backend
	"repro/internal/systems"
)

// identityCases is how many seeded cases the fuzz target's corpus
// holds, and so how many a plain go test replays.
const identityCases = 300

// randomCase builds the seeded case: one to three providers, each HTC
// with a random submit-sorted trace or MTC with one or two random
// workflows (chains and fans within each), and a horizon that often
// cuts the trace, sometimes before a provider's first submission. Every
// job fits its provider's fixed runtime environment.
func randomCase(seed int64) ([]systems.Workload, sim.Time) {
	rng := rand.New(rand.NewSource(seed))
	wls := make([]systems.Workload, 1+rng.Intn(3))
	var last sim.Time
	for i := range wls {
		fixed := 1 + rng.Intn(4)
		initial := 1 + rng.Intn(fixed)
		ratio := 1 + 2*rng.Float64()
		wl := systems.Workload{Name: fmt.Sprintf("p%d", i), FixedNodes: fixed}
		at := sim.Time(rng.Intn(3600))
		if rng.Intn(2) == 0 {
			wl.Class = job.HTC
			wl.Params = policy.HTCDefaults(initial, ratio)
			for k := 0; k < 1+rng.Intn(12); k++ {
				at += sim.Time(rng.Intn(2400))
				wl.Jobs = append(wl.Jobs, job.Job{
					ID: k + 1, Submit: at, Runtime: rng.Int63n(5400), Nodes: 1 + rng.Intn(fixed),
				})
			}
		} else {
			wl.Class = job.MTC
			wl.Params = policy.MTCDefaults(initial, ratio)
			id := 0
			for w := 0; w < 1+rng.Intn(2); w++ {
				at += sim.Time(rng.Intn(7200))
				for k := 0; k < 1+rng.Intn(5); k++ {
					id++
					t := job.Job{
						ID: id, Submit: at, Runtime: rng.Int63n(1800), Nodes: 1 + rng.Intn(fixed),
						Class: job.MTC, Workflow: fmt.Sprintf("w%d", w),
					}
					if k > 0 {
						t.Deps = []int{id - 1 - rng.Intn(k)}
					}
					wl.Jobs = append(wl.Jobs, t)
				}
			}
		}
		last = max(last, at)
		wls[i] = wl
	}
	return wls, sim.Hour + rng.Int63n(last+2*sim.Hour)
}

// checkSerialMatchesStreamed runs the seeded case on every registered
// backend, serially and streamed, and requires equal Results. Only DRP
// gets a bounded pool (with either provision policy): a fixed runtime
// environment whose initial lease does not fit cannot start at all.
func checkSerialMatchesStreamed(t *testing.T, seed int64) {
	wls, horizon := randomCase(seed)
	if err := systems.ValidateWorkloads(wls); err != nil {
		t.Fatalf("case %d: %v", seed, err)
	}
	rng := rand.New(rand.NewSource(^seed))
	for _, b := range registry.Default.Backends() {
		opts := systems.Options{Horizon: horizon, Seed: seed}
		if b.Name == systems.DRP.Name && rng.Intn(2) == 0 {
			opts.PoolCapacity = 1 + rng.Intn(8)
			opts.Provision = policy.ProvisionPolicy(rng.Intn(2))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("case %d %s: panic: %v", seed, b.Name, r)
				}
			}()
			serial, err := systems.Run(context.Background(), b, systems.CloneWorkloads(wls), opts)
			if err != nil {
				t.Fatalf("case %d %s serial: %v", seed, b.Name, err)
			}
			streamed, err := Run(context.Background(), Spec{
				System: b.Name, Workloads: systems.CloneWorkloads(wls), Options: opts,
			})
			if err != nil {
				t.Fatalf("case %d %s streamed: %v", seed, b.Name, err)
			}
			if !reflect.DeepEqual(serial, streamed) {
				t.Errorf("case %d %s (horizon %d): serial and streamed results differ\nserial:   %+v\nstreamed: %+v",
					seed, b.Name, horizon, serial, streamed)
			}
		}()
	}
}

// FuzzSerialMatchesStreamed is the property that a streamed run equals
// the materialized run of the same jobs over the same horizon, on every
// registered backend, whether or not the horizon cuts the trace. A
// plain go test replays the identityCases seeded cases; -fuzz hunts
// further seeds.
func FuzzSerialMatchesStreamed(f *testing.F) {
	for seed := int64(0); seed < identityCases; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkSerialMatchesStreamed)
}
