package dawningcloud

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/clustersim"
	"repro/internal/registry"
	"repro/internal/streamrun"
	"repro/internal/systems"
)

// TestRenamedBackendRunsThroughEveryDriver pins that a system is one
// registration: DCS registered a second time under a fresh name reaches
// the serial, partitioned, streamed and federated drivers with no other
// edit, and every driver's results equal DCS's except for the System
// name they carry.
func TestRenamedBackendRunsThroughEveryDriver(t *testing.T) {
	const name = "dcs-renamed"
	if _, err := registry.Default.Backend(name); err != nil {
		renamed := systems.DCS
		renamed.Name = name
		registry.Default.MustRegisterBackend(renamed)
	}
	wls, err := PaperWorkloads(42)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{Horizon: TwoWeeks}

	for _, p := range []int{0, 2} {
		popts := opts
		popts.Partitions = p
		want, err := DefaultEngine().Run(ctx, "DCS", CloneWorkloads(wls), WithOptions(popts))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DefaultEngine().Run(ctx, name, CloneWorkloads(wls), WithOptions(popts))
		if err != nil {
			t.Fatal(err)
		}
		if got.System != name {
			t.Errorf("P=%d: System = %q, want %q", p, got.System, name)
		}
		got.System = want.System
		if !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: renamed DCS diverged:\n got %+v\nwant %+v", p, got, want)
		}
	}
	b, err := registry.Default.Backend(name)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := b.Partitionable(wls, Options{Horizon: TwoWeeks, Partitions: 2}); !ok {
		t.Errorf("P=2 took the serial path (%s); the comparison above needs the partitioned one", reason)
	}

	streamed := func(system string) Result {
		res, err := streamrun.Run(ctx, streamrun.Spec{System: system, Workloads: CloneWorkloads(wls), Options: opts})
		if err != nil {
			t.Fatalf("%s streamed: %v", system, err)
		}
		res.System = ""
		return res
	}
	if got, want := streamed(name), streamed("DCS"); !reflect.DeepEqual(got, want) {
		t.Errorf("streamed renamed DCS diverged:\n got %+v\nwant %+v", got, want)
	}

	federated := func(system string) *clustersim.ClusterResult {
		cs, err := clustersim.New(clustersim.Config{
			System:    system,
			Policy:    clustersim.PolicyPinToOwner,
			Instances: make([]clustersim.InstanceConfig, len(wls)),
			Options:   opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cs.Run(ctx, CloneWorkloads(wls), nil)
		if err != nil {
			t.Fatalf("%s federated: %v", system, err)
		}
		res.System, res.Merged.System = "", ""
		for i := range res.Instances {
			res.Instances[i].Result.System = ""
		}
		return res
	}
	if got, want := federated(name), federated("DCS"); !reflect.DeepEqual(got, want) {
		t.Errorf("federated renamed DCS diverged:\n got %+v\nwant %+v", got, want)
	}
}
