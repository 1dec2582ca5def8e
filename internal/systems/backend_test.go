package systems_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/registry"
	_ "repro/internal/spot" // registers the ssp-spot backend
	"repro/internal/systems"
)

// tinyHTC and tinyMTC mirror the in-package test workloads: a 3-job HTC
// provider on 8 fixed nodes and a 3-task chain workflow on 2.
func tinyHTC() systems.Workload {
	return systems.Workload{
		Name:  "htc",
		Class: job.HTC,
		Jobs: []job.Job{
			{ID: 1, Submit: 0, Runtime: 1800, Nodes: 4},
			{ID: 2, Submit: 600, Runtime: 1800, Nodes: 4},
			{ID: 3, Submit: 1200, Runtime: 1800, Nodes: 8},
		},
		FixedNodes: 8,
		Params:     policy.HTCDefaults(2, 1.5),
	}
}

func tinyMTC() systems.Workload {
	return systems.Workload{
		Name:  "mtc",
		Class: job.MTC,
		Jobs: []job.Job{
			{ID: 1, Submit: 0, Runtime: 60, Nodes: 1, Class: job.MTC, Workflow: "w"},
			{ID: 2, Submit: 0, Runtime: 60, Nodes: 2, Class: job.MTC, Workflow: "w", Deps: []int{1}},
			{ID: 3, Submit: 0, Runtime: 60, Nodes: 1, Class: job.MTC, Workflow: "w", Deps: []int{2}},
		},
		FixedNodes: 2,
		Params:     policy.MTCDefaults(1, 2),
	}
}

// TestPartitionedRunnersMatchSerial runs every registered backend over
// an irregular provider set at every feasible partition count and
// requires results identical to the serial run — including the
// capacity-bound configuration where the gate must fall back to serial
// rather than partition incorrectly.
func TestPartitionedRunnersMatchSerial(t *testing.T) {
	var wls []systems.Workload
	for i := 0; i < 6; i++ {
		var w systems.Workload
		if i%2 == 0 {
			w = tinyHTC()
		} else {
			w = tinyMTC()
		}
		w.Name = fmt.Sprintf("%s-%d", w.Name, i)
		wls = append(wls, w)
	}
	for _, b := range registry.Default.Backends() {
		// capacity 30 fits every initial RE (3x8 HTC + 3x2 MTC) but still
		// marks the run capacity-bound, which must force the serial path.
		for _, capacity := range []int{0, 30} {
			opts := systems.Options{Horizon: 6 * 3600, PoolCapacity: capacity}
			serial, err := systems.Run(context.Background(), b, wls, opts)
			if err != nil {
				t.Fatalf("%s serial: %v", b.Name, err)
			}
			for _, p := range []int{2, 3, 6} {
				popts := opts
				popts.Partitions = p
				ok, reason := b.Partitionable(wls, popts)
				if want := capacity == 0; ok != want {
					t.Errorf("%s P=%d capacity=%d: Partitionable = %v (%s), want %v", b.Name, p, capacity, ok, reason, want)
				}
				if capacity != 0 && reason != "serial: pool capacity-bound" {
					t.Errorf("%s P=%d capacity=%d: reason %q", b.Name, p, capacity, reason)
				}
				got, err := systems.Run(context.Background(), b, wls, popts)
				if err != nil {
					t.Fatalf("%s P=%d: %v", b.Name, p, err)
				}
				if !reflect.DeepEqual(got, serial) {
					t.Errorf("%s P=%d capacity=%d diverged from serial:\n got %+v\nwant %+v",
						b.Name, p, capacity, got, serial)
				}
			}
		}
	}
}

// TestPartitionedGateFallsBackOnWideMTC pins the fixed-system isolation
// gate: an MTC provider whose widest task exceeds its own RE borrows
// from the shared pool, so DCS and SSP must take the serial path (and
// still succeed) rather than partition. Systems without a fixed RE keep
// partitioning the same set.
func TestPartitionedGateFallsBackOnWideMTC(t *testing.T) {
	wide := tinyMTC()
	wide.FixedNodes = 1 // task 2 needs 2 nodes: RE outgrows itself via the pool
	wls := []systems.Workload{tinyHTC(), wide}
	opts := systems.Options{Horizon: 6 * 3600, Partitions: 2}
	for _, b := range []systems.Backend{systems.DCS, systems.SSP} {
		if ok, reason := b.Partitionable(wls, opts); ok || !strings.Contains(reason, "wider than its runtime environment") {
			t.Errorf("%s: Partitionable = %v (%q), want the wide-MTC fallback", b.Name, ok, reason)
		}
	}
	if ok, reason := systems.DRP.Partitionable(wls, opts); !ok || reason != "partitioned P=2" {
		t.Errorf("DRP: Partitionable = %v (%q), want partitioned P=2", ok, reason)
	}
	serial, err := systems.Run(context.Background(), systems.SSP, wls, systems.Options{Horizon: 6 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	got, err := systems.Run(context.Background(), systems.SSP, wls, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, serial) {
		t.Errorf("wide-MTC partitioned request diverged from serial:\n got %+v\nwant %+v", got, serial)
	}
}
