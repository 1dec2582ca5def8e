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

// TestMTCLaterWorkflowAfterEarlierDrained runs one MTC provider whose
// second workflow arrives long after the first drained, on every
// registered backend. The runtime environment must outlive the first
// workflow and tear down only once the workload's last task completed.
func TestMTCLaterWorkflowAfterEarlierDrained(t *testing.T) {
	chain := func(wf string, first int, at int64) []job.Job {
		return []job.Job{
			{ID: first, Submit: at, Runtime: 100, Nodes: 1, Class: job.MTC, Workflow: wf},
			{ID: first + 1, Submit: at, Runtime: 100, Nodes: 1, Class: job.MTC, Workflow: wf, Deps: []int{first}},
		}
	}
	wl := systems.Workload{
		Name:       "m",
		Class:      job.MTC,
		Jobs:       append(chain("w1", 1, 0), chain("w2", 3, 10000)...),
		FixedNodes: 2,
		Params:     policy.MTCDefaults(1, 2),
	}
	// Fixed runtime environments hold 2 nodes over [0, 10200): 3 billed
	// hours. DawningCloud holds its 1 initial node as long. DRP leases 1
	// node per workflow for under an hour each.
	for _, tc := range []struct {
		system    string
		nodeHours float64
	}{{"DCS", 6}, {"SSP", 6}, {"DRP", 2}, {"DawningCloud", 3}, {"ssp-spot", 6}} {
		b, err := registry.Default.Backend(tc.system)
		if err != nil {
			t.Fatal(err)
		}
		res, err := systems.Run(context.Background(), b, []systems.Workload{wl}, systems.Options{Horizon: 24 * 3600})
		if err != nil {
			t.Fatalf("%s: %v", tc.system, err)
		}
		p, _ := res.Provider("m")
		if p.Submitted != 4 || p.Completed != 4 || p.NodeHours != tc.nodeHours {
			t.Errorf("%s: submitted %d, completed %d, %g node-hours; want 4, 4, %g",
				tc.system, p.Submitted, p.Completed, p.NodeHours, tc.nodeHours)
		}
	}
}

// TestMalformedWorkflowsRefusedOnEveryBackend runs MTC workloads that
// pass the per-job checks but that no trigger monitor can run: a task
// depending on a task of another workflow, submitted before, while and
// after that task runs, and a two-task dependency cycle. Every
// registered backend must refuse each with the same error, naming the
// workload and the workflow, and none may panic.
func TestMalformedWorkflowsRefusedOnEveryBackend(t *testing.T) {
	task := func(id int, at int64, wf string, deps ...int) job.Job {
		return job.Job{ID: id, Submit: at, Runtime: 600, Nodes: 1, Class: job.MTC, Workflow: wf, Deps: deps}
	}
	type tc struct {
		name string
		jobs []job.Job
		want string
	}
	var cases []tc
	for _, at := range []int64{0, 100, 5000} {
		cases = append(cases, tc{
			name: fmt.Sprintf("cross-workflow dependency at %d s", at),
			jobs: []job.Job{task(1, 0, "a"), task(2, at, "b", 1)},
			want: `systems: workload m: workflow "b": task 2 depends on 1, absent from the workflow`,
		})
	}
	cases = append(cases, tc{
		name: "two-task cycle",
		jobs: []job.Job{task(1, 0, "w", 2), task(2, 0, "w", 1)},
		want: `systems: workload m: workflow "w": a dependency cycle blocks 2 of its 2 tasks`,
	})
	for _, c := range cases {
		wl := systems.Workload{Name: "m", Class: job.MTC, Jobs: c.jobs, FixedNodes: 2, Params: policy.MTCDefaults(1, 2)}
		for _, b := range registry.Default.Backends() {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on %s panicked: %v", c.name, b.Name, p)
					}
				}()
				_, err := systems.Run(context.Background(), b, []systems.Workload{wl}, systems.Options{Horizon: 24 * 3600})
				if err == nil || err.Error() != c.want {
					t.Errorf("%s on %s: err = %v, want %q", c.name, b.Name, err, c.want)
				}
			}()
		}
	}
}
