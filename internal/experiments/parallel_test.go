package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/systems"
)

// TestRunAllConcurrentCallers hammers one suite's oracle from many
// goroutines under -race: the workloads are built once and shared, and
// every caller must observe identical results.
func TestRunAllConcurrentCallers(t *testing.T) {
	s := NewQuickSuite(42)
	const callers = 8
	results := make([]map[string]systems.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.RunAll()
		}()
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("caller %d saw different results", i)
		}
	}
}

// TestSweepConcurrentCallers runs two different grid studies from
// concurrent goroutines over one suite, the -race check for the grid
// fan-out, and checks each figure plots the metric its class calls for.
func TestSweepConcurrentCallers(t *testing.T) {
	s := NewQuickSuite(42)
	var wg sync.WaitGroup
	var mtc, htc []Artifact
	var mtcErr, htcErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		mtc, mtcErr = s.ArtifactsByID(context.Background(), "fig11")
	}()
	go func() {
		defer wg.Done()
		htc, htcErr = s.ArtifactsByID(context.Background(), "fig10")
	}()
	wg.Wait()
	if mtcErr != nil || htcErr != nil {
		t.Fatalf("sweeps failed: %v / %v", mtcErr, htcErr)
	}
	for _, b := range SweepInitials {
		for _, r := range SweepRatiosHTC {
			key := fmt.Sprintf("B%d_R%g", b, r)
			v := htc[0].Values
			if v["tps_"+key] != 0 {
				t.Errorf("HTC point %s reports tasks/second %.2f, want 0", key, v["tps_"+key])
			}
			if v["perf_"+key] != v["completed_"+key] {
				t.Errorf("HTC point %s plots %.2f, want completed jobs %.0f", key, v["perf_"+key], v["completed_"+key])
			}
		}
		for _, r := range SweepRatiosMTC {
			key := fmt.Sprintf("B%d_R%g", b, r)
			v := mtc[0].Values
			if v["perf_"+key] != v["tps_"+key] {
				t.Errorf("MTC point %s plots %.2f, want tasks/second %.2f", key, v["perf_"+key], v["tps_"+key])
			}
		}
	}
}

// TestParallelMatchesSerial is the determinism contract: a parallel suite
// must produce bit-identical study reports and artifacts to the workers=1
// reference on the same seed.
func TestParallelMatchesSerial(t *testing.T) {
	serial := NewQuickSuite(7)
	serial.Workers = 1
	parallel := NewQuickSuite(7)
	parallel.Workers = runtime.NumCPU()

	sr, err := scenario.Run(serial.gridSpec(montageIndex, SweepRatiosMTC), serial.Workers)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := scenario.Run(parallel.gridSpec(montageIndex, SweepRatiosMTC), parallel.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr, pr) {
		t.Errorf("grid study diverged:\nserial:   %+v\nparallel: %+v", sr.Grid, pr.Grid)
	}

	sa, err := serial.ArtifactsByID(context.Background(), "all")
	if err != nil {
		t.Fatal(err)
	}
	pa, err := parallel.ArtifactsByID(context.Background(), "all")
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != len(pa) {
		t.Fatalf("artifact counts diverged: %d vs %d", len(sa), len(pa))
	}
	for i := range sa {
		if sa[i].ID != pa[i].ID {
			t.Errorf("artifact %d order diverged: %s vs %s", i, sa[i].ID, pa[i].ID)
		}
		if !reflect.DeepEqual(sa[i].Values, pa[i].Values) {
			t.Errorf("artifact %s Values diverged:\nserial:   %v\nparallel: %v",
				sa[i].ID, sa[i].Values, pa[i].Values)
		}
		if sa[i].Text != pa[i].Text {
			t.Errorf("artifact %s rendered text diverged", sa[i].ID)
		}
	}
}

// TestSweepDoesNotMutateBase: the grid studies and the ablations that
// read the oracle's workloads must never write through to them.
func TestSweepDoesNotMutateBase(t *testing.T) {
	s := NewQuickSuite(42)
	before, err := s.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := systems.CloneWorkloads(before)
	if _, err := s.ArtifactsByID(context.Background(), "fig11", "extensions"); err != nil {
		t.Fatal(err)
	}
	after, err := s.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, snapshot) {
		t.Error("running the studies mutated the suite's workloads")
	}
}

// TestWorkloadCloneIsolation asserts the clone severs every backing
// array a struct copy would share.
func TestWorkloadCloneIsolation(t *testing.T) {
	orig := systems.Workload{
		Name:  "w",
		Class: job.MTC,
		Jobs: []job.Job{
			{ID: 1, Nodes: 1, Runtime: 5, Workflow: "wf"},
			{ID: 2, Nodes: 2, Runtime: 5, Deps: []int{1}, Workflow: "wf"},
		},
		FixedNodes: 4,
	}
	c := orig.Clone()
	c.Jobs[0].Nodes = 99
	c.Jobs[1].Deps[0] = 42
	c.Params.InitialNodes = 7
	if orig.Jobs[0].Nodes != 1 {
		t.Error("clone shares the job slice")
	}
	if orig.Jobs[1].Deps[0] != 1 {
		t.Error("clone shares a Deps slice")
	}
	if orig.Params.InitialNodes != 0 {
		t.Error("clone shares params")
	}
}

// TestArtifactsConcurrentWithExtensions drives the full artifact set and
// the extension studies from concurrent goroutines, the widest -race
// surface the suite exposes.
func TestArtifactsConcurrentWithExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("full artifact set")
	}
	s := NewQuickSuite(42)
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		_, err := s.ArtifactsByID(context.Background(), "all")
		errCh <- err
	}()
	go func() {
		defer wg.Done()
		_, err := s.AblationBackfill(context.Background(), NASAProvider)
		errCh <- err
	}()
	go func() {
		defer wg.Done()
		_, err := s.ArtifactsByID(context.Background(), "ext-scale")
		errCh <- err
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Error(err)
		}
	}
}
