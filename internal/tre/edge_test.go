package tre

import (
	"testing"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/workflow"
)

// TestMTCServerRunsMultipleWorkflows submits two workflows with colliding
// task ID spaces; the per-submission namespacing must keep them apart.
func TestMTCServerRunsMultipleWorkflows(t *testing.T) {
	f := newFixture(t, 1000)
	m, err := NewMTCServer(f.engine, f.prov, Config{
		Name:   "mtc-multi",
		Params: policy.MTCDefaults(4, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	mkChain := func(name string) []*job.Job {
		a := &job.Job{ID: 1, Nodes: 1, Runtime: 30, Workflow: name}
		b := &job.Job{ID: 2, Nodes: 1, Runtime: 30, Workflow: name, Deps: []int{1}}
		return []*job.Job{a, b}
	}
	if err := m.SubmitWorkflow(mkChain("w1")); err != nil {
		t.Fatalf("first workflow: %v", err)
	}
	if err := m.SubmitWorkflow(mkChain("w2")); err != nil {
		t.Fatalf("second workflow with same IDs: %v", err)
	}
	f.engine.Run(3600)
	if m.Completed() != 4 {
		t.Errorf("Completed = %d, want 4 across two workflows", m.Completed())
	}
	if m.WaitingTasks() != 0 {
		t.Errorf("WaitingTasks = %d, want 0", m.WaitingTasks())
	}
}

// TestMTCSecondWorkflowAfterFirstCompletes exercises ID reuse over time.
func TestMTCSecondWorkflowAfterFirstCompletes(t *testing.T) {
	f := newFixture(t, 1000)
	m, err := NewMTCServer(f.engine, f.prov, Config{
		Name:   "mtc-seq",
		Params: policy.MTCDefaults(4, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	a := &job.Job{ID: 1, Nodes: 1, Runtime: 10}
	if err := m.SubmitWorkflow([]*job.Job{a}); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(600)
	b := &job.Job{ID: 1, Nodes: 1, Runtime: 10}
	if err := m.SubmitWorkflow([]*job.Job{b}); err != nil {
		t.Fatalf("resubmitting ID 1 after completion: %v", err)
	}
	f.engine.Run(1200)
	if m.Completed() != 2 {
		t.Errorf("Completed = %d, want 2", m.Completed())
	}
}

// TestEasyBackfillServerCompletesMixedQueue runs the ablation scheduler on
// a queue where a wide head job would block FCFS.
func TestEasyBackfillServerCompletesMixedQueue(t *testing.T) {
	f := newFixture(t, 100)
	s, err := NewHTCServer(f.engine, f.prov, Config{
		Name:         "htc-easy",
		Params:       policy.HTCDefaults(10, 1e18), // fixed lease
		EasyBackfill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Head occupies 8 nodes for 100 s; the 10-node job must wait; small
	// jobs may backfill if they finish inside the head's shadow.
	s.Submit(&job.Job{ID: 1, Nodes: 8, Runtime: 100})
	s.Submit(&job.Job{ID: 2, Nodes: 10, Runtime: 50})
	s.Submit(&job.Job{ID: 3, Nodes: 2, Runtime: 60})
	f.engine.Run(3600)
	if s.Completed() != 3 {
		t.Errorf("Completed = %d, want 3", s.Completed())
	}
}

// TestDestroyMidWorkflowReleasesPool destroys an MTC TRE while tasks wait
// on dependencies: the pool must recover every node.
func TestDestroyMidWorkflowReleasesPool(t *testing.T) {
	f := newFixture(t, 1000)
	m, err := NewMTCServer(f.engine, f.prov, Config{
		Name:   "mtc-abort",
		Params: policy.MTCDefaults(8, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	dag, err := workflow.Montage(workflow.MontageConfig{Seed: 1, Images: 20})
	if err != nil {
		t.Fatal(err)
	}
	jobs := dag.Jobs(0)
	ptrs := make([]*job.Job, len(jobs))
	for i := range jobs {
		ptrs[i] = &jobs[i]
	}
	if err := m.SubmitWorkflow(ptrs); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(30) // mid-flight
	if m.Completed() == 0 {
		t.Fatal("nothing ran before the abort")
	}
	if err := m.Destroy(); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if f.pool.InUse() != 0 {
		t.Errorf("pool in use = %d after destroy, want 0", f.pool.InUse())
	}
	// Pending completion events for running tasks must be harmless.
	f.engine.Run(7200)
}

// TestHTCZeroRuntimeJobCompletesImmediately covers the degenerate runtime.
func TestHTCZeroRuntimeJobCompletesImmediately(t *testing.T) {
	f := newFixture(t, 100)
	s := newHTC(t, f, 4, 1.5)
	s.Submit(&job.Job{ID: 1, Nodes: 1, Runtime: 0})
	f.engine.Run(60)
	if s.Completed() != 1 {
		t.Errorf("Completed = %d, want 1", s.Completed())
	}
}

// TestQueueDrainAfterRejectionRecovers: once pool pressure clears, a
// previously rejected DR2 request succeeds at a later scan.
func TestQueueDrainAfterRejectionRecovers(t *testing.T) {
	f := newFixture(t, 30)
	s := newHTC(t, f, 10, 2.0)
	// A competing tenant holds 15 nodes for one hour.
	tenant, err := f.prov.RequestInitial("tenant", 15)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.Schedule(3600, func() {
		if err := f.prov.ReleaseLease("tenant", tenant); err != nil {
			t.Errorf("tenant release: %v", err)
		}
	})
	// Needs DR2 of 15; only 5 free until the tenant leaves.
	s.Submit(&job.Job{ID: 1, Nodes: 25, Runtime: 100})
	f.engine.Run(3500)
	if s.Completed() != 0 {
		t.Fatal("job ran before capacity existed")
	}
	f.engine.Run(7200)
	if s.Completed() != 1 {
		t.Errorf("Completed = %d, want 1 after the tenant releases", s.Completed())
	}
}
