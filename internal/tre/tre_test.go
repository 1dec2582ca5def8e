package tre

import (
	"testing"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/nodepool"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workflow"
)

type fixture struct {
	engine *sim.Engine
	pool   *nodepool.Pool
	acct   *metrics.Accountant
	prov   *csf.ProvisionService
}

func newFixture(t *testing.T, capacity int) *fixture {
	t.Helper()
	engine := sim.New()
	pool, err := nodepool.NewPool(capacity)
	if err != nil {
		t.Fatal(err)
	}
	acct := metrics.NewAccountant(engine.Now)
	prov := csf.NewProvisionService(pool, acct, policy.GrantOrReject, csf.DefaultNodeSetupSeconds)
	return &fixture{engine: engine, pool: pool, acct: acct, prov: prov}
}

func newHTC(t *testing.T, f *fixture, b int, r float64) *Server {
	t.Helper()
	s, err := NewHTCServer(f.engine, f.prov, Config{
		Name:   "htc-test",
		Params: policy.HTCDefaults(b, r),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStartAcquiresInitialResources(t *testing.T) {
	f := newFixture(t, 100)
	s := newHTC(t, f, 40, 1.5)
	if s.Owned() != 40 {
		t.Errorf("Owned = %d, want 40", s.Owned())
	}
	if f.pool.Held("htc-test") != 40 {
		t.Errorf("pool holding = %d, want 40", f.pool.Held("htc-test"))
	}
}

func TestStartFailsWithoutCapacity(t *testing.T) {
	f := newFixture(t, 10)
	s, err := NewHTCServer(f.engine, f.prov, Config{
		Name:   "big",
		Params: policy.HTCDefaults(50, 1.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("Start succeeded beyond pool capacity")
	}
}

func TestDoubleStartFails(t *testing.T) {
	f := newFixture(t, 100)
	s := newHTC(t, f, 10, 1.5)
	if err := s.Start(); err == nil {
		t.Error("second Start succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	f := newFixture(t, 10)
	if _, err := NewHTCServer(f.engine, f.prov, Config{Name: "x"}); err == nil {
		t.Error("zero Params accepted")
	}
	if _, err := NewHTCServer(f.engine, f.prov, Config{Params: policy.HTCDefaults(1, 1)}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestJobRunsAtNextScanAndCompletes(t *testing.T) {
	f := newFixture(t, 100)
	s := newHTC(t, f, 10, 1.5)
	j := &job.Job{ID: 1, Nodes: 4, Runtime: 120}
	s.Submit(j)
	// The job loads at submission (event-driven dispatch) and completes
	// at t=120.
	f.engine.Run(119)
	if s.Completed() != 0 {
		t.Fatalf("completed early: %d", s.Completed())
	}
	if s.Busy() != 4 {
		t.Fatalf("Busy = %d, want 4", s.Busy())
	}
	f.engine.Run(120)
	if s.Completed() != 1 {
		t.Errorf("Completed = %d, want 1", s.Completed())
	}
	if s.Busy() != 0 {
		t.Errorf("Busy = %d, want 0", s.Busy())
	}
	if got := s.CompletedBy(120); got != 1 {
		t.Errorf("CompletedBy(120) = %d, want 1", got)
	}
	if got := s.CompletedBy(119); got != 0 {
		t.Errorf("CompletedBy(119) = %d, want 0", got)
	}
}

func TestDR1GrowsLeaseWhenRatioExceeded(t *testing.T) {
	f := newFixture(t, 1000)
	s := newHTC(t, f, 10, 1.5)
	// Job 1 dispatches on submit; job 2 loads when it completes at t=50.
	// The scan at t=60 sees a 20-node backlog against 10 owned: ratio 2
	// exceeds 1.5, so DR1 = 20 - 10 = 10 and the lease grows to 20.
	for i := 0; i < 4; i++ {
		s.Submit(&job.Job{ID: i + 1, Nodes: 10, Runtime: 50})
	}
	f.engine.Run(60)
	if s.Owned() != 20 {
		t.Errorf("Owned = %d, want 20 after DR1", s.Owned())
	}
	if s.Busy() != 20 {
		t.Errorf("Busy = %d, want 20", s.Busy())
	}
	if s.QueueLen() != 1 {
		t.Errorf("QueueLen = %d, want 1", s.QueueLen())
	}
}

func TestDR2GrowsLeaseForBigJob(t *testing.T) {
	f := newFixture(t, 1000)
	s := newHTC(t, f, 10, 2.0)
	// One 14-node job: ratio 1.4 <= 2.0 but largest 14 > 10 -> DR2 = 4.
	s.Submit(&job.Job{ID: 1, Nodes: 14, Runtime: 50})
	f.engine.Run(60)
	if s.Owned() != 14 {
		t.Errorf("Owned = %d, want 14 after DR2", s.Owned())
	}
	if s.Busy() != 14 {
		t.Errorf("Busy = %d, want 14", s.Busy())
	}
}

func TestIdleCheckReleasesDynamicBlock(t *testing.T) {
	f := newFixture(t, 1000)
	s := newHTC(t, f, 10, 1.5)
	for i := 0; i < 4; i++ {
		s.Submit(&job.Job{ID: i + 1, Nodes: 10, Runtime: 50})
	}
	// Grant of 10 at t=60 (owned 20); all jobs drain well before the
	// idle check at t=60+3600 releases the 10-node block.
	f.engine.Run(3659)
	if s.Owned() != 20 {
		t.Fatalf("Owned = %d before idle check, want 20", s.Owned())
	}
	f.engine.Run(3660)
	if s.Owned() != 10 {
		t.Errorf("Owned = %d after idle check, want 10 (initial only)", s.Owned())
	}
	if f.pool.Held("htc-test") != 10 {
		t.Errorf("pool holding = %d, want 10", f.pool.Held("htc-test"))
	}
}

func TestIdleCheckDefersWhileBusy(t *testing.T) {
	f := newFixture(t, 1000)
	s := newHTC(t, f, 10, 1.5)
	// Long jobs keep the dynamic block busy past the first idle check.
	for i := 0; i < 4; i++ {
		s.Submit(&job.Job{ID: i + 1, Nodes: 10, Runtime: 2 * 3600})
	}
	f.engine.Run(3600) // before any release: lease still grown
	if s.Owned() <= 10 {
		t.Fatalf("Owned = %d at first check, want > 10 (still busy)", s.Owned())
	}
	// The queued fourth job dispatches as the first batch ends; once all
	// jobs drain, an hourly check releases the 20-node block.
	f.engine.Run(6 * 3600)
	if s.Owned() != 10 {
		t.Errorf("Owned = %d after drain, want 10", s.Owned())
	}
}

func TestInitialResourcesNeverReleasedByIdleCheck(t *testing.T) {
	f := newFixture(t, 1000)
	s := newHTC(t, f, 25, 1.5)
	s.Submit(&job.Job{ID: 1, Nodes: 1, Runtime: 10})
	f.engine.Run(14 * 24 * 3600) // two idle weeks
	if s.Owned() != 25 {
		t.Errorf("Owned = %d, want 25 (initial lease kept)", s.Owned())
	}
}

func TestRejectedDynamicRequestLeavesJobQueued(t *testing.T) {
	f := newFixture(t, 12)
	s := newHTC(t, f, 10, 2.0)
	// Needs DR2 of 4 but only 2 free in the pool: rejected.
	s.Submit(&job.Job{ID: 1, Nodes: 14, Runtime: 50})
	f.engine.Run(600)
	if s.QueueLen() != 1 {
		t.Errorf("QueueLen = %d, want 1 (job stuck)", s.QueueLen())
	}
	if f.prov.RejectedRequests() == 0 {
		t.Error("no rejections recorded")
	}
	if s.Owned() != 10 {
		t.Errorf("Owned = %d, want 10", s.Owned())
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	f := newFixture(t, 1000)
	s := newHTC(t, f, 10, 1.5)
	for i := 0; i < 4; i++ {
		s.Submit(&job.Job{ID: i + 1, Nodes: 10, Runtime: 5000})
	}
	f.engine.Run(60)
	if err := s.Destroy(); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if f.pool.InUse() != 0 {
		t.Errorf("pool in use = %d after destroy, want 0", f.pool.InUse())
	}
	if !s.Destroyed() {
		t.Error("Destroyed() = false")
	}
	if err := s.Destroy(); err == nil {
		t.Error("double Destroy succeeded")
	}
	// Scan loop must be dead: no panic, no further activity.
	f.engine.Run(7200)
}

func TestSubmitAfterDestroyIgnored(t *testing.T) {
	f := newFixture(t, 100)
	s := newHTC(t, f, 10, 1.5)
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	s.Submit(&job.Job{ID: 1, Nodes: 1, Runtime: 10})
	if s.Submitted() != 0 {
		t.Error("Submit after destroy counted")
	}
}

func TestFirstFitSkipsBlockedHead(t *testing.T) {
	f := newFixture(t, 50)
	s := newHTC(t, f, 10, 100) // huge R: DR1 never fires
	s.Submit(&job.Job{ID: 1, Nodes: 99, Runtime: 10})
	s.Submit(&job.Job{ID: 2, Nodes: 5, Runtime: 10})
	f.engine.Run(600)
	// DR2 asks for 89 nodes but only 40 are free: rejected every scan.
	// First-Fit passes over the blocked 99-node head: the 5-node job ran
	// and completed while the head stays queued.
	if s.Completed() != 1 {
		t.Errorf("Completed = %d, want 1 (small job ran past blocked head)", s.Completed())
	}
	if s.QueueLen() != 1 {
		t.Errorf("QueueLen = %d, want 1 (head stuck)", s.QueueLen())
	}
	if s.Owned() != 10 {
		t.Errorf("Owned = %d, want 10 (DR2 rejected)", s.Owned())
	}
}

func TestMakespanAndThroughput(t *testing.T) {
	f := newFixture(t, 100)
	s := newHTC(t, f, 10, 1.5)
	s.Submit(&job.Job{ID: 1, Nodes: 2, Runtime: 100})
	s.Submit(&job.Job{ID: 2, Nodes: 2, Runtime: 200})
	f.engine.Run(3600)
	// Jobs dispatch on submission (event-driven loading); the last
	// completion lands at t=200.
	if got := s.Makespan(); got != 200 {
		t.Errorf("Makespan = %d, want 200", got)
	}
	want := 2.0 / 200.0
	if got := s.TasksPerSecond(); got != want {
		t.Errorf("TasksPerSecond = %g, want %g", got, want)
	}
}

func TestMakespanZeroBeforeCompletion(t *testing.T) {
	f := newFixture(t, 100)
	s := newHTC(t, f, 10, 1.5)
	if s.Makespan() != 0 || s.TasksPerSecond() != 0 {
		t.Error("metrics nonzero with no completions")
	}
}

func TestMTCWorkflowRunsInDependencyOrder(t *testing.T) {
	f := newFixture(t, 1000)
	m, err := NewMTCServer(f.engine, f.prov, Config{
		Name:   "mtc-test",
		Params: policy.MTCDefaults(10, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	dag := &workflow.DAG{
		Name: "diamond",
		Tasks: []workflow.Task{
			{ID: 1, Type: "a", Runtime: 10, Nodes: 1},
			{ID: 2, Type: "b", Runtime: 20, Nodes: 1, Deps: []int{1}},
			{ID: 3, Type: "c", Runtime: 5, Nodes: 1, Deps: []int{1}},
			{ID: 4, Type: "d", Runtime: 1, Nodes: 1, Deps: []int{2, 3}},
		},
	}
	jobs := dag.Jobs(0)
	ptrs := make([]*job.Job, len(jobs))
	for i := range jobs {
		ptrs[i] = &jobs[i]
	}
	if err := m.SubmitWorkflow(ptrs); err != nil {
		t.Fatal(err)
	}
	if m.QueueLen() != 1 || m.WaitingTasks() != 3 {
		t.Fatalf("queue/waiting = %d/%d, want 1/3", m.QueueLen(), m.WaitingTasks())
	}
	f.engine.Run(3600)
	if m.Completed() != 4 {
		t.Errorf("Completed = %d, want 4", m.Completed())
	}
	if m.WaitingTasks() != 0 {
		t.Errorf("WaitingTasks = %d, want 0", m.WaitingTasks())
	}
}

func TestMTCSelfDestroyReleasesNodes(t *testing.T) {
	f := newFixture(t, 1000)
	m, err := NewMTCServer(f.engine, f.prov, Config{
		Name:                "mtc-auto",
		Params:              policy.MTCDefaults(10, 8),
		DestroyOnCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	j := job.Job{ID: 1, Nodes: 1, Runtime: 10, Class: job.MTC}
	if err := m.SubmitWorkflow([]*job.Job{&j}); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(3600)
	if !m.Destroyed() {
		t.Error("MTC TRE did not self-destroy")
	}
	if f.pool.InUse() != 0 {
		t.Errorf("pool in use = %d, want 0 after self-destroy", f.pool.InUse())
	}
}

func TestMTCDuplicateTaskIDRejected(t *testing.T) {
	f := newFixture(t, 100)
	m, err := NewMTCServer(f.engine, f.prov, Config{
		Name:   "mtc-dup",
		Params: policy.MTCDefaults(10, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := job.Job{ID: 1, Nodes: 1, Runtime: 1}
	b := job.Job{ID: 1, Nodes: 1, Runtime: 1}
	if err := m.SubmitWorkflow([]*job.Job{&a, &b}); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestMTCDemandCountsOnlyReadyTasks(t *testing.T) {
	f := newFixture(t, 10000)
	m, err := NewMTCServer(f.engine, f.prov, Config{
		Name:   "mtc-demand",
		Params: policy.MTCDefaults(10, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	// 50 ready tasks + 50 blocked tasks. At the first scan 10 dispatch
	// onto the initial nodes; the 40-task backlog gives ratio 4 > 2, so
	// DR1 = 30 and the lease grows to 40 (blocked tasks are invisible).
	tasks := make([]*job.Job, 0, 100)
	for i := 1; i <= 50; i++ {
		tasks = append(tasks, &job.Job{ID: i, Nodes: 1, Runtime: 1000})
	}
	for i := 51; i <= 100; i++ {
		tasks = append(tasks, &job.Job{ID: i, Nodes: 1, Runtime: 1000, Deps: []int{i - 50}})
	}
	if err := m.SubmitWorkflow(tasks); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(3)
	if m.Owned() != 40 {
		t.Errorf("Owned = %d, want 40 (backlog after dispatch)", m.Owned())
	}
}

func TestMontageThroughDawningCloudTRE(t *testing.T) {
	f := newFixture(t, 10000)
	m, err := NewMTCServer(f.engine, f.prov, Config{
		Name:                "mtc-montage",
		Params:              policy.MTCDefaults(10, 8),
		DestroyOnCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	dag, err := workflow.PaperMontage(1)
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
	f.engine.Run(6 * 3600)
	if m.Completed() != 1000 {
		t.Fatalf("Completed = %d, want 1000", m.Completed())
	}
	if !m.Destroyed() {
		t.Error("Montage TRE did not self-destroy")
	}
	// The DSP policy converges to the first wave's width: 166 projects
	// from B=10 via DR1 = 166-10 = 156 -> owned 166. Later levels never
	// push ratio past 8 (657/166 < 8).
	acct := f.acct
	acct.CloseAll(f.engine.Now(), true)
	billed := acct.BilledNodeHours("mtc-montage")
	if billed < 100 || billed > 300 {
		t.Errorf("billed = %g node-hours, want ~166 (paper Table 4)", billed)
	}
	tps := m.TasksPerSecond()
	if tps < 1.0 || tps > 4.0 {
		t.Errorf("tasks/s = %.2f, want ~2.5 (paper Table 4)", tps)
	}
}

func TestPoolConservationThroughBusyTraffic(t *testing.T) {
	f := newFixture(t, 500)
	s := newHTC(t, f, 20, 1.2)
	// A burst pattern exercising grants and releases repeatedly.
	for round := 0; round < 10; round++ {
		base := round * 20
		for i := 0; i < 20; i++ {
			jb := &job.Job{ID: base + i + 1, Nodes: (i % 16) + 1, Runtime: int64(100 + i*37)}
			at := int64(round * 5000)
			f.engine.At(at, func() { s.Submit(jb) })
		}
	}
	f.engine.Run(200000)
	if f.pool.InUse() != s.Owned() {
		t.Errorf("pool.InUse %d != server Owned %d", f.pool.InUse(), s.Owned())
	}
	if s.Completed() != 200 {
		t.Errorf("Completed = %d, want 200", s.Completed())
	}
	if s.Busy() != 0 {
		t.Errorf("Busy = %d, want 0 after drain", s.Busy())
	}
}
