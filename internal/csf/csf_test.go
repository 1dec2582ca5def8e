package csf

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/nodepool"
	"repro/internal/policy"
	"repro/internal/sim"
)

// fixture is a grant-or-reject provision service with the pool and
// accountant behind it.
type fixture struct {
	*ProvisionService
	engine *sim.Engine
	pool   *nodepool.Pool
	acct   *metrics.Accountant
}

func newService(t *testing.T, capacity int) fixture {
	t.Helper()
	engine := sim.New()
	pool, err := nodepool.NewPool(capacity)
	if err != nil {
		t.Fatal(err)
	}
	acct := metrics.NewAccountant(engine.Now)
	return fixture{NewProvisionService(pool, acct, policy.GrantOrReject), engine, pool, acct}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		Inexistent: "inexistent",
		Planning:   "planning",
		Created:    "created",
		Running:    "running",
		Destroyed:  "destroyed",
		State(42):  "State(42)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, w)
		}
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	var l Lifecycle
	if l.State() != Inexistent {
		t.Fatalf("initial state = %v", l.State())
	}
	steps := []struct {
		f    func() error
		want State
	}{
		{l.Apply, Planning},
		{l.Deploy, Created},
		{l.Start, Running},
		{l.Destroy, Destroyed},
	}
	for _, s := range steps {
		if err := s.f(); err != nil {
			t.Fatalf("transition to %v: %v", s.want, err)
		}
		if l.State() != s.want {
			t.Fatalf("state = %v, want %v", l.State(), s.want)
		}
	}
}

func TestLifecycleRejectsInvalidTransitions(t *testing.T) {
	var l Lifecycle
	if err := l.Deploy(); err == nil {
		t.Error("Deploy from Inexistent succeeded")
	}
	if err := l.Start(); err == nil {
		t.Error("Start from Inexistent succeeded")
	}
	if err := l.Destroy(); err == nil {
		t.Error("Destroy from Inexistent succeeded")
	}
	_ = l.Apply()
	if err := l.Apply(); err == nil {
		t.Error("double Apply succeeded")
	}
}

func TestRequestInitialAllocatesAndAccounts(t *testing.T) {
	s := newService(t, 100)
	if _, err := s.RequestInitial("tre-a", 40); err != nil {
		t.Fatalf("RequestInitial: %v", err)
	}
	if s.pool.Held("tre-a") != 40 {
		t.Errorf("held = %d, want 40", s.pool.Held("tre-a"))
	}
	if s.acct.Held("tre-a") != 40 {
		t.Errorf("accounted held = %d, want 40", s.acct.Held("tre-a"))
	}
}

func TestRequestInitialFailsBeyondCapacity(t *testing.T) {
	s := newService(t, 10)
	if _, err := s.RequestInitial("tre-a", 11); err == nil {
		t.Error("oversized initial request succeeded")
	}
	if s.acct.Held("tre-a") != 0 {
		t.Errorf("refused initial request accounted %d nodes", s.acct.Held("tre-a"))
	}
}

// TestRequestDynamicGrantOrReject pins a runtime environment's dynamic
// requests, which RequestLease resolves.
func TestRequestDynamicGrantOrReject(t *testing.T) {
	s := newService(t, 100)
	if _, got := s.RequestLease("tre-a", 60); got != 60 {
		t.Errorf("granted = %d, want 60", got)
	}
	// Only 40 free now; grant-or-reject refuses 50.
	if l, got := s.RequestLease("tre-b", 50); got != 0 || l != (metrics.Lease{}) {
		t.Errorf("granted = %d, %v; want 0 and no lease (rejected)", got, l)
	}
	if s.RejectedRequests() != 1 {
		t.Errorf("rejected = %d, want 1", s.RejectedRequests())
	}
	if _, got := s.RequestLease("tre-b", 40); got != 40 {
		t.Errorf("granted = %d, want 40", got)
	}
}

func TestRequestDynamicBestEffort(t *testing.T) {
	engine := sim.New()
	pool, _ := nodepool.NewPool(50)
	acct := metrics.NewAccountant(engine.Now)
	s := NewProvisionService(pool, acct, policy.BestEffort)
	if _, got := s.RequestLease("a", 80); got != 50 {
		t.Errorf("best-effort granted = %d, want 50", got)
	}
}

// TestReleaseReturnsNodes closes leases out of acquire order: each
// returns its own nodes to the pool and bills its own span.
func TestReleaseReturnsNodes(t *testing.T) {
	s := newService(t, 100)
	initial, err := s.RequestInitial("a", 30)
	if err != nil {
		t.Fatal(err)
	}
	s.engine.Advance(1800)
	grant, _ := s.RequestLease("a", 10)
	s.engine.Advance(3600)
	if err := s.ReleaseLease("a", initial); err != nil {
		t.Fatalf("ReleaseLease: %v", err)
	}
	if s.pool.Free() != 90 {
		t.Errorf("free = %d, want 90", s.pool.Free())
	}
	if err := s.ReleaseLease("a", initial); err == nil {
		t.Error("second release of one lease succeeded")
	}
	s.engine.Advance(1800)
	if err := s.ReleaseLease("a", grant); err != nil {
		t.Fatalf("ReleaseLease: %v", err)
	}
	// initial: 30 nodes over [0, 5400), 2 h; grant: 10 nodes over
	// [1800, 7200), 2 h.
	if got := s.acct.BilledNodeHours("a"); got != 60+20 {
		t.Errorf("BilledNodeHours = %g, want 80", got)
	}
}

func TestFrameworkCreateTRELifecycle(t *testing.T) {
	engine := sim.New()
	f := NewFramework(engine)
	f.DeployDelay = 30
	f.StartDelay = 10
	started := false
	tre, err := f.CreateTRE("htc-a", "HTC", func() { started = true })
	if err != nil {
		t.Fatalf("CreateTRE: %v", err)
	}
	if tre.Lifecycle.State() != Planning {
		t.Errorf("state after apply = %v, want planning", tre.Lifecycle.State())
	}
	engine.Run(29)
	if tre.Lifecycle.State() != Planning {
		t.Errorf("state before deploy = %v, want planning", tre.Lifecycle.State())
	}
	engine.Run(35)
	if tre.Lifecycle.State() != Created {
		t.Errorf("state after deploy = %v, want created", tre.Lifecycle.State())
	}
	engine.Run(45)
	if tre.Lifecycle.State() != Running || !started {
		t.Errorf("state = %v, started = %v; want running,true", tre.Lifecycle.State(), started)
	}
}

func TestFrameworkRejectsDuplicateNames(t *testing.T) {
	f := NewFramework(sim.New())
	if _, err := f.CreateTRE("x", "HTC", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTRE("x", "MTC", nil); err == nil {
		t.Error("duplicate TRE name accepted")
	}
}
