package csf

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/nodepool"
	"repro/internal/policy"
	"repro/internal/sim"
)

func newService(t *testing.T, capacity int) (*ProvisionService, *sim.Engine) {
	t.Helper()
	engine := sim.New()
	pool, err := nodepool.NewPool(capacity)
	if err != nil {
		t.Fatal(err)
	}
	acct := metrics.NewAccountant(engine.Now)
	return NewProvisionService(pool, acct, policy.GrantOrReject, DefaultNodeSetupSeconds), engine
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
	s, _ := newService(t, 100)
	if err := s.RequestInitial("tre-a", 40); err != nil {
		t.Fatalf("RequestInitial: %v", err)
	}
	if s.Pool().Held("tre-a") != 40 {
		t.Errorf("held = %d, want 40", s.Pool().Held("tre-a"))
	}
	if s.Accountant().Held("tre-a") != 40 {
		t.Errorf("accounted held = %d, want 40", s.Accountant().Held("tre-a"))
	}
}

func TestRequestInitialFailsBeyondCapacity(t *testing.T) {
	s, _ := newService(t, 10)
	if err := s.RequestInitial("tre-a", 11); err == nil {
		t.Error("oversized initial request succeeded")
	}
}

func TestRequestDynamicGrantOrReject(t *testing.T) {
	s, _ := newService(t, 100)
	if got := s.RequestDynamic("tre-a", 60); got != 60 {
		t.Errorf("granted = %d, want 60", got)
	}
	// Only 40 free now; grant-or-reject refuses 50.
	if got := s.RequestDynamic("tre-b", 50); got != 0 {
		t.Errorf("granted = %d, want 0 (rejected)", got)
	}
	if s.RejectedRequests() != 1 {
		t.Errorf("rejected = %d, want 1", s.RejectedRequests())
	}
	if got := s.RequestDynamic("tre-b", 40); got != 40 {
		t.Errorf("granted = %d, want 40", got)
	}
}

func TestRequestDynamicBestEffort(t *testing.T) {
	engine := sim.New()
	pool, _ := nodepool.NewPool(50)
	acct := metrics.NewAccountant(engine.Now)
	s := NewProvisionService(pool, acct, policy.BestEffort, DefaultNodeSetupSeconds)
	if got := s.RequestDynamic("a", 80); got != 50 {
		t.Errorf("best-effort granted = %d, want 50", got)
	}
}

func TestReleaseReturnsNodes(t *testing.T) {
	s, engine := newService(t, 100)
	_ = s.RequestInitial("a", 30)
	engine.Advance(3600)
	if err := s.Release("a", 10); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if s.Pool().Free() != 80 {
		t.Errorf("free = %d, want 80", s.Pool().Free())
	}
	if err := s.Release("a", 100); err == nil {
		t.Error("over-release succeeded")
	}
}

func TestManagementOverhead(t *testing.T) {
	s, engine := newService(t, 1000)
	_ = s.RequestInitial("a", 100)
	engine.Advance(3600)
	if err := s.Release("a", 100); err != nil {
		t.Fatal(err)
	}
	// 200 adjusted nodes at 15.743 s each over 2 hours.
	total, perHour := s.ManagementOverhead(2 * 3600)
	wantTotal := 200 * DefaultNodeSetupSeconds
	if math.Abs(total-wantTotal) > 1e-9 {
		t.Errorf("total overhead = %g, want %g", total, wantTotal)
	}
	if math.Abs(perHour-wantTotal/2) > 1e-9 {
		t.Errorf("per-hour overhead = %g, want %g", perHour, wantTotal/2)
	}
	if _, ph := s.ManagementOverhead(0); ph != 0 {
		t.Errorf("per-hour with zero horizon = %g, want 0", ph)
	}
}

func TestFrameworkCreateTRELifecycle(t *testing.T) {
	s, engine := newService(t, 100)
	f := NewFramework(engine, s)
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
	if f.TRECount() != 1 {
		t.Errorf("TRECount = %d, want 1", f.TRECount())
	}
}

func TestFrameworkRejectsDuplicateNames(t *testing.T) {
	s, engine := newService(t, 100)
	f := NewFramework(engine, s)
	if _, err := f.CreateTRE("x", "HTC", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateTRE("x", "MTC", nil); err == nil {
		t.Error("duplicate TRE name accepted")
	}
}

func TestFrameworkDestroyReleasesNodes(t *testing.T) {
	s, engine := newService(t, 100)
	f := NewFramework(engine, s)
	_, err := f.CreateTRE("x", "HTC", nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.RunAll() // reach Running
	if err := s.RequestInitial("x", 25); err != nil {
		t.Fatal(err)
	}
	if err := f.DestroyTRE("x"); err != nil {
		t.Fatalf("DestroyTRE: %v", err)
	}
	if s.Pool().Free() != 100 {
		t.Errorf("free after destroy = %d, want 100", s.Pool().Free())
	}
	tre, ok := f.Get("x")
	if !ok || tre.Lifecycle.State() != Destroyed {
		t.Error("TRE not destroyed")
	}
}

func TestFrameworkDestroyErrors(t *testing.T) {
	s, engine := newService(t, 100)
	f := NewFramework(engine, s)
	if err := f.DestroyTRE("ghost"); err == nil {
		t.Error("destroying unknown TRE succeeded")
	}
	_, _ = f.CreateTRE("y", "HTC", nil)
	// Still Planning: cannot destroy before Running.
	if err := f.DestroyTRE("y"); err == nil {
		t.Error("destroying non-running TRE succeeded")
	}
}
