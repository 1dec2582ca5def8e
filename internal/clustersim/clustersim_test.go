package clustersim

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/spot"
	"repro/internal/systems"
)

// htcWorkload builds a hand-traceable HTC provider: two jobs starting at
// first, each filling the provider's fixed runtime environment.
func htcWorkload(name string, first sim.Time, nodes int) systems.Workload {
	return systems.Workload{
		Name:  name,
		Class: job.HTC,
		Jobs: []job.Job{
			{ID: 1, Submit: first, Runtime: 1800, Nodes: nodes},
			{ID: 2, Submit: first + 600, Runtime: 1800, Nodes: nodes},
		},
		FixedNodes: nodes,
		Params:     policy.HTCDefaults(2, 1.5),
	}
}

// mtcWorkload builds a 3-task chain workflow provider.
func mtcWorkload(name string, first sim.Time) systems.Workload {
	return systems.Workload{
		Name:  name,
		Class: job.MTC,
		Jobs: []job.Job{
			{ID: 1, Submit: first, Runtime: 60, Nodes: 1, Class: job.MTC, Workflow: "w"},
			{ID: 2, Submit: first, Runtime: 60, Nodes: 2, Class: job.MTC, Workflow: "w", Deps: []int{1}},
			{ID: 3, Submit: first, Runtime: 60, Nodes: 1, Class: job.MTC, Workflow: "w", Deps: []int{2}},
		},
		FixedNodes: 2,
		Params:     policy.MTCDefaults(1, 2),
	}
}

func instanceIDs(dispatches []Dispatch) []InstanceID {
	out := make([]InstanceID, len(dispatches))
	for i, d := range dispatches {
		out[i] = d.Instance
	}
	return out
}

func equalIDs(a, b []InstanceID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMockStudyDispatchSequences is the mock-study harness of the issue:
// small hand-traceable workloads replay through every built-in routing
// policy against hand-coded expected dispatch sequences.
//
// The trace, common to the first three policies (3 DCS instances; each
// provider's runtime environment allocates exactly FixedNodes at its
// first submission and holds them):
//
//	t=0:    p0 (8 nodes) arrives — all instances idle
//	t=600:  p1 (4 nodes) arrives — instance loads {i0:8, i1:0, i2:0}
//	t=1200: p2 (6 nodes) arrives — loads {i0:8, i1:4, i2:0}
//	t=1800: p3 (2 nodes) arrives — loads {i0:8, i1:4, i2:6}
func TestMockStudyDispatchSequences(t *testing.T) {
	workloads := func() []systems.Workload {
		return []systems.Workload{
			htcWorkload("p0", 0, 8),
			htcWorkload("p1", 600, 4),
			htcWorkload("p2", 1200, 6),
			htcWorkload("p3", 1800, 2),
		}
	}
	run := func(t *testing.T, policyName string, instances []InstanceConfig, owners []InstanceID) []InstanceID {
		t.Helper()
		cs, err := New(Config{
			System:    "DCS",
			Policy:    policyName,
			Instances: instances,
			Options:   systems.Options{Seed: 42, Horizon: 3 * sim.Day},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := cs.Run(context.Background(), workloads(), owners)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return instanceIDs(res.Dispatches)
	}
	three := []InstanceConfig{{Name: "a"}, {Name: "b"}, {Name: "c"}}

	t.Run(PolicyRoundRobin, func(t *testing.T) {
		// Request k goes to instance k mod 3, regardless of state.
		want := []InstanceID{0, 1, 2, 0}
		if got := run(t, PolicyRoundRobin, three, nil); !equalIDs(got, want) {
			t.Fatalf("round-robin dispatches = %v, want %v", got, want)
		}
	})
	t.Run(PolicyLeastLoaded, func(t *testing.T) {
		// t=0: all idle -> i0 (lowest ID). t=600: {8,0,0} -> i1.
		// t=1200: {8,4,0} -> i2. t=1800: {8,4,6} -> i1 (4 is minimal).
		want := []InstanceID{0, 1, 2, 1}
		if got := run(t, PolicyLeastLoaded, three, nil); !equalIDs(got, want) {
			t.Fatalf("least-loaded dispatches = %v, want %v", got, want)
		}
	})
	t.Run(PolicyCostAware, func(t *testing.T) {
		// Prices {i0: 0.20, i1: 0.10, i2: 0.10}: i1 and i2 tie as
		// cheapest, so load breaks the tie among them. t=0: both idle ->
		// i1 (lowest ID). t=600: i1 holds 8 -> i2. t=1200: {i1:8, i2:4}
		// -> i2. t=1800: {i1:8, i2:10} -> i1.
		priced := []InstanceConfig{
			{Name: "a", PricePerNodeHour: 0.20},
			{Name: "b", PricePerNodeHour: 0.10},
			{Name: "c", PricePerNodeHour: 0.10},
		}
		want := []InstanceID{1, 2, 2, 1}
		if got := run(t, PolicyCostAware, priced, nil); !equalIDs(got, want) {
			t.Fatalf("cost-aware dispatches = %v, want %v", got, want)
		}
	})
	t.Run(PolicyPinToOwner, func(t *testing.T) {
		owners := []InstanceID{2, 0, 2, 1}
		if got := run(t, PolicyPinToOwner, three, owners); !equalIDs(got, owners) {
			t.Fatalf("pin-to-owner dispatches = %v, want %v", got, owners)
		}
	})
	t.Run(PolicySpotPriceAware, func(t *testing.T) {
		// Providers arrive in different market hours, so each dispatch
		// reads each instance's PriceWalk advanced to that hour. The
		// expected sequence is recomputed here from the exported walks —
		// the same observable the policy sees — and must route at least
		// two distinct instances for the case to stay meaningful.
		spread := []systems.Workload{
			htcWorkload("p0", 0, 8),
			htcWorkload("p1", 2*sim.Hour, 4),
			htcWorkload("p2", 5*sim.Hour, 6),
			htcWorkload("p3", 9*sim.Hour, 2),
		}
		cs, err := New(Config{
			System:    "DCS",
			Policy:    PolicySpotPriceAware,
			Instances: three,
			Options:   systems.Options{Seed: 42, Horizon: 3 * sim.Day},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		walks := make([]*spot.PriceWalk, len(three))
		hours := make([]int64, len(three))
		for i, inst := range cs.Instances() {
			walks[i] = spot.NewPriceWalk(inst.Seed())
		}
		var want []InstanceID
		for _, first := range []sim.Time{0, 2 * sim.Hour, 5 * sim.Hour, 9 * sim.Hour} {
			hour := first / sim.Hour
			best := 0
			for i := range walks {
				for hours[i] < hour {
					walks[i].Tick()
					hours[i]++
				}
			}
			for i := 1; i < len(walks); i++ {
				if walks[i].Price() < walks[best].Price() {
					best = i
				}
			}
			want = append(want, InstanceID(best))
		}
		res, err := cs.Run(context.Background(), spread, nil)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := instanceIDs(res.Dispatches); !equalIDs(got, want) {
			t.Fatalf("spot-price-aware dispatches = %v, want %v", got, want)
		}
		distinct := make(map[InstanceID]bool)
		for _, id := range want {
			distinct[id] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("degenerate spot case: all dispatches to %v; pick a different seed", want)
		}
	})
}

// TestFederationNoDriftInvariant is the sanity invariant of the issue:
// a federation of N providers pinned one-per-instance (via pin-to-owner,
// and via round-robin whose k mod N assignment coincides when providers
// arrive in index order) reproduces N independent runs byte-identically.
// The shared clock adds no drift.
func TestFederationNoDriftInvariant(t *testing.T) {
	for _, b := range registry.Default.Backends() {
		system := b.Name
		t.Run(system, func(t *testing.T) {
			// First submissions strictly increase with index so the
			// round-robin assignment (dispatch order) equals the owner
			// assignment (index order).
			workloads := []systems.Workload{
				htcWorkload("alpha", 0, 8),
				mtcWorkload("beta", 600),
				htcWorkload("gamma", 1200, 6),
			}
			const capacity = 64
			horizon := sim.Time(3 * sim.Day)
			opts := systems.Options{Seed: 42, Horizon: horizon, PoolCapacity: capacity}

			for _, policyName := range []string{PolicyPinToOwner, PolicyRoundRobin} {
				cs, err := New(Config{
					System: system,
					Policy: policyName,
					Instances: []InstanceConfig{
						{Name: "i0", Capacity: capacity},
						{Name: "i1", Capacity: capacity},
						{Name: "i2", Capacity: capacity},
					},
					Options: systems.Options{Seed: 42, Horizon: horizon},
				})
				if err != nil {
					t.Fatalf("New(%s): %v", policyName, err)
				}
				res, err := cs.Run(context.Background(), systems.CloneWorkloads(workloads), nil)
				if err != nil {
					t.Fatalf("Run(%s): %v", policyName, err)
				}
				for i := range workloads {
					if res.Dispatches[i].Instance != InstanceID(i) {
						t.Fatalf("%s: request %d dispatched to %d, want %d",
							policyName, i, res.Dispatches[i].Instance, i)
					}
					// The independent run: the same provider alone on the
					// same system, with the instance's derived seed.
					solo := opts
					solo.Seed = cs.Instances()[i].Seed()
					want := runIndependent(t, system, workloads[i].Clone(), solo)
					got := res.Instances[i].Result
					wantJSON, err := json.Marshal(want)
					if err != nil {
						t.Fatalf("marshal: %v", err)
					}
					gotJSON, err := json.Marshal(got)
					if err != nil {
						t.Fatalf("marshal: %v", err)
					}
					if string(wantJSON) != string(gotJSON) {
						t.Errorf("%s instance %d drifted from the independent run:\nfederated:   %s\nindependent: %s",
							policyName, i, gotJSON, wantJSON)
					}
					// The merged view carries the same provider row.
					pr, ok := res.Merged.Provider(workloads[i].Name)
					if !ok {
						t.Fatalf("merged result missing provider %s", workloads[i].Name)
					}
					soloPR, _ := want.Provider(workloads[i].Name)
					if pr != soloPR {
						t.Errorf("merged provider row %s = %+v, want %+v", workloads[i].Name, pr, soloPR)
					}
				}
			}
		})
	}
}

// runIndependent runs one provider alone through the system's
// registered blocking runner.
func runIndependent(t *testing.T, system string, wl systems.Workload, opts systems.Options) systems.Result {
	t.Helper()
	runner, _, err := registry.Default.Resolve(system)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), []systems.Workload{wl}, opts)
	if err != nil {
		t.Fatalf("independent %s run: %v", system, err)
	}
	return res
}

// TestClusterWindowEvents checks the per-window aggregates: indexes are
// contiguous, bounds tile [0, horizon], dispatch counts are cumulative
// and the count matches ClusterResult.Windows.
func TestClusterWindowEvents(t *testing.T) {
	var windows []events.ClusterWindow
	cs, err := New(Config{
		System:    "DCS",
		Policy:    PolicyRoundRobin,
		Instances: []InstanceConfig{{Name: "a"}, {Name: "b"}},
		Options:   systems.Options{Seed: 1, Horizon: 3 * sim.Day},
		Window:    sim.Day,
		Events: func(ev events.Event) {
			if w, ok := ev.(events.ClusterWindow); ok {
				windows = append(windows, w)
			}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := cs.Run(context.Background(), []systems.Workload{
		htcWorkload("p0", 0, 4),
		htcWorkload("p1", sim.Day+600, 4),
	}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(windows) == 0 {
		t.Fatal("no ClusterWindow events emitted")
	}
	if len(windows) != res.Windows {
		t.Fatalf("emitted %d windows, result reports %d", len(windows), res.Windows)
	}
	var prev events.ClusterWindow
	total := 0
	for i, w := range windows {
		if w.Index != i {
			t.Errorf("window %d has index %d", i, w.Index)
		}
		if i == 0 {
			if w.Start != 0 {
				t.Errorf("first window starts at %d", w.Start)
			}
		} else if w.Start != prev.End {
			t.Errorf("window %d starts at %d, previous ended at %d", i, w.Start, prev.End)
		}
		if len(w.Dispatched) != 2 || len(w.NodesInUse) != 2 {
			t.Fatalf("window %d arity: %+v", i, w)
		}
		sum := w.Dispatched[0] + w.Dispatched[1]
		if sum < total {
			t.Errorf("window %d dispatch count %d dropped below %d", i, sum, total)
		}
		total = sum
		prev = w
	}
	if last := windows[len(windows)-1]; last.End != res.Horizon {
		t.Errorf("last window ends at %d, horizon %d", last.End, res.Horizon)
	}
	if total != 2 {
		t.Errorf("final cumulative dispatches = %d, want 2", total)
	}
}

// TestPolicyRegistry exercises the registration conventions shared with
// internal/registry.
func TestPolicyRegistry(t *testing.T) {
	builtins := []string{PolicyRoundRobin, PolicyLeastLoaded, PolicyCostAware, PolicySpotPriceAware, PolicyPinToOwner}
	names := PolicyNames()
	for i, want := range builtins {
		if i >= len(names) || names[i] != want {
			t.Fatalf("PolicyNames() = %v, want prefix %v", names, builtins)
		}
	}
	for _, name := range builtins {
		if !HasPolicy(name) {
			t.Errorf("HasPolicy(%q) = false", name)
		}
	}
	if !HasPolicy("Round-Robin") {
		t.Error("policy lookup is not case-insensitive")
	}
	if _, err := NewPolicy("no-such-policy", PolicyConfig{Instances: 1}); err == nil {
		t.Error("unknown policy did not error")
	} else if want := PolicyRoundRobin; !strings.Contains(err.Error(), want) {
		t.Errorf("unknown-policy error %q does not list %q", err, want)
	}
	if err := RegisterPolicy("", func(PolicyConfig) RoutingPolicy { return pinToOwner{} }); err == nil {
		t.Error("empty name accepted")
	}
	if err := RegisterPolicy("has space", func(PolicyConfig) RoutingPolicy { return pinToOwner{} }); err == nil {
		t.Error("whitespace name accepted")
	}
	if err := RegisterPolicy("nil-factory", nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := RegisterPolicy("ROUND-ROBIN", func(PolicyConfig) RoutingPolicy { return pinToOwner{} }); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	custom := fmt.Sprintf("custom-%d", len(names))
	if err := RegisterPolicy(custom, func(PolicyConfig) RoutingPolicy { return pinToOwner{} }); err != nil {
		t.Fatalf("registering custom policy: %v", err)
	}
	if _, err := NewPolicy(custom, PolicyConfig{Instances: 1}); err != nil {
		t.Fatalf("resolving custom policy: %v", err)
	}
}

// TestRunValidation covers the orchestrator's input checks.
func TestRunValidation(t *testing.T) {
	if _, err := New(Config{System: "DCS", Policy: PolicyRoundRobin}); err == nil {
		t.Error("federation with no instances accepted")
	}
	if _, err := New(Config{System: "no-such-system", Policy: PolicyRoundRobin, Instances: []InstanceConfig{{}}}); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := New(Config{System: "DCS", Policy: "no-such-policy", Instances: []InstanceConfig{{}}}); err == nil {
		t.Error("unknown policy accepted")
	}
	cs, err := New(Config{System: "DCS", Policy: PolicyRoundRobin, Instances: []InstanceConfig{{}, {}}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wls := []systems.Workload{htcWorkload("p0", 0, 4)}
	if _, err := cs.Run(context.Background(), wls, []InstanceID{5}); err == nil {
		t.Error("out-of-range owner accepted")
	}
	if _, err := cs.Run(context.Background(), wls, []InstanceID{0, 1}); err == nil {
		t.Error("owner/workload length mismatch accepted")
	}
	if _, err := cs.Run(context.Background(), nil, nil); err == nil {
		t.Error("empty workload set accepted")
	}
}
