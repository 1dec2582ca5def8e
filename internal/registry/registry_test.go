package registry

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/systems"
)

func stubRunner(name string) Runner {
	return Func(func(ctx context.Context, wls []systems.Workload, opts systems.Options) (systems.Result, error) {
		return systems.Result{System: name}, nil
	})
}

func TestDefaultHasPaperSystemsInPresentationOrder(t *testing.T) {
	names := Default.Names()
	want := []string{"DCS", "SSP", "DRP", "DawningCloud"}
	if len(names) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", names, want)
	}
	if !reflect.DeepEqual(names[:4], want) {
		t.Errorf("Names()[:4] = %v, want %v", names[:4], want)
	}
}

func TestRegisterAndResolve(t *testing.T) {
	r := New()
	if err := r.Register("My-System", stubRunner("My-System")); err != nil {
		t.Fatal(err)
	}
	runner, canonical, err := r.Resolve("my-system")
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if canonical != "My-System" {
		t.Errorf("canonical = %q, want My-System", canonical)
	}
	res, err := runner.Run(context.Background(), nil, systems.Options{})
	if err != nil || res.System != "My-System" {
		t.Errorf("runner result = %+v, %v", res, err)
	}
}

func TestRegisterRejectsBadInput(t *testing.T) {
	r := New()
	if err := r.Register("", stubRunner("x")); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register("  ", stubRunner("x")); err == nil {
		t.Error("blank name accepted")
	}
	if err := r.Register("x", nil); err == nil {
		t.Error("nil runner accepted")
	}
	if err := r.Register("dup", stubRunner("dup")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("DUP", stubRunner("DUP")); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
}

func TestResolveUnknownListsRegistered(t *testing.T) {
	r := New()
	r.MustRegister("alpha", stubRunner("alpha"))
	r.MustRegister("beta", stubRunner("beta"))
	_, _, err := r.Resolve("gamma")
	if err == nil {
		t.Fatal("unknown name resolved")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown system "gamma"`) ||
		!strings.Contains(msg, "alpha, beta") {
		t.Errorf("error %q missing name or registered list", msg)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := New()
	r.MustRegister("base", stubRunner("base"))
	snap := r.Snapshot()
	snap.MustRegister("extra", stubRunner("extra"))
	if r.Has("extra") {
		t.Error("snapshot registration leaked into the original")
	}
	r.MustRegister("orig-only", stubRunner("orig-only"))
	if snap.Has("orig-only") {
		t.Error("original registration leaked into the snapshot")
	}
	if !snap.Has("base") {
		t.Error("snapshot lost pre-existing registration")
	}
}

func TestCanonicalAndHas(t *testing.T) {
	r := New()
	r.MustRegister("CamelCase", stubRunner("CamelCase"))
	if got, ok := r.Canonical("camelcase"); !ok || got != "CamelCase" {
		t.Errorf("Canonical = %q/%v", got, ok)
	}
	if !r.Has("CAMELCASE") || r.Has("other") {
		t.Error("Has() case-insensitivity broken")
	}
}

func TestMustRegisterPanicsOnDuplicate(t *testing.T) {
	r := New()
	r.MustRegister("a", stubRunner("a"))
	defer func() {
		if recover() == nil {
			t.Error("MustRegister did not panic on duplicate")
		}
	}()
	r.MustRegister("a", stubRunner("a"))
}

func TestDefaultResolvesBuiltinsCaseInsensitively(t *testing.T) {
	for name, want := range map[string]string{
		"dcs": "DCS", "ssp": "SSP", "drp": "DRP", "dawningcloud": "DawningCloud",
	} {
		if _, canonical, err := Default.Resolve(name); err != nil || canonical != want {
			t.Errorf("Resolve(%q) = %q, %v; want %q", name, canonical, err, want)
		}
	}
}

// TestRegisteredNamesAreCanonicalTokens is the drift guard between the
// registry and the conventions dclint enforces: every name registered
// in Default (the four paper systems plus self-registered extensions
// like ssp-spot) must be a canonical single token whose folded
// lowercase form round-trips through Canonical back to the registered
// spelling. If a future system registered a name with whitespace or a
// spelling that folds onto another, scenario specs, CLI flags and the
// HTTP API would disagree about what the system is called.
func TestRegisteredNamesAreCanonicalTokens(t *testing.T) {
	for _, name := range Default.Names() {
		if name != strings.TrimSpace(name) || strings.ContainsAny(name, " \t\n") {
			t.Errorf("registered name %q is not a canonical single token", name)
		}
		if fold(name) != fold(fold(name)) {
			t.Errorf("fold(%q) is not idempotent", name)
		}
		for _, probe := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			canonical, ok := Default.Canonical(probe)
			if !ok || canonical != name {
				t.Errorf("Canonical(%q) = (%q, %v), want (%q, true)", probe, canonical, ok, name)
			}
		}
	}
}

// TestRegisterRejectsNonCanonicalNames pins the Register-time
// validation: whitespace anywhere in a name is an error, not a silent
// normalization.
func TestRegisterRejectsNonCanonicalNames(t *testing.T) {
	for _, bad := range []string{" padded", "padded ", "two words", "tab\tname", "line\nname"} {
		r := New()
		if err := r.Register(bad, stubRunner(bad)); err == nil {
			t.Errorf("Register(%q) succeeded, want canonical-name error", bad)
		}
	}
}

// TestBackendRegistration pins the two registration forms: a backend is
// found by Backend and listed by Backends, a Runner-only system is not,
// and the lookup error lists every registered backend.
func TestBackendRegistration(t *testing.T) {
	r := New()
	r.MustRegister("runner-only", stubRunner("runner-only"))
	copyDRP := systems.DRP
	copyDRP.Name = "drp-copy"
	r.MustRegisterBackend(copyDRP)
	if err := r.RegisterBackend(systems.Backend{Name: "no-open"}); err == nil {
		t.Error("backend without Open accepted")
	}
	if b, err := r.Backend("DRP-COPY"); err != nil || b.Name != "drp-copy" {
		t.Errorf("Backend(DRP-COPY) = %q, %v", b.Name, err)
	}
	if _, err := r.Backend("runner-only"); err == nil || !strings.Contains(err.Error(), "(supported: drp-copy)") {
		t.Errorf("Runner-only lookup: %v, want an error listing drp-copy", err)
	}
	if bs := r.Backends(); len(bs) != 1 || bs[0].Name != "drp-copy" {
		t.Errorf("Backends() = %v", bs)
	}
	var names []string
	for _, b := range Default.Backends() {
		names = append(names, b.Name)
	}
	if want := PaperSystems(); len(names) < len(want) || !reflect.DeepEqual(names[:len(want)], want) {
		t.Errorf("Default backends %v do not start with the paper systems %v", names, want)
	}
}
