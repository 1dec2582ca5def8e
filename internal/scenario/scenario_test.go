package scenario

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/systems"
)

// parseErr runs a JSON spec through Parse and returns the error text.
func parseErr(t *testing.T, src string) string {
	t.Helper()
	_, err := ParseBytes([]byte(src))
	if err == nil {
		t.Fatalf("spec accepted, want error:\n%s", src)
	}
	return err.Error()
}

func TestValidationFieldErrors(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		wantField string
	}{
		{"unknown system", `{"name":"x","systems":["DCS","VMS"],
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`, "systems[1]"},
		{"zero-day window", `{"name":"x","days":-3,
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`, "days"},
		{"negative ratio", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"},"policy":{"b":10,"r":-1}}]}`,
			"providers[0].policy.r"},
		{"zero initial nodes", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"},"policy":{"b":0,"r":1}}]}`,
			"providers[0].policy.b"},
		{"no providers", `{"name":"x","providers":[]}`, "providers"},
		{"unknown source kind", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"csv"}}]}`, "providers[0].source.kind"},
		{"unknown synth model", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"synth","model":"cray"}}]}`, "providers[0].source.model"},
		{"swf without path", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"swf"}}]}`, "providers[0].source.path"},
		{"workflow without generator or path", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"workflow"}}]}`, "providers[0].source"},
		{"unknown generator", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"workflow","generator":"sipht"}}]}`,
			"providers[0].source.generator"},
		{"duplicate provider", `{"name":"x","providers":[
			{"name":"p","source":{"kind":"synth","model":"nasa"}},
			{"name":"p","source":{"kind":"synth","model":"blue"}}]}`, "providers[1].name"},
		{"bad pool policy", `{"name":"x","pool":{"policy":"auction"},
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`, "pool.policy"},
		{"grid unknown provider", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"sweep":{"grid":{"provider":"ghost","b":[10],"r":[1]}}}`, "sweep.grid.provider"},
		{"grid negative ratio", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"sweep":{"grid":{"provider":"p","b":[10],"r":[1,-2]}}}`, "sweep.grid.r[1]"},
		{"scale without DCS", `{"name":"x","systems":["DawningCloud"],
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"sweep":{"scale":true}}`, "sweep.scale"},
		{"unknown json field", `{"name":"x","providerz":[]}`, "providerz"},
		{"partitions below -1", `{"name":"x","partitions":-2,
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`, "partitions"},
		{"grid duplicate b", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"sweep":{"grid":{"provider":"p","b":[10,20,10],"r":[1]}}}`, "sweep.grid.b[2]"},
		{"grid duplicate r", `{"name":"x",
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"sweep":{"grid":{"provider":"p","b":[10],"r":[1.2,1.20]}}}`, "sweep.grid.r[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := parseErr(t, tc.src)
			if !strings.Contains(msg, tc.wantField) {
				t.Errorf("error %q does not name field %q", msg, tc.wantField)
			}
		})
	}
}

// horizonOverflowDays is the smallest window whose length in seconds,
// Days × 86,400, overflows sim.Time: unchecked, it wrapped Horizon()
// negative and the run silently derived its window from the jobs.
const horizonOverflowDays = 106751991167301

// TestDaysBound pins the accounting-window bound: synth.MaxDays days is
// accepted with a positive horizon; one day more, 2^30 days (a 206 GB
// usage-bucket allocation when it reached finalize) and the overflowing
// window are field errors on days, from Parse and from Run alike.
func TestDaysBound(t *testing.T) {
	spec := func(days int) string {
		return fmt.Sprintf(`{"name":"x","days":%d,"systems":["DCS","DawningCloud"],
			"providers":[{"name":"m","source":{"kind":"workflow","generator":"paper-montage"}}]}`, days)
	}
	s, err := ParseBytes([]byte(spec(synth.MaxDays)))
	if err != nil {
		t.Fatalf("days=%d rejected: %v", synth.MaxDays, err)
	}
	if s.Horizon() <= 0 {
		t.Fatalf("days=%d: horizon %d, want positive", synth.MaxDays, s.Horizon())
	}
	for _, days := range []int{synth.MaxDays + 1, 1 << 30, horizonOverflowDays} {
		if msg := parseErr(t, spec(days)); !strings.Contains(msg, "days") {
			t.Errorf("days=%d: error %q does not name field days", days, msg)
		}
		// A spec built in Go skips Parse; Run must still refuse it
		// before generating or allocating anything.
		s.Days = days
		if _, err := Run(s, 1); err == nil || !strings.Contains(err.Error(), "days") {
			t.Errorf("days=%d: Run error = %v, want a days field error", days, err)
		}
	}
}

// TestRunnerOnlySystemRunsBlockingOnly pins that a system registered
// as a bare Runner has no backend: streamed and federated specs naming
// it fail validation with the list of registered backends, while a
// blocking spec accepts it.
func TestRunnerOnlySystemRunsBlockingOnly(t *testing.T) {
	const name = "blocking-only"
	if !registry.Default.Has(name) {
		registry.Default.MustRegister(name, registry.Func(
			func(ctx context.Context, wls []systems.Workload, opts systems.Options) (systems.Result, error) {
				return systems.Result{System: name}, nil
			}))
	}
	const supported = "(supported: DCS, SSP, DRP, DawningCloud, ssp-spot)"
	cases := []struct{ name, src, field string }{
		{"streamed", `{"name":"x","systems":["blocking-only"],"stream":{"enabled":true},
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`, "systems[0]"},
		{"federated", `{"name":"x","federation":{"system":"blocking-only"},
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`, "federation.system"},
	}
	for _, tc := range cases {
		msg := parseErr(t, tc.src)
		if !strings.Contains(msg, tc.field) || !strings.Contains(msg, supported) {
			t.Errorf("%s: error %q, want field %s and %s", tc.name, msg, tc.field, supported)
		}
	}
	if _, err := ParseBytes([]byte(`{"name":"x","systems":["blocking-only"],
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`)); err != nil {
		t.Errorf("blocking spec rejected: %v", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	s, err := ParseBytes([]byte(`{"name":"d","providers":[
		{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || s.Days != 14 {
		t.Errorf("seed/days = %d/%d, want 42/14", s.Seed, s.Days)
	}
	if len(s.Systems) != 4 {
		t.Errorf("systems = %v, want all four", s.Systems)
	}
	if s.Pool.Policy != "grant-or-reject" {
		t.Errorf("pool policy = %q", s.Pool.Policy)
	}
	if s.Providers[0].Count != 1 {
		t.Errorf("count = %d, want 1", s.Providers[0].Count)
	}
}

func TestCompileExpandsCounts(t *testing.T) {
	s, err := ParseBytes([]byte(`{"name":"c","days":2,"providers":[
		{"name":"org","count":3,"source":{"kind":"synth","model":"nasa"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != 3 {
		t.Fatalf("workloads = %d, want 3", len(c.Workloads))
	}
	wantNames := []string{"org-01", "org-02", "org-03"}
	for i, want := range wantNames {
		if c.Workloads[i].Name != want {
			t.Errorf("workload %d = %s, want %s", i, c.Workloads[i].Name, want)
		}
	}
	// Distinct seeds must produce distinct traces.
	if len(c.Workloads[0].Jobs) == len(c.Workloads[1].Jobs) &&
		c.Workloads[0].Jobs[0].Runtime == c.Workloads[1].Jobs[0].Runtime &&
		c.Workloads[0].Jobs[0].Submit == c.Workloads[1].Jobs[0].Submit {
		t.Error("replicated providers look identical; seeds not advanced")
	}
	if c.Workloads[0].FixedNodes != 128 {
		t.Errorf("derived fixed nodes = %d, want 128 (NASA machine size)", c.Workloads[0].FixedNodes)
	}
}

// TestPartitionsFieldFlowsToOptions pins the spec -> options plumbing:
// a spec's partitions count must reach the compiled run options
// unchanged, including the -1 (one per CPU) sentinel, and default to 0
// (serial) when absent.
func TestPartitionsFieldFlowsToOptions(t *testing.T) {
	for _, p := range []int{0, -1, 4} {
		src := `{"name":"c","days":1,"providers":[
			{"name":"org","source":{"kind":"synth","model":"nasa"}}]`
		if p != 0 {
			src += `,"partitions":` + map[int]string{-1: "-1", 4: "4"}[p]
		}
		src += `}`
		s, err := ParseBytes([]byte(src))
		if err != nil {
			t.Fatalf("partitions=%d: %v", p, err)
		}
		if s.Partitions != p {
			t.Errorf("parsed partitions = %d, want %d", s.Partitions, p)
		}
		c, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		if c.Options.Partitions != p {
			t.Errorf("compiled options partitions = %d, want %d", c.Options.Partitions, p)
		}
	}
}

func TestCompileWorkflowDefaults(t *testing.T) {
	s, err := ParseBytes([]byte(`{"name":"w","days":1,"providers":[
		{"name":"mtc","source":{"kind":"workflow","generator":"cybershake","tasks":120}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	wl := c.Workloads[0]
	if wl.Class != job.MTC {
		t.Errorf("class = %v, want MTC", wl.Class)
	}
	if wl.Params.ScanInterval != 3 {
		t.Errorf("scan interval = %d, want 3 (MTC default)", wl.Params.ScanInterval)
	}
	if wl.FixedNodes < 1 {
		t.Errorf("fixed nodes = %d, want derived max width >= 1", wl.FixedNodes)
	}
}

func TestBuiltinsParseAndCompile(t *testing.T) {
	// The stress builtins generate hundreds of thousands of jobs at their
	// declared window; compiling them over one day exercises the same
	// code path at test-friendly cost (full-size runs are on-demand via
	// dcscen).
	heavy := map[string]bool{"scale-100": true, "million-task": true}
	for _, name := range Names() {
		s, err := Builtin(name)
		if err != nil {
			t.Fatalf("builtin %s: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("builtin %s declares name %q", name, s.Name)
		}
		if heavy[name] {
			s.Days = 1
		}
		if _, err := Compile(s); err != nil {
			t.Errorf("builtin %s does not compile: %v", name, err)
		}
	}
	if _, err := Builtin("ghost"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// TestMillionSynthSourceCompiles pins the "million" synth model's spec
// wiring: a one-day window still yields tens of thousands of tasks and a
// valid workload sized to the stress machine.
func TestMillionSynthSourceCompiles(t *testing.T) {
	s, err := ParseBytes([]byte(`{"name":"stress","days":1,"systems":["DawningCloud"],
		"providers":[{"name":"m","source":{"kind":"synth","model":"million"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	wl := c.Workloads[0]
	if len(wl.Jobs) < 50_000 {
		t.Errorf("1-day million workload has %d jobs, want >= 50k", len(wl.Jobs))
	}
	if wl.FixedNodes != 1024 {
		t.Errorf("derived fixed nodes = %d, want 1024 (the stress machine)", wl.FixedNodes)
	}
}

func TestLoadRejectsUnknownReference(t *testing.T) {
	if _, err := Load("no-such-scenario-or-file.json"); err == nil {
		t.Error("unknown reference accepted")
	}
}

func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/tiny.json"
	src := `{"name":"tiny","days":1,"systems":["DCS"],
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`
	if err := writeFile(path, src); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "tiny" {
		t.Errorf("name = %q", s.Name)
	}
}

func TestRunSmallScenarioEndToEnd(t *testing.T) {
	s, err := ParseBytes([]byte(`{"name":"mini","days":2,"seed":7,
		"systems":["DCS","DawningCloud"],
		"providers":[
			{"name":"a","count":2,"source":{"kind":"synth","model":"nasa"}}],
		"sweep":{"scale":true,"grid":{"provider":"a-01","b":[20,40],"r":[1.2]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Base) != 2 {
		t.Errorf("base systems = %d, want 2", len(rep.Base))
	}
	if len(rep.Scale) != 2 {
		t.Errorf("scale points = %d, want 2 (n=1 and n=2)", len(rep.Scale))
	}
	if len(rep.Grid) != 2 {
		t.Errorf("grid points = %d, want 2", len(rep.Grid))
	}
	// The full scale prefix must equal the base runs (shared cache cell).
	last := rep.Scale[len(rep.Scale)-1]
	if last.DCSNodeHours != rep.Base["DCS"].TotalNodeHours {
		t.Errorf("scale n=2 DCS %.0f != base DCS %.0f", last.DCSNodeHours, rep.Base["DCS"].TotalNodeHours)
	}
	if last.DSPNodeHours != rep.Base["DawningCloud"].TotalNodeHours {
		t.Errorf("scale n=2 DSP %.0f != base %.0f", last.DSPNodeHours, rep.Base["DawningCloud"].TotalNodeHours)
	}
	// Cells: 2 base + 2 scale (n=1) + 2 grid = 6 simulations; the n=2
	// scale points are read from the base cells, not run again.
	if rep.Simulations != 6 {
		t.Errorf("simulations = %d, want 6 (full prefix read from the base cells)", rep.Simulations)
	}
	text := rep.Render()
	for _, want := range []string{"scenario: mini", "provider a-01", "provider a-02",
		"resource provider", "economies of scale", "B20_R1.2"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestFederationDefaultsAndValidation(t *testing.T) {
	s, err := ParseBytes([]byte(`{"name":"fed","days":1,"systems":["DawningCloud"],
		"providers":[{"name":"org","count":3,"source":{"kind":"synth","model":"nasa"}}],
		"federation":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	f := s.Federation
	if f.System != "DawningCloud" || f.Policy != "round-robin" || f.Instances != 3 {
		t.Errorf("federation defaults = %s/%s/%d, want DawningCloud/round-robin/3", f.System, f.Policy, f.Instances)
	}
	if got := s.FederationMembers(); len(got) != 3 || got[0] != "org-01" {
		t.Errorf("members = %v, want the three expanded providers", got)
	}

	cases := []struct {
		name      string
		src       string
		wantField string
	}{
		{"unknown policy", `{"name":"x","providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"federation":{"policy":"dice-roll"}}`, "federation.policy"},
		{"unknown system", `{"name":"x","providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"federation":{"system":"VMS"}}`, "federation.system"},
		{"unknown member", `{"name":"x","providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"federation":{"providers":["ghost"]}}`, "federation.providers[0]"},
		{"duplicate member", `{"name":"x","providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"federation":{"providers":["p","p"]}}`, "federation.providers[1]"},
		{"negative window", `{"name":"x","providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"federation":{"window_seconds":-60}}`, "federation.window_seconds"},
		{"negative capacity", `{"name":"x","providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
			"federation":{"instance_capacity":-4}}`, "federation.instance_capacity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := parseErr(t, tc.src)
			if !strings.Contains(msg, tc.wantField) {
				t.Errorf("error %q does not name field %q", msg, tc.wantField)
			}
		})
	}
}

func TestFederationScenarioEndToEnd(t *testing.T) {
	s, err := ParseBytes([]byte(`{"name":"fed-run","days":2,"seed":7,
		"systems":["DawningCloud"],
		"providers":[{"name":"org","count":4,"source":{"kind":"synth","model":"nasa"}}],
		"federation":{"policy":"round-robin","instances":2,"window_seconds":43200}}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Federation
	if f == nil {
		t.Fatal("report has no federation section")
	}
	if f.System != "DawningCloud" || f.Policy != "round-robin" {
		t.Errorf("federation ran %s/%s", f.System, f.Policy)
	}
	if len(f.Instances) != 2 {
		t.Fatalf("instances = %d, want 2", len(f.Instances))
	}
	total := 0
	for _, inst := range f.Instances {
		total += inst.Dispatched
	}
	if total != 4 || len(f.Dispatches) != 4 {
		t.Errorf("dispatched %d requests with %d log entries, want 4/4", total, len(f.Dispatches))
	}
	if f.Instances[0].Dispatched != 2 || f.Instances[1].Dispatched != 2 {
		t.Errorf("round-robin split = %d/%d, want 2/2", f.Instances[0].Dispatched, f.Instances[1].Dispatched)
	}
	// 2-day horizon over 12-hour windows tiles into exactly 4 aggregates.
	if f.Windows != 4 {
		t.Errorf("windows = %d, want 4", f.Windows)
	}
	if got := len(f.Merged.Providers); got != 4 {
		t.Errorf("merged provider rows = %d, want 4", got)
	}
	// The federation counts as one more executed simulation than the base
	// cell alone.
	if rep.Simulations != 2 {
		t.Errorf("simulations = %d, want 2 (base + federation)", rep.Simulations)
	}
	text := rep.Render()
	for _, want := range []string{"federation: 2 DawningCloud instances, round-robin routing",
		"federation vs consolidation"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestRunReportsCompileErrors(t *testing.T) {
	s := &Spec{Name: "bad"}
	s.ApplyDefaults()
	if _, err := Run(s, 1); err == nil {
		t.Error("empty provider list ran")
	}
}
