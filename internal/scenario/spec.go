// Package scenario is the declarative experiment layer of the
// reproduction: a Spec — a JSON document with validation and defaults —
// declares an arbitrary n-provider × m-system simulation study (the
// generalized case the paper's conclusion asks for), Compile lowers it to
// the comparison harness's workloads, and Run executes every
// system × provider-count × sweep cell exactly once over a bounded worker
// pool, emitting a structured Report with rendered tables and an
// economies-of-scale summary. The paper suite (internal/experiments)
// formats its tables and figures from these reports.
//
// A service provider's workload comes from one of four sources: a
// calibrated synthetic HTC model (internal/synth), an external SWF trace
// file (internal/swf), an MTC workflow — a Pegasus-style generator or
// a DAG JSON file (internal/workflow) — or, in streamed specs, a live
// task feed ingested while the simulation runs (kind "live", fed over
// the run service's NDJSON endpoint). Providers replicate with `count`,
// so a 10-organization consolidation study is one data file, not new Go.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/clustersim"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/synth"

	// Shipped registry extensions must be linked in so scenario specs can
	// name them (ssp-spot) through any entry point, not only the CLIs.
	_ "repro/internal/spot"
)

// Known spec vocabularies. System names are not a fixed list: a spec may
// name any system registered in registry.Default at validation time, and
// validation errors list exactly those.
var (
	// DefaultSystems is the system set a spec without a "systems" field
	// compares: the paper's four, in presentation order. Registered
	// extensions must be asked for explicitly so existing specs (and the
	// paper-baseline golden numbers) never change when a new system
	// links in.
	DefaultSystems = registry.PaperSystems()
	// KnownSourceKinds lists the workload source kinds.
	KnownSourceKinds = []string{"synth", "swf", "workflow", "live"}
	// KnownSynthModels lists the synthetic HTC models: the two
	// paper-calibrated traces plus the million-task kernel stress model.
	KnownSynthModels = []string{"nasa", "blue", "million"}
	// KnownGenerators lists the workflow generators.
	KnownGenerators = []string{"paper-montage", "montage", "cybershake", "epigenomics", "ligo"}
)

// Spec declares one scenario: the service providers, the systems to
// compare, the resource provider's pool, the accounting window and
// optional sweep axes. The zero values of optional fields take defaults
// in ApplyDefaults; Validate reports field-level errors.
type Spec struct {
	// Name identifies the scenario in reports and the registry.
	Name string `json:"name"`
	// Description is free text shown in the report header.
	Description string `json:"description,omitempty"`
	// Seed is the base generation seed. Providers without an explicit
	// seed draw Seed + their expanded position (so the first three
	// providers of a seed-42 spec use 42, 43, 44, matching the paper
	// suite's construction). Zero is reserved for "unset" and defaults
	// to 42; to pin a specific seed use any non-zero value (or set the
	// providers' seeds explicitly).
	Seed int64 `json:"seed,omitempty"`
	// Days is the accounting window in days (the paper uses 14), at
	// most synth.MaxDays.
	Days int `json:"days,omitempty"`
	// Partitions splits each cell's providers onto that many per-core
	// kernel partitions (0 or 1 = serial, -1 = one per CPU). Partitioned
	// cells are byte-identical to serial ones; runners fall back to
	// serial whenever partitioning cannot preserve that (see
	// systems.Options.Partitions).
	Partitions int `json:"partitions,omitempty"`
	// Systems lists which systems to compare; empty means all four.
	Systems []string `json:"systems,omitempty"`
	// Pool configures the resource provider.
	Pool PoolSpec `json:"pool,omitempty"`
	// Providers declares the service providers (before count expansion).
	Providers []ProviderSpec `json:"providers"`
	// Sweep optionally adds B×R grid and provider-count scaling axes.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Federation optionally federates the providers behind one shared
	// clock: N provider instances of one system with a routing policy
	// (internal/clustersim), run alongside the consolidated base cells
	// and reported per instance and merged.
	Federation *FederationSpec `json:"federation,omitempty"`
	// Stream optionally routes every cell through the streamed
	// execution path (internal/streamrun): workloads feed the kernel in
	// bounded batches, base cells emit incremental per-window reports,
	// and providers may declare kind-"live" sources fed over the run
	// service's task-ingestion endpoint. Results are byte-identical to
	// the materialized path for the same jobs.
	Stream *StreamSpec `json:"stream,omitempty"`
}

// StreamSpec tunes the streamed execution path.
type StreamSpec struct {
	// Enabled switches every cell to the streamed path. Required true
	// when any provider uses a live source.
	Enabled bool `json:"enabled"`
	// StrideSeconds and LookaheadSeconds tune the feeder's refill
	// rounds (0 takes stream's defaults). Results are invariant to
	// both; they trade resident-task memory against refill frequency.
	StrideSeconds    int64 `json:"stride_seconds,omitempty"`
	LookaheadSeconds int64 `json:"lookahead_seconds,omitempty"`
	// WindowSeconds is the incremental reporting period in virtual
	// seconds; 0 means one day. Base cells emit one WindowReport per
	// window, plus a cross-system WindowSummary once every compared
	// system has reported it.
	WindowSeconds int64 `json:"window_seconds,omitempty"`
	// BufferTasks bounds each live source's ingestion buffer in tasks
	// (the backpressure point of the NDJSON endpoint); 0 takes
	// stream.DefaultLiveBuffer.
	BufferTasks int `json:"buffer_tasks,omitempty"`
}

// FederationSpec declares the optional federated run: the system the
// instances run, the routing policy, the federation size and the
// provider membership.
type FederationSpec struct {
	// System is the system every instance runs (federations are
	// homogeneous); default DawningCloud. It must be a registered
	// backend (registry.Registry.Backend).
	System string `json:"system,omitempty"`
	// Policy is the routing policy name from clustersim's registry
	// (round-robin, least-loaded, cost-aware, spot-price-aware,
	// pin-to-owner, or a registered extension); default round-robin.
	Policy string `json:"policy,omitempty"`
	// Instances is the number of provider instances; default one per
	// member provider.
	Instances int `json:"instances,omitempty"`
	// Providers restricts membership to the named expanded providers;
	// empty federates every provider. Member workloads are dispatched by
	// the policy at simulation time; member i's home instance is
	// i mod Instances (the pin-to-owner policy routes there).
	Providers []string `json:"providers,omitempty"`
	// InstanceCapacity is each instance's node pool size; 0 means
	// unconstrained.
	InstanceCapacity int `json:"instance_capacity,omitempty"`
	// WindowSeconds is the ClusterWindow aggregation period in virtual
	// seconds; 0 means one day.
	WindowSeconds int64 `json:"window_seconds,omitempty"`
}

// PoolSpec configures the resource provider's cloud pool.
type PoolSpec struct {
	// Capacity is the pool's node count; 0 means unconstrained (the
	// paper's "large cloud platform").
	Capacity int `json:"capacity,omitempty"`
	// Policy is the provision policy: "grant-or-reject" (the paper's,
	// default) or "best-effort".
	Policy string `json:"policy,omitempty"`
	// SetupCostSeconds is the per-node adjustment cost; 0 uses the
	// paper's measured 15.743 s.
	SetupCostSeconds float64 `json:"setup_cost_seconds,omitempty"`
}

// ProviderSpec declares one service provider (or, with Count > 1, a
// family of identically configured providers with consecutive seeds).
type ProviderSpec struct {
	// Name labels the provider; replicated providers get -01..-NN
	// suffixes.
	Name string `json:"name"`
	// Count replicates the provider with consecutive seeds; default 1.
	Count int `json:"count,omitempty"`
	// Seed overrides the derived per-provider seed (replicas then use
	// Seed, Seed+1, ...).
	Seed *int64 `json:"seed,omitempty"`
	// Source declares where the workload comes from.
	Source SourceSpec `json:"source"`
	// Policy sets the DawningCloud knobs B and R; nil takes the class
	// default (HTC: B40 R1.2, MTC: B10 R8).
	Policy *PolicySpec `json:"policy,omitempty"`
	// FixedNodes is the DCS/SSP runtime-environment size; 0 derives it
	// from the source (synth: machine size; swf: largest job; workflow:
	// maximum level width).
	FixedNodes int `json:"fixed_nodes,omitempty"`
}

// PolicySpec is the paper's two tuning knobs.
type PolicySpec struct {
	// B is the initial (never-reclaimed) node lease.
	B int `json:"b"`
	// R is the DR1 threshold ratio.
	R float64 `json:"r"`
}

// SourceSpec declares a provider's workload source. Kind selects which of
// the remaining fields apply.
type SourceSpec struct {
	// Kind is "synth", "swf", "workflow" or "live". A live source has no
	// pre-built jobs: tasks arrive online (NDJSON over the run service)
	// while the simulation runs. Live sources are HTC-only, require
	// stream.enabled, an explicit fixed_nodes, and exactly one system.
	Kind string `json:"kind"`
	// Model is the synth model: "nasa" or "blue".
	Model string `json:"model,omitempty"`
	// Util overrides the synth model's target utilization (0 keeps the
	// calibrated value).
	Util float64 `json:"util,omitempty"`
	// Path is the SWF trace file (kind "swf") or workflow DAG JSON file
	// (kind "workflow" without a generator).
	Path string `json:"path,omitempty"`
	// Generator is the workflow generator: "paper-montage" (the paper's
	// exact 1,000-task instance), "montage", "cybershake",
	// "epigenomics" or "ligo".
	Generator string `json:"generator,omitempty"`
	// Tasks sizes generated workflows (ignored by paper-montage);
	// default 1000.
	Tasks int `json:"tasks,omitempty"`
	// SubmitAt is the workflow submission time in seconds into the run.
	SubmitAt int64 `json:"submit_at,omitempty"`
}

// SweepSpec declares optional sweep axes.
type SweepSpec struct {
	// Grid sweeps DawningCloud over a B×R grid for one provider in
	// isolation (the paper's Figures 9-11 methodology).
	Grid *GridSpec `json:"grid,omitempty"`
	// Scale runs DCS and DawningCloud over every provider-count prefix
	// 1..n of the expanded provider list: the economies-of-scale curve.
	Scale bool `json:"scale,omitempty"`
}

// GridSpec is the B×R grid of a parameter sweep.
type GridSpec struct {
	// Provider names the (expanded) provider to sweep.
	Provider string `json:"provider"`
	// B lists initial-node values.
	B []int `json:"b"`
	// R lists threshold-ratio values.
	R []float64 `json:"r"`
}

// Parse decodes a JSON spec strictly (unknown fields are errors), applies
// defaults and validates.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseBytes decodes a JSON spec from memory.
func ParseBytes(data []byte) (*Spec, error) { return Parse(bytes.NewReader(data)) }

// ApplyDefaults fills the optional fields: seed 42, a 14-day window, the
// paper's four systems, the grant-or-reject pool policy and per-provider
// count 1. System names are canonicalized to their registered spelling
// ("dawningcloud" becomes "DawningCloud"); unknown names are left as
// written for Validate to report.
func (s *Spec) ApplyDefaults() {
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Days == 0 {
		s.Days = 14
	}
	if len(s.Systems) == 0 {
		s.Systems = append([]string(nil), DefaultSystems...)
	}
	for i, name := range s.Systems {
		if canonical, ok := registry.Default.Canonical(name); ok {
			s.Systems[i] = canonical
		}
	}
	if s.Pool.Policy == "" {
		s.Pool.Policy = "grant-or-reject"
	}
	for i := range s.Providers {
		p := &s.Providers[i]
		if p.Count == 0 {
			p.Count = 1
		}
		if p.Source.Kind == "workflow" && p.Source.Generator != "" &&
			p.Source.Generator != "paper-montage" && p.Source.Tasks == 0 {
			p.Source.Tasks = 1000
		}
	}
	if f := s.Federation; f != nil {
		if f.System == "" {
			f.System = "DawningCloud"
		}
		if canonical, ok := registry.Default.Canonical(f.System); ok {
			f.System = canonical
		}
		if f.Policy == "" {
			f.Policy = clustersim.PolicyRoundRobin
		}
		if len(f.Providers) == 0 {
			// An empty list means every provider, as an absent one does;
			// one spelling keeps a persisted spec round-tripping exactly.
			f.Providers = nil
		}
		if f.Instances == 0 {
			f.Instances = len(s.FederationMembers())
		}
	}
}

// FederationMembers lists the expanded provider names the federation
// routes: the membership list, or every provider when unset. Empty
// without a federation block.
func (s *Spec) FederationMembers() []string {
	if s.Federation == nil {
		return nil
	}
	if len(s.Federation.Providers) > 0 {
		return append([]string(nil), s.Federation.Providers...)
	}
	return s.ExpandedNames()
}

// Horizon is the accounting window in seconds.
func (s *Spec) Horizon() sim.Time { return sim.Time(s.Days) * sim.Day }

// Validate reports the first problem with the spec as a field-level
// error ("providers[1].policy.r: ..."), or nil. Call ApplyDefaults first;
// Parse does both.
func (s *Spec) Validate() error {
	fail := func(field, format string, args ...any) error {
		return fmt.Errorf("scenario %s: %s: %s", s.Name, field, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name: must not be empty")
	}
	if s.Days < 1 || s.Days > synth.MaxDays {
		return fail("days", "accounting window %d days outside [1,%d]", s.Days, synth.MaxDays)
	}
	if s.Partitions < -1 {
		return fail("partitions", "partition count %d < -1 (use -1 for one per CPU)", s.Partitions)
	}
	if len(s.Systems) == 0 {
		return fail("systems", "must name at least one system")
	}
	seenSys := make(map[string]bool)
	for i, name := range s.Systems {
		if !registry.Default.Has(name) {
			return fail(fmt.Sprintf("systems[%d]", i), "unknown system %q (registered: %s)",
				name, strings.Join(registry.Default.Names(), ", "))
		}
		if seenSys[name] {
			return fail(fmt.Sprintf("systems[%d]", i), "system %q listed twice", name)
		}
		seenSys[name] = true
	}
	switch s.Pool.Policy {
	case "grant-or-reject", "best-effort":
	default:
		return fail("pool.policy", "unknown provision policy %q (known: grant-or-reject, best-effort)", s.Pool.Policy)
	}
	if s.Pool.Capacity < 0 {
		return fail("pool.capacity", "capacity %d < 0", s.Pool.Capacity)
	}
	if s.Pool.SetupCostSeconds < 0 {
		return fail("pool.setup_cost_seconds", "setup cost %g < 0", s.Pool.SetupCostSeconds)
	}
	if len(s.Providers) == 0 {
		return fail("providers", "must declare at least one provider")
	}
	names := make(map[string]bool)
	for i := range s.Providers {
		if err := s.Providers[i].validate(fmt.Sprintf("providers[%d]", i), fail); err != nil {
			return err
		}
		if names[s.Providers[i].Name] {
			return fail(fmt.Sprintf("providers[%d].name", i), "duplicate provider name %q", s.Providers[i].Name)
		}
		names[s.Providers[i].Name] = true
	}
	if s.Sweep != nil {
		if err := s.validateSweep(fail); err != nil {
			return err
		}
	}
	if s.Federation != nil {
		if err := s.validateFederation(fail); err != nil {
			return err
		}
	}
	if s.Stream != nil {
		if err := s.validateStream(fail); err != nil {
			return err
		}
	}
	if live := s.LiveProviders(); len(live) > 0 {
		if !s.Streamed() {
			return fail("stream", "live workload sources need stream.enabled")
		}
		if len(s.Systems) != 1 {
			return fail("systems", "a live task feed streams once and cannot feed %d systems (name exactly one)", len(s.Systems))
		}
		if s.Sweep != nil {
			return fail("sweep", "live workload sources cannot be swept")
		}
		if s.Federation != nil {
			return fail("federation", "live workload sources cannot be federated")
		}
	}
	return nil
}

// Streamed reports whether the spec runs on the streamed path.
func (s *Spec) Streamed() bool { return s.Stream != nil && s.Stream.Enabled }

// LiveProviders lists the providers with live task feeds, in compile
// order. Live providers cannot replicate, so each name is one lane.
func (s *Spec) LiveProviders() []*ProviderSpec {
	var out []*ProviderSpec
	for i := range s.Providers {
		if s.Providers[i].Source.Kind == "live" {
			out = append(out, &s.Providers[i])
		}
	}
	return out
}

func (s *Spec) validateStream(fail func(string, string, ...any) error) error {
	st := s.Stream
	if st.StrideSeconds < 0 {
		return fail("stream.stride_seconds", "stride %d < 0", st.StrideSeconds)
	}
	if st.LookaheadSeconds < 0 {
		return fail("stream.lookahead_seconds", "lookahead %d < 0", st.LookaheadSeconds)
	}
	if st.WindowSeconds < 0 {
		return fail("stream.window_seconds", "window %d < 0", st.WindowSeconds)
	}
	if st.BufferTasks < 0 {
		return fail("stream.buffer_tasks", "buffer %d < 0", st.BufferTasks)
	}
	if st.Enabled {
		for i, name := range s.Systems {
			if _, err := registry.Default.Backend(name); err != nil {
				return fail(fmt.Sprintf("systems[%d]", i), "streamed run: %v", err)
			}
		}
	}
	return nil
}

func (s *Spec) validateFederation(fail func(string, string, ...any) error) error {
	f := s.Federation
	if !registry.Default.Has(f.System) {
		return fail("federation.system", "unknown system %q (registered: %s)",
			f.System, strings.Join(registry.Default.Names(), ", "))
	}
	if _, err := registry.Default.Backend(f.System); err != nil {
		return fail("federation.system", "federated run: %v", err)
	}
	if !clustersim.HasPolicy(f.Policy) {
		return fail("federation.policy", "unknown routing policy %q (registered: %s)",
			f.Policy, strings.Join(clustersim.PolicyNames(), ", "))
	}
	if f.Instances < 1 {
		return fail("federation.instances", "instance count %d < 1", f.Instances)
	}
	if f.InstanceCapacity < 0 {
		return fail("federation.instance_capacity", "capacity %d < 0", f.InstanceCapacity)
	}
	if f.WindowSeconds < 0 {
		return fail("federation.window_seconds", "window %d < 0", f.WindowSeconds)
	}
	seen := make(map[string]bool)
	for i, name := range f.Providers {
		if !s.hasExpandedProvider(name) {
			return fail(fmt.Sprintf("federation.providers[%d]", i), "unknown provider %q", name)
		}
		if seen[name] {
			return fail(fmt.Sprintf("federation.providers[%d]", i), "provider %q listed twice", name)
		}
		seen[name] = true
	}
	return nil
}

func (p *ProviderSpec) validate(field string, fail func(string, string, ...any) error) error {
	if p.Name == "" {
		return fail(field+".name", "must not be empty")
	}
	if p.Count < 1 {
		return fail(field+".count", "count %d < 1", p.Count)
	}
	if p.FixedNodes < 0 {
		return fail(field+".fixed_nodes", "fixed nodes %d < 0", p.FixedNodes)
	}
	if p.Policy != nil {
		if p.Policy.B < 1 {
			return fail(field+".policy.b", "initial nodes %d < 1", p.Policy.B)
		}
		if p.Policy.R <= 0 {
			return fail(field+".policy.r", "threshold ratio %g <= 0", p.Policy.R)
		}
	}
	src := &p.Source
	switch src.Kind {
	case "synth":
		if !slices.Contains(KnownSynthModels, src.Model) {
			return fail(field+".source.model", "unknown synth model %q (known: %s)",
				src.Model, strings.Join(KnownSynthModels, ", "))
		}
		if src.Util < 0 || src.Util >= 1 {
			return fail(field+".source.util", "target utilization %g outside [0,1)", src.Util)
		}
		if src.Path != "" || src.Generator != "" {
			return fail(field+".source", "synth source takes no path or generator")
		}
	case "swf":
		if src.Path == "" {
			return fail(field+".source.path", "swf source needs a trace file path")
		}
		if src.Model != "" || src.Generator != "" {
			return fail(field+".source", "swf source takes no model or generator")
		}
	case "workflow":
		if (src.Generator == "") == (src.Path == "") {
			return fail(field+".source", "workflow source needs exactly one of generator or path")
		}
		if src.Generator != "" && !slices.Contains(KnownGenerators, src.Generator) {
			return fail(field+".source.generator", "unknown generator %q (known: %s)",
				src.Generator, strings.Join(KnownGenerators, ", "))
		}
		if src.Tasks < 0 {
			return fail(field+".source.tasks", "tasks %d < 0", src.Tasks)
		}
		if src.SubmitAt < 0 {
			return fail(field+".source.submit_at", "submit time %d < 0", src.SubmitAt)
		}
	case "live":
		if p.FixedNodes < 1 {
			return fail(field+".fixed_nodes", "live source needs an explicit fixed_nodes (no jobs to derive it from)")
		}
		if p.Count != 1 {
			return fail(field+".count", "live providers cannot replicate (each needs its own task feed)")
		}
		if src.Model != "" || src.Path != "" || src.Generator != "" ||
			src.Util != 0 || src.Tasks != 0 || src.SubmitAt != 0 {
			return fail(field+".source", "live source takes only kind")
		}
	default:
		return fail(field+".source.kind", "unknown source kind %q (known: %s)",
			src.Kind, strings.Join(KnownSourceKinds, ", "))
	}
	return nil
}

func (s *Spec) validateSweep(fail func(string, string, ...any) error) error {
	if g := s.Sweep.Grid; g != nil {
		if g.Provider == "" {
			return fail("sweep.grid.provider", "must name the provider to sweep")
		}
		if !s.hasExpandedProvider(g.Provider) {
			return fail("sweep.grid.provider", "unknown provider %q", g.Provider)
		}
		if len(g.B) == 0 || len(g.R) == 0 {
			return fail("sweep.grid", "needs at least one B and one R value")
		}
		// Each (B, R) pair is one cell, run once: a value listed twice
		// would run the same simulation twice under one key.
		for i, b := range g.B {
			if b < 1 {
				return fail(fmt.Sprintf("sweep.grid.b[%d]", i), "initial nodes %d < 1", b)
			}
			if slices.Index(g.B, b) < i {
				return fail(fmt.Sprintf("sweep.grid.b[%d]", i), "initial nodes %d listed twice", b)
			}
		}
		for i, r := range g.R {
			if r <= 0 {
				return fail(fmt.Sprintf("sweep.grid.r[%d]", i), "threshold ratio %g <= 0", r)
			}
			if slices.Index(g.R, r) < i {
				return fail(fmt.Sprintf("sweep.grid.r[%d]", i), "threshold ratio %g listed twice", r)
			}
		}
	}
	if s.Sweep.Scale {
		for _, want := range []string{"DCS", "DawningCloud"} {
			if !slices.Contains(s.Systems, want) {
				return fail("sweep.scale", "needs both DCS and DawningCloud in systems (missing %s)", want)
			}
		}
	}
	return nil
}

// ExpandedNames lists the provider names after count expansion, in
// compile order.
func (s *Spec) ExpandedNames() []string {
	var out []string
	for i := range s.Providers {
		p := &s.Providers[i]
		if p.Count <= 1 {
			out = append(out, p.Name)
			continue
		}
		for k := 1; k <= p.Count; k++ {
			out = append(out, fmt.Sprintf("%s-%02d", p.Name, k))
		}
	}
	return out
}

func (s *Spec) hasExpandedProvider(name string) bool {
	return slices.Contains(s.ExpandedNames(), name)
}
