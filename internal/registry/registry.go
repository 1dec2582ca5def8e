// Package registry is the single name → system mapping of the
// repository: a string-keyed, concurrency-safe registry of systems
// shared by the public Engine API, the experiment suite, the
// declarative scenario engine, the streamed and federated drivers and
// the CLIs.
//
// A system registers either as a systems.Backend (RegisterBackend) or
// as a bare Runner (Register). A backend gets every driver: blocking
// serial and partitioned runs through its derived Runner (systems.Run),
// streamed runs (internal/streamrun) and federated runs
// (internal/clustersim). A Runner-only system runs blocking only.
//
// The Default registry ships with the paper's four systems (DCS, SSP,
// DRP, DawningCloud) registered as backends in presentation order. New
// usage models register themselves — no switch statement or map literal
// anywhere needs editing — and are immediately runnable by name from
// Engine.Run, `dcsim -system`, and scenario spec files. See
// internal/spot for a complete example (the "ssp-spot" backend).
//
// Names resolve case-insensitively ("dawningcloud" finds "DawningCloud")
// but keep their registered canonical spelling in results and reports.
package registry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"unicode"

	"repro/internal/core"
	"repro/internal/systems"
)

// Runner simulates one system over a workload set. Implementations must
// treat workloads as read-only, honor context cancellation (an aborted
// run returns an error wrapping ctx.Err()), and be safe for concurrent
// calls: every run builds its own simulation state.
type Runner interface {
	Run(ctx context.Context, workloads []systems.Workload, opts systems.Options) (systems.Result, error)
}

// Func adapts a plain function to the Runner interface.
type Func func(ctx context.Context, workloads []systems.Workload, opts systems.Options) (systems.Result, error)

// Run implements Runner.
func (f Func) Run(ctx context.Context, workloads []systems.Workload, opts systems.Options) (systems.Result, error) {
	return f(ctx, workloads, opts)
}

// Registry maps system names to runners and backends. The zero value
// is not usable; construct with New. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]entry // keyed by folded name
	order   []string         // canonical names in registration order
}

// entry is one registered system.
type entry struct {
	name    string // canonical spelling
	runner  Runner
	backend *systems.Backend // nil for a Runner-only system
}

// New returns an empty registry. Most callers want Default (the four
// paper systems plus self-registered extensions) or Default.Snapshot().
func New() *Registry {
	return &Registry{entries: make(map[string]entry)}
}

// fold is the case-insensitive key for a system name.
func fold(name string) string { return strings.ToLower(name) }

// Register adds a runner under name. It fails on an empty name, a name
// containing whitespace, a nil runner, or a name already taken
// (compared case-insensitively, so "SSP" and "ssp" collide).
//
// Names must be canonical single tokens at Register time: the folded
// (lowercase) form is the registry's one lookup key, and it is also the
// spelling scenario specs, CLI flags and the HTTP API accept. A name
// that needs trimming or contains spaces would fold to a key nothing
// can type back in, so it is rejected here rather than silently
// normalized — the registry and the conventions dclint enforces must
// agree on what a system is called.
func (r *Registry) Register(name string, runner Runner) error {
	return r.add(name, runner, nil)
}

// RegisterBackend adds the system b describes under b.Name, with
// Register's naming rules. Its Runner is systems.Run over b.
func (r *Registry) RegisterBackend(b systems.Backend) error {
	if b.Open == nil || b.DefaultCapacity == nil {
		return fmt.Errorf("registry: backend %q needs Open and DefaultCapacity", b.Name)
	}
	run := Func(func(ctx context.Context, workloads []systems.Workload, opts systems.Options) (systems.Result, error) {
		return systems.Run(ctx, b, workloads, opts)
	})
	return r.add(b.Name, run, &b)
}

func (r *Registry) add(name string, runner Runner, backend *systems.Backend) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("registry: empty system name")
	}
	if strings.ContainsFunc(name, unicode.IsSpace) {
		return fmt.Errorf("registry: system name %q contains whitespace; names must be canonical single tokens", name)
	}
	if runner == nil {
		return fmt.Errorf("registry: nil runner for system %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := fold(name)
	if prev, ok := r.entries[key]; ok {
		return fmt.Errorf("registry: system %q already registered (as %q)", name, prev.name)
	}
	r.entries[key] = entry{name: name, runner: runner, backend: backend}
	r.order = append(r.order, name)
	return nil
}

// MustRegister is Register, panicking on error. Intended for package
// init-time self-registration where a failure is a programming error.
func (r *Registry) MustRegister(name string, runner Runner) {
	if err := r.Register(name, runner); err != nil {
		panic(err)
	}
}

// MustRegisterBackend is RegisterBackend, panicking on error.
func (r *Registry) MustRegisterBackend(b systems.Backend) {
	if err := r.RegisterBackend(b); err != nil {
		panic(err)
	}
}

// Lookup returns the runner registered under name (case-insensitive).
func (r *Registry) Lookup(name string) (Runner, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[fold(name)]
	return e.runner, ok
}

// Canonical reports the registered spelling of name (case-insensitive).
func (r *Registry) Canonical(name string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[fold(name)]
	return e.name, ok
}

// Resolve returns the runner and canonical name for name, or an error
// listing every registered system — the one unknown-system message used
// by the Engine, the CLIs and the scenario validator.
func (r *Registry) Resolve(name string) (Runner, string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[fold(name)]
	if !ok {
		return nil, "", fmt.Errorf("unknown system %q (registered: %s)",
			name, strings.Join(r.order, ", "))
	}
	return e.runner, e.name, nil
}

// Backend returns the backend registered under name (case-insensitive).
// Unknown names and Runner-only systems fail with the list of
// registered backends — the one message the streamed and federated
// drivers and the scenario validator share.
func (r *Registry) Backend(name string) (systems.Backend, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.entries[fold(name)]; ok && e.backend != nil {
		return *e.backend, nil
	}
	var names []string
	for _, b := range r.backends() {
		names = append(names, b.Name)
	}
	return systems.Backend{}, fmt.Errorf("system %q has no registered backend, so it runs blocking only (supported: %s)",
		name, strings.Join(names, ", "))
}

// Backends lists the registered backends in registration order.
func (r *Registry) Backends() []systems.Backend {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.backends()
}

// backends is Backends for a caller holding mu.
func (r *Registry) backends() []systems.Backend {
	var out []systems.Backend
	for _, n := range r.order {
		if e := r.entries[fold(n)]; e.backend != nil {
			out = append(out, *e.backend)
		}
	}
	return out
}

// Names lists every registered system's canonical name in registration
// order (the four paper systems come first, in presentation order).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Has reports whether name resolves to a registered system.
func (r *Registry) Has(name string) bool {
	_, ok := r.Lookup(name)
	return ok
}

// Snapshot returns an independent copy of the registry: systems
// registered on the copy do not appear in the original and vice versa.
func (r *Registry) Snapshot() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := New()
	for key, e := range r.entries {
		out.entries[key] = e
	}
	out.order = append([]string(nil), r.order...)
	return out
}

// Default is the process-wide registry backing the public Engine API,
// the experiment suite, the scenario engine and the CLIs. The paper's
// four systems are registered here in presentation order; extension
// packages (internal/spot) add theirs from init.
var Default = New()

// paper holds the four systems the paper compares, in presentation
// order.
var paper = []systems.Backend{systems.DCS, systems.SSP, systems.DRP, core.Backend(core.Config{})}

func init() {
	for _, b := range paper {
		Default.MustRegisterBackend(b)
	}
}

// PaperSystems lists the canonical names of the four systems the paper
// compares, in presentation order. Default may hold more (registered
// extensions such as ssp-spot); the paper's tables and figures only
// ever run these four.
func PaperSystems() []string {
	names := make([]string, len(paper))
	for i, b := range paper {
		names[i] = b.Name
	}
	return names
}
