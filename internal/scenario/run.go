package scenario

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/clustersim"
	"repro/internal/events"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/systems"
)

// Run compiles and executes the scenario on up to workers concurrent
// simulations (0 = all CPUs, 1 = serial). Results are deterministic at
// any worker count. See RunContext; Run uses the background context and
// no event sink.
func Run(s *Spec, workers int) (*Report, error) {
	return RunContext(context.Background(), s, workers, nil) //dclint:allow ctxfirst -- documented non-ctx convenience wrapper over RunContext
}

// RunContext compiles and executes the scenario with cancellation
// support, publishing progress (run started/completed per simulation,
// cell completed per finished grid/scale/base cell) to sink; a nil sink
// discards events. A cancelled context aborts in-flight simulations
// promptly and returns an error wrapping ctx.Err().
func RunContext(ctx context.Context, s *Spec, workers int, sink events.Sink) (*Report, error) {
	c, err := Compile(s)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx, workers, sink)
}

// cell is one simulation the runner must have: a system over the first
// Providers workloads, optionally with grid-overridden policy knobs.
type cell struct {
	system    string
	providers int // prefix length of the workload list
	grid      *gridCell
}

type gridCell struct {
	provider string
	b        int
	r        float64
}

// key names the cell in events and errors. Validation makes keys unique
// within a run: systems and grid values are never listed twice, and the
// scale sweep's full prefix is the base cells themselves.
func (c cell) key() string {
	if c.grid != nil {
		return fmt.Sprintf("grid|%s|B%d|R%g", c.grid.provider, c.grid.b, c.grid.r)
	}
	return fmt.Sprintf("%s|n=%d", c.system, c.providers)
}

// engine executes the cells of one Run call, each exactly once;
// concurrency is bounded by the par.ForEach pool in Compiled.RunContext.
type engine struct {
	c    *Compiled
	sink events.Sink
	// windows coordinates the streamed path's incremental per-window
	// reports; nil on the materialized path.
	windows *windowEmitter

	completed atomic.Int64
}

// Run executes every base, scale and grid cell of the compiled scenario.
func (c *Compiled) Run(workers int) (*Report, error) {
	return c.RunContext(context.Background(), workers, nil) //dclint:allow ctxfirst -- documented non-ctx convenience wrapper over RunContext
}

// RunContext executes every base, scale and grid cell of the compiled
// scenario with cancellation and progress events.
func (c *Compiled) RunContext(ctx context.Context, workers int, sink events.Sink) (*Report, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	eng := &engine{c: c, sink: sink}
	if c.Spec.Streamed() {
		eng.windows = newWindowEmitter(c.Spec, c.Options, sink)
	}
	cells := c.cells()
	results := make([]systems.Result, len(cells))
	err := par.ForEach(workers, len(cells), func(i int) error {
		r, err := eng.simulate(ctx, cells[i])
		if err != nil {
			return err
		}
		results[i] = r
		eng.sink.Emit(events.CellCompleted{
			Index: int(eng.completed.Add(1)),
			Total: len(cells),
			Key:   cells[i].key(),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := c.assemble(cells, results)
	if c.Spec.Federation != nil {
		fed, err := c.runFederation(ctx, sink)
		if err != nil {
			return nil, err
		}
		rep.Federation = fed
		rep.Simulations++
	}
	return rep, nil
}

// runFederation executes the spec's federation block: the member
// workloads routed across N instances of one system behind the shared
// clock (internal/clustersim). It runs after the base cells so the
// report can compare the federation against the consolidated run.
func (c *Compiled) runFederation(ctx context.Context, sink events.Sink) (*FederationReport, error) {
	f := c.Spec.Federation
	members := c.Spec.FederationMembers()
	wls := make([]systems.Workload, 0, len(members))
	for _, name := range members {
		wl, ok := c.workloadByName(name)
		if !ok {
			return nil, fmt.Errorf("scenario %s: federation provider %q missing after compile", c.Spec.Name, name)
		}
		wls = append(wls, wl.Clone())
	}
	cfg := clustersim.Config{
		System:    f.System,
		Policy:    f.Policy,
		Instances: make([]clustersim.InstanceConfig, f.Instances),
		Options:   c.Options,
		Window:    sim.Time(f.WindowSeconds),
		Events:    sink,
	}
	for i := range cfg.Instances {
		cfg.Instances[i] = clustersim.InstanceConfig{Capacity: f.InstanceCapacity}
	}
	cs, err := clustersim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: federation: %w", c.Spec.Name, err)
	}
	key := fmt.Sprintf("federation|%s|%s", f.System, f.Policy)
	sink.Emit(events.RunStarted{System: f.System, Providers: len(wls), Cell: key})
	res, err := cs.Run(ctx, wls, nil)
	if err != nil {
		sink.Emit(events.RunCompleted{System: f.System, Cell: key, Err: err})
		return nil, fmt.Errorf("scenario %s: federation: %w", c.Spec.Name, err)
	}
	sink.Emit(events.RunCompleted{System: f.System, Cell: key, TotalNodeHours: res.Merged.TotalNodeHours})
	rep := &FederationReport{
		System:    f.System,
		Policy:    f.Policy,
		Providers: members,
		Merged:    res.Merged,
		Windows:   res.Windows,
	}
	for _, ir := range res.Instances {
		rep.Instances = append(rep.Instances, FederationInstance{
			Name:       ir.Name,
			Dispatched: ir.Dispatched,
			NodeHours:  ir.Result.TotalNodeHours,
			PeakNodes:  ir.Result.PeakNodes,
		})
	}
	for _, d := range res.Dispatches {
		rep.Dispatches = append(rep.Dispatches, FederationDispatch{
			Time: int64(d.Time), Workload: d.Workload, Instance: int(d.Instance),
		})
	}
	return rep, nil
}

// cells enumerates the scenario's simulations in deterministic order.
func (c *Compiled) cells() []cell {
	n := len(c.Workloads)
	var out []cell
	for _, system := range c.Spec.Systems {
		out = append(out, cell{system: system, providers: n})
	}
	if sw := c.Spec.Sweep; sw != nil {
		if sw.Scale {
			for k := 1; k < n; k++ { // k = n duplicates the base cells
				out = append(out,
					cell{system: "DCS", providers: k},
					cell{system: "DawningCloud", providers: k})
			}
		}
		if g := sw.Grid; g != nil {
			for _, b := range g.B {
				for _, r := range g.R {
					out = append(out, cell{
						system:    "DawningCloud",
						providers: 1,
						grid:      &gridCell{provider: g.Provider, b: b, r: r},
					})
				}
			}
		}
	}
	return out
}

// simulate builds the cell's workload set and runs it through
// the registered system runner, or through the streamed path when the
// spec asks for it.
func (e *engine) simulate(ctx context.Context, c cell) (systems.Result, error) {
	if e.c.Spec.Streamed() {
		return e.simulateStreamed(ctx, c)
	}
	runner, canonical, err := registry.Default.Resolve(c.system)
	if err != nil {
		return systems.Result{}, fmt.Errorf("scenario %s: %w", e.c.Spec.Name, err)
	}
	wls, err := e.cellWorkloads(c)
	if err != nil {
		return systems.Result{}, err
	}
	e.sink.Emit(events.RunStarted{System: canonical, Providers: len(wls), Cell: c.key()})
	res, err := runner.Run(ctx, wls, e.c.Options)
	e.sink.Emit(events.RunCompleted{System: canonical, Cell: c.key(), Err: err, TotalNodeHours: res.TotalNodeHours})
	if err != nil {
		return systems.Result{}, fmt.Errorf("scenario %s: run %s: %w", e.c.Spec.Name, c.key(), err)
	}
	return res, nil
}

// cellWorkloads returns the cell's workload set: the provider prefix, or
// the grid cell's single provider with overridden policy knobs. Cells
// share the compiled job slices, which every runner treats as read-only;
// a grid cell copies only the Workload struct, whose Params is a value.
func (e *engine) cellWorkloads(c cell) ([]systems.Workload, error) {
	if c.grid != nil {
		base, ok := e.c.workloadByName(c.grid.provider)
		if !ok {
			return nil, fmt.Errorf("scenario %s: sweep provider %q missing after compile",
				e.c.Spec.Name, c.grid.provider)
		}
		wl := *base
		wl.Params.InitialNodes = c.grid.b
		wl.Params.ThresholdRatio = c.grid.r
		return []systems.Workload{wl}, nil
	}
	return e.c.Workloads[:c.providers:c.providers], nil
}

func (c *Compiled) workloadByName(name string) (*systems.Workload, bool) {
	for i := range c.Workloads {
		if c.Workloads[i].Name == name {
			return &c.Workloads[i], true
		}
	}
	return nil, false
}

// assemble sorts the flat cell results into the structured report.
func (c *Compiled) assemble(cells []cell, results []systems.Result) *Report {
	rep := &Report{
		Spec:        c.Spec,
		Horizon:     c.Spec.Horizon(),
		Systems:     append([]string(nil), c.Spec.Systems...),
		Base:        make(map[string]systems.Result, len(c.Spec.Systems)),
		Simulations: int64(len(cells)),
	}
	for i := range c.Workloads {
		rep.Providers = append(rep.Providers, c.Workloads[i].Name)
	}
	scale := make(map[int]*ScalePoint) // providers -> point under construction
	for i, cl := range cells {
		res := results[i]
		switch {
		case cl.grid != nil:
			gp := GridPoint{B: cl.grid.b, R: cl.grid.r}
			if p, ok := res.Provider(cl.grid.provider); ok {
				gp.NodeHours = p.NodeHours
				gp.Completed = p.Completed
				gp.TasksPerSecond = p.TasksPerSecond
			}
			rep.Grid = append(rep.Grid, gp)
		case cl.providers == len(c.Workloads):
			rep.Base[cl.system] = res
		}
		if c.Spec.Sweep != nil && c.Spec.Sweep.Scale && cl.grid == nil &&
			(cl.system == "DCS" || cl.system == "DawningCloud") {
			pt := scale[cl.providers]
			if pt == nil {
				pt = &ScalePoint{Providers: cl.providers}
				scale[cl.providers] = pt
			}
			if cl.system == "DCS" {
				pt.DCSNodeHours = res.TotalNodeHours
			} else {
				pt.DSPNodeHours = res.TotalNodeHours
				pt.PeakNodes = res.PeakNodes
			}
		}
	}
	if len(scale) > 0 {
		for n := 1; n <= len(c.Workloads); n++ {
			pt := scale[n]
			if pt == nil {
				continue
			}
			if pt.DCSNodeHours > 0 {
				pt.SavedFraction = 1 - pt.DSPNodeHours/pt.DCSNodeHours
			}
			rep.Scale = append(rep.Scale, *pt)
		}
	}
	rep.Summary = summarize(rep)
	return rep
}
