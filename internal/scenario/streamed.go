package scenario

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/csf"
	"repro/internal/events"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/streamrun"
	"repro/internal/systems"
)

// simulateStreamed runs one cell through the streamed path
// (internal/streamrun) instead of the registry runner: the workloads
// feed the kernel through a bounded-lookahead feeder, live providers
// draw from their attached sources, and base cells carry the read-only
// per-window reporters. Results are byte-identical to the materialized
// path for the same jobs, so the cell key and the report shape do not
// change.
func (e *engine) simulateStreamed(ctx context.Context, c cell) (systems.Result, error) {
	wls, err := e.cellWorkloads(c)
	if err != nil {
		return systems.Result{}, err
	}
	st := e.c.Spec.Stream
	spec := streamrun.Spec{
		System:    c.system,
		Workloads: wls,
		Options:   e.c.Options,
		Feeder: stream.Options{
			Stride:       sim.Time(st.StrideSeconds),
			MinLookahead: sim.Time(st.LookaheadSeconds),
		},
	}
	if len(e.c.Live) > 0 {
		// Spec validation pins live scenarios to a single system with no
		// sweeps, so exactly one cell — this one — consumes the feeds.
		spec.Sources = make(map[string]stream.Source, len(e.c.Live))
		for _, name := range e.c.Live {
			src, ok := e.c.Sources[name]
			if !ok {
				return systems.Result{}, fmt.Errorf("scenario %s: live provider %q has no attached source (fill Compiled.Sources before running)",
					e.c.Spec.Name, name)
			}
			spec.Sources[name] = src
		}
	}
	if c.grid == nil && c.providers == len(e.c.Workloads) && e.windows != nil {
		spec.Observe = e.windows.observer(c.system, c.key())
	}
	e.sink.Emit(events.RunStarted{System: c.system, Providers: len(wls), Cell: c.key()})
	res, err := streamrun.Run(ctx, spec)
	e.sink.Emit(events.RunCompleted{System: c.system, Cell: c.key(), Err: err, TotalNodeHours: res.TotalNodeHours})
	if err != nil {
		return systems.Result{}, fmt.Errorf("scenario %s: run %s: %w", e.c.Spec.Name, c.key(), err)
	}
	return res, nil
}

// windowEmitter coordinates a streamed scenario's incremental results:
// each base cell's observer emits one WindowReport per accounting
// window, and once every compared system has reported a window the
// emitter closes it with the cross-system WindowSummary — the running
// economies-of-scale line. Window contents are deterministic (they read
// the virtual clock); only the wall-clock interleaving of reports
// across concurrently running systems varies, and summaries always
// arrive in window order.
type windowEmitter struct {
	sink    events.Sink
	window  sim.Time
	horizon sim.Time
	setup   float64
	systems []string

	mu      sync.Mutex
	reports map[int]map[string]events.WindowReport
	next    int
}

func newWindowEmitter(spec *Spec, opts systems.Options, sink events.Sink) *windowEmitter {
	window := sim.Time(spec.Stream.WindowSeconds)
	if window <= 0 {
		window = sim.Day
	}
	setup := opts.SetupCost
	if setup == 0 {
		setup = csf.DefaultNodeSetupSeconds
	}
	return &windowEmitter{
		sink:    sink,
		window:  window,
		horizon: spec.Horizon(),
		setup:   setup,
		systems: append([]string(nil), spec.Systems...),
		reports: make(map[int]map[string]events.WindowReport),
	}
}

// observer schedules the per-window reporters on a streamed instance's
// clock; streamrun calls it after every attach and before the feeder
// starts. Reporter events are therefore scheduled before any simulation
// event and run first at each boundary: the snapshot covers [start, end)
// exactly, and since reporters only read, the simulation stays
// byte-identical to the unobserved run.
func (w *windowEmitter) observer(system, cellKey string) func(systems.Instance) {
	return func(inst systems.Instance) {
		for i, start := 0, sim.Time(0); start < w.horizon; i, start = i+1, start+w.window {
			i, start := i, start
			end := start + w.window
			if end > w.horizon {
				end = w.horizon
			}
			inst.Engine().At(end, func() {
				rep := events.WindowReport{
					System: system,
					Cell:   cellKey,
					Index:  i,
					Start:  int64(start),
					End:    int64(end),
				}
				adjusted := 0
				for _, pw := range inst.Window(end) {
					rep.Providers = append(rep.Providers, pw.Name)
					rep.Completed = append(rep.Completed, pw.Completed)
					rep.NodeHours = append(rep.NodeHours, pw.NodeHours)
					rep.Adjusted = append(rep.Adjusted, pw.Adjusted)
					rep.TotalNodeHours += pw.NodeHours
					adjusted += pw.Adjusted
				}
				rep.OverheadSeconds = float64(adjusted) * w.setup
				w.sink.Emit(rep)
				w.add(rep)
			})
		}
	}
}

// add files one system's report and emits every window that became
// complete, in index order.
func (w *windowEmitter) add(rep events.WindowReport) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.reports[rep.Index]
	if m == nil {
		m = make(map[string]events.WindowReport, len(w.systems))
		w.reports[rep.Index] = m
	}
	m[rep.System] = rep
	for {
		done, ok := w.reports[w.next]
		if !ok || len(done) < len(w.systems) {
			return
		}
		sum := events.WindowSummary{Index: w.next}
		for _, system := range w.systems {
			r := done[system]
			sum.Start, sum.End = r.Start, r.End
			sum.Systems = append(sum.Systems, system)
			sum.TotalNodeHours = append(sum.TotalNodeHours, r.TotalNodeHours)
		}
		if dsp, ok := done["DawningCloud"]; ok {
			if dcs := done["DCS"].TotalNodeHours; dcs > 0 {
				sum.DSPSavedVsDCS = 1 - dsp.TotalNodeHours/dcs
			}
			if drp := done["DRP"].TotalNodeHours; drp > 0 {
				sum.DSPSavedVsDRP = 1 - dsp.TotalNodeHours/drp
			}
		}
		delete(w.reports, w.next)
		w.next++
		w.sink.Emit(sum)
	}
}
