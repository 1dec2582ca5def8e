package scenario

import (
	"fmt"
	"os"

	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/stream"
	"repro/internal/swf"
	"repro/internal/synth"
	"repro/internal/systems"
	"repro/internal/workflow"
)

// Class-default policy knobs (the paper's chosen parameters for its
// representative HTC and MTC providers).
const (
	defaultHTCInitial = 40
	defaultHTCRatio   = 1.2
	defaultMTCInitial = 10
	defaultMTCRatio   = 8
)

// Compiled is a spec lowered to the comparison harness's inputs. Every
// cell of a run reads the same workloads and job slices without copying
// them, concurrently when the run has several workers, so nothing may
// write to them once Compile returns.
type Compiled struct {
	Spec      *Spec
	Workloads []systems.Workload
	Options   systems.Options
	// Live lists the expanded names of providers with live task feeds,
	// in compile order; their workloads carry no jobs. Sources maps
	// those names to the streaming sources the caller attaches (the run
	// service's ingestion endpoint fills it) before RunContext — a
	// streamed run fails on a live provider with no source.
	Live    []string
	Sources map[string]stream.Source
}

// Compile lowers the spec: it expands provider counts, derives seeds,
// generates or loads each workload, resolves policy and fixed-RE
// defaults, and validates the result against the harness's rules.
func Compile(s *Spec) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Spec: s, Options: s.options()}
	position := int64(0) // expanded index, drives default seeds
	for i := range s.Providers {
		p := &s.Providers[i]
		for k := 0; k < p.Count; k++ {
			seed := s.Seed + position
			if p.Seed != nil {
				seed = *p.Seed + int64(k)
			}
			name := p.Name
			if p.Count > 1 {
				name = fmt.Sprintf("%s-%02d", p.Name, k+1)
			}
			wl, err := buildWorkload(s, p, name, seed)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: providers[%d] (%s): %w", s.Name, i, name, err)
			}
			c.Workloads = append(c.Workloads, wl)
			if p.Source.Kind == "live" {
				c.Live = append(c.Live, name)
			}
			position++
		}
	}
	if err := c.validateWorkloads(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return c, nil
}

// validateWorkloads is ValidateWorkloads with a carve-out for live
// providers: their workloads have no jobs until the run ingests them, so
// only the spec-level checks (name, fixed nodes, params) apply.
func (c *Compiled) validateWorkloads() error {
	live := make(map[string]bool, len(c.Live))
	for _, name := range c.Live {
		live[name] = true
	}
	if len(c.Workloads) == 0 {
		return fmt.Errorf("systems: no workloads")
	}
	seen := make(map[string]bool, len(c.Workloads))
	for i := range c.Workloads {
		wl := &c.Workloads[i]
		if seen[wl.Name] {
			return fmt.Errorf("systems: duplicate workload name %q", wl.Name)
		}
		seen[wl.Name] = true
		if live[wl.Name] {
			if err := wl.Params.Validate(); err != nil {
				return fmt.Errorf("systems: workload %s: %w", wl.Name, err)
			}
			continue
		}
		if err := wl.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Spec) options() systems.Options {
	prov := policy.GrantOrReject
	if s.Pool.Policy == "best-effort" {
		prov = policy.BestEffort
	}
	return systems.Options{
		Horizon:      s.Horizon(),
		PoolCapacity: s.Pool.Capacity,
		Provision:    prov,
		SetupCost:    s.Pool.SetupCostSeconds,
		Seed:         s.Seed,
		Partitions:   s.Partitions,
	}
}

func buildWorkload(s *Spec, p *ProviderSpec, name string, seed int64) (systems.Workload, error) {
	switch p.Source.Kind {
	case "synth":
		return buildSynth(s, p, name, seed)
	case "swf":
		return buildSWF(p, name)
	case "workflow":
		return buildWorkflow(p, name, seed)
	case "live":
		return systems.Workload{
			Name:       name,
			Class:      job.HTC,
			FixedNodes: p.FixedNodes,
			Params:     htcParams(p.Policy),
		}, nil
	default:
		return systems.Workload{}, fmt.Errorf("unknown source kind %q", p.Source.Kind)
	}
}

func buildSynth(s *Spec, p *ProviderSpec, name string, seed int64) (systems.Workload, error) {
	var model *synth.Model
	switch p.Source.Model {
	case "nasa":
		model = synth.NASAiPSC(seed)
		model.Days = s.Days
	case "blue":
		model = synth.SDSCBlueWindowed(seed, s.Days)
	case "million":
		model = synth.MillionTaskWindowed(seed, s.Days)
	default:
		return systems.Workload{}, fmt.Errorf("unknown synth model %q", p.Source.Model)
	}
	if p.Source.Util > 0 {
		model.TargetUtil = p.Source.Util
	}
	jobs, err := model.Generate()
	if err != nil {
		return systems.Workload{}, err
	}
	fixed := p.FixedNodes
	if fixed == 0 {
		fixed = model.MachineNodes
	}
	return systems.Workload{
		Name:       name,
		Class:      job.HTC,
		Jobs:       jobs,
		FixedNodes: fixed,
		Params:     htcParams(p.Policy),
	}, nil
}

func buildSWF(p *ProviderSpec, name string) (systems.Workload, error) {
	f, err := os.Open(p.Source.Path)
	if err != nil {
		return systems.Workload{}, err
	}
	defer f.Close()
	trace, err := swf.Parse(f)
	if err != nil {
		return systems.Workload{}, err
	}
	jobs := trace.Jobs()
	fixed := p.FixedNodes
	if fixed == 0 {
		fixed = job.MaxNodes(jobs)
	}
	return systems.Workload{
		Name:       name,
		Class:      job.HTC,
		Jobs:       jobs,
		FixedNodes: fixed,
		Params:     htcParams(p.Policy),
	}, nil
}

func buildWorkflow(p *ProviderSpec, name string, seed int64) (systems.Workload, error) {
	dag, err := loadDAG(&p.Source, seed)
	if err != nil {
		return systems.Workload{}, err
	}
	fixed := p.FixedNodes
	if fixed == 0 {
		if fixed, err = dag.MaxWidth(); err != nil {
			return systems.Workload{}, err
		}
	}
	return systems.Workload{
		Name:       name,
		Class:      job.MTC,
		Jobs:       dag.Jobs(p.Source.SubmitAt),
		FixedNodes: fixed,
		Params:     mtcParams(p.Policy),
	}, nil
}

func loadDAG(src *SourceSpec, seed int64) (*workflow.DAG, error) {
	if src.Path != "" {
		f, err := os.Open(src.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workflow.Decode(f)
	}
	if src.Generator == "paper-montage" {
		return workflow.PaperMontage(seed)
	}
	gen, ok := workflow.Generators[src.Generator]
	if !ok {
		return nil, fmt.Errorf("unknown workflow generator %q", src.Generator)
	}
	return gen(seed, src.Tasks)
}

func htcParams(p *PolicySpec) policy.Params {
	if p == nil {
		return policy.HTCDefaults(defaultHTCInitial, defaultHTCRatio)
	}
	return policy.HTCDefaults(p.B, p.R)
}

func mtcParams(p *PolicySpec) policy.Params {
	if p == nil {
		return policy.MTCDefaults(defaultMTCInitial, defaultMTCRatio)
	}
	return policy.MTCDefaults(p.B, p.R)
}
