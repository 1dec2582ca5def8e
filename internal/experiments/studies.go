package experiments

import "repro/internal/scenario"

// A study is the one scenario run that some artifacts format. Its spec is
// built in Go from the suite's Seed and Days and holds the same providers
// Workloads builds by hand.

// scaleProviders is how many NASA-like organizations the economies-of-scale
// extension consolidates.
const scaleProviders = 5

// Positions of the paper's providers in providerSpecs and Workloads.
const (
	nasaIndex = iota
	blueIndex
	montageIndex
)

// providerSpecs declares the paper's three service providers in Workloads
// order. Each seed is set explicitly, because a spec seed of 0 means 42.
func (s *Suite) providerSpecs() []scenario.ProviderSpec {
	seed := func(offset int64) *int64 {
		v := s.Seed + offset
		return &v
	}
	return []scenario.ProviderSpec{
		{
			Name:       NASAProvider,
			Seed:       seed(0),
			FixedNodes: NASAFixed,
			Source:     scenario.SourceSpec{Kind: "synth", Model: "nasa"},
			Policy:     &scenario.PolicySpec{B: NASAInitial, R: NASARatio},
		},
		{
			Name:       BLUEProvider,
			Seed:       seed(1),
			FixedNodes: BLUEFixed,
			Source:     scenario.SourceSpec{Kind: "synth", Model: "blue"},
			Policy:     &scenario.PolicySpec{B: BLUEInitial, R: BLUERatio},
		},
		{
			Name:       MontageProvider,
			Seed:       seed(2),
			FixedNodes: MontageFixed,
			Source: scenario.SourceSpec{Kind: "workflow", Generator: "paper-montage",
				SubmitAt: int64(s.montageAt())},
			Policy: &scenario.PolicySpec{B: MontageInitial, R: MontageRatio},
		},
	}
}

// newSpec assembles a study spec over the suite's seed and window, with
// defaults applied so the scenario engine can validate and run it. The
// window is set after the defaults: a zero Days is an error, as it is for
// the oracle, not the two-week default.
func (s *Suite) newSpec(name string, systemNames []string, providers []scenario.ProviderSpec, sweep *scenario.SweepSpec) *scenario.Spec {
	spec := &scenario.Spec{
		Name:      name,
		Seed:      s.Seed,
		Systems:   append([]string(nil), systemNames...),
		Providers: providers,
		Sweep:     sweep,
	}
	spec.ApplyDefaults()
	spec.Days = s.Days
	return spec
}

// paperSpec is the paper's evaluation: the three providers consolidated
// under each of the four systems (Tables 2-4, Figures 12-14).
func (s *Suite) paperSpec() *scenario.Spec {
	return s.newSpec("paper", SystemNames, s.providerSpecs(), nil)
}

// gridSpec sweeps DawningCloud over the B×R grid for one provider (an
// index into providerSpecs) in isolation, the paper's parameter-tuning
// methodology (Figures 9-11).
func (s *Suite) gridSpec(provider int, ratios []float64) *scenario.Spec {
	p := s.providerSpecs()[provider]
	return s.newSpec("sweep-"+p.Name, []string{"DawningCloud"}, []scenario.ProviderSpec{p},
		&scenario.SweepSpec{Grid: &scenario.GridSpec{Provider: p.Name, B: SweepInitials, R: ratios}})
}

// scaleSpec consolidates n distinct-seed NASA-like organizations one at a
// time under DCS and DawningCloud: the economies-of-scale curve behind the
// paper's title question.
func (s *Suite) scaleSpec(n int) *scenario.Spec {
	seed := s.Seed + 100
	return s.newSpec("scale", []string{"DCS", "DawningCloud"}, []scenario.ProviderSpec{{
		Name:   "org",
		Count:  n,
		Seed:   &seed,
		Source: scenario.SourceSpec{Kind: "synth", Model: "nasa"},
		Policy: &scenario.PolicySpec{B: NASAInitial, R: NASARatio},
	}}, &scenario.SweepSpec{Scale: true})
}
