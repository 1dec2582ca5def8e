package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/events"
	"repro/internal/scenario"
)

// paperIDs are the paper's Section 4 artifacts in presentation order —
// what "all" has always meant (the extension studies are asked for
// separately).
var paperIDs = []string{
	"table1", "fig9", "fig10", "fig11",
	"table2", "table3", "table4",
	"fig12", "fig13", "fig14", "tco",
}

// extensionIDs are the group the "extensions" alias expands to.
var extensionIDs = []string{"ext-scale", "ext-backfill", "ext-provision"}

// ArtifactIDs lists every addressable artifact in paper order: the
// vocabulary shared by dawningbench's -experiment flag, the public
// SubmitRequest.Experiments union arm and dcserve's suite requests.
func ArtifactIDs() []string {
	return append(append([]string(nil), paperIDs...), extensionIDs...)
}

// ExpandArtifactIDs normalizes a requested artifact list: "all" expands
// to the paper's eleven Section 4 artifacts (its historical meaning),
// "extensions" to the three extension studies, and unknown IDs fail
// with the full vocabulary. The result preserves request order with
// duplicates removed.
func ExpandArtifactIDs(ids []string) ([]string, error) {
	known := make(map[string]bool, len(ArtifactIDs()))
	for _, id := range ArtifactIDs() {
		known[id] = true
	}
	var out []string
	seen := make(map[string]bool)
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, raw := range ids {
		id := strings.ToLower(strings.TrimSpace(raw))
		switch {
		case id == "all":
			for _, a := range paperIDs {
				add(a)
			}
		case id == "extensions":
			for _, a := range extensionIDs {
				add(a)
			}
		case known[id]:
			add(id)
		default:
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: all, extensions, %s)",
				raw, strings.Join(ArtifactIDs(), ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no artifact IDs requested")
	}
	return out, nil
}

// step produces one artifact. Most format the report of the study that
// study builds; run produces the rest, which read no study.
type step struct {
	study  func(*Suite) *scenario.Spec
	format func(*scenario.Report) (Artifact, error)
	run    func(context.Context, *Suite) (Artifact, error)
}

func gridStudy(provider int, ratios []float64) func(*Suite) *scenario.Spec {
	return func(s *Suite) *scenario.Spec { return s.gridSpec(provider, ratios) }
}

// steps maps every artifact ID to its producing step.
var steps = map[string]step{
	"table1": {run: func(context.Context, *Suite) (Artifact, error) { return Table1(), nil }},
	"fig9":   {study: gridStudy(blueIndex, SweepRatiosHTC), format: figure9},
	"fig10":  {study: gridStudy(nasaIndex, SweepRatiosHTC), format: figure10},
	"fig11":  {study: gridStudy(montageIndex, SweepRatiosMTC), format: figure11},
	"table2": {study: (*Suite).paperSpec, format: table2},
	"table3": {study: (*Suite).paperSpec, format: table3},
	"table4": {study: (*Suite).paperSpec, format: table4},
	"fig12":  {study: (*Suite).paperSpec, format: figure12},
	"fig13":  {study: (*Suite).paperSpec, format: figure13},
	"fig14":  {study: (*Suite).paperSpec, format: figure14},
	"tco":    {run: func(context.Context, *Suite) (Artifact, error) { return TCO() }},
	"ext-scale": {
		study:  func(s *Suite) *scenario.Spec { return s.scaleSpec(scaleProviders) },
		format: scaleArtifact,
	},
	"ext-backfill": {run: func(ctx context.Context, s *Suite) (Artifact, error) {
		return s.AblationBackfill(ctx, NASAProvider)
	}},
	"ext-provision": {run: func(ctx context.Context, s *Suite) (Artifact, error) {
		return s.AblationProvision(ctx, NASAProvider, 160)
	}},
}

// ArtifactsByID regenerates the requested artifacts ("all" and
// "extensions" expand; see ExpandArtifactIDs) in request order. Each
// distinct study runs once per call, studies run one after another, and
// each runs at most Workers simulation cells at once, so artifacts are
// identical at any worker count.
func (s *Suite) ArtifactsByID(ctx context.Context, ids ...string) ([]Artifact, error) {
	expanded, err := ExpandArtifactIDs(ids)
	if err != nil {
		return nil, err
	}
	reports := make(map[string]*scenario.Report)
	out := make([]Artifact, len(expanded))
	for i, id := range expanded {
		st := steps[id]
		if st.run != nil {
			out[i], err = st.run(ctx, s)
		} else {
			spec := st.study(s)
			rep := reports[spec.Name]
			if rep == nil {
				if rep, err = scenario.RunContext(ctx, spec, s.Workers, s.Events); err != nil {
					return nil, fmt.Errorf("experiments: %s: %w", id, err)
				}
				reports[spec.Name] = rep
			}
			out[i], err = st.format(rep)
		}
		if err != nil {
			return nil, err
		}
		s.Events.Emit(events.TableRendered{ID: out[i].ID, Title: out[i].Title})
	}
	return out, nil
}
