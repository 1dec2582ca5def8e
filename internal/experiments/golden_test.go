package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// checkTablesGolden requires Tables 2-4, in that order, to match
// testdata/table{2,3,4}.golden byte for byte.
func checkTablesGolden(t *testing.T, label string, tables []Artifact) {
	t.Helper()
	for i, id := range []string{"table2", "table3", "table4"} {
		if tables[i].ID != id {
			t.Fatalf("%s: artifact %d is %s, want %s", label, i, tables[i].ID, id)
		}
		path := filepath.Join("testdata", id+".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if tables[i].Text != string(want) {
			t.Errorf("%s: %s drifted from the reference-kernel golden %s:\n got:\n%s\nwant:\n%s",
				label, id, path, tables[i].Text, want)
		}
	}
}

// TestPaperTablesGoldenBytes is the scheduling stack's byte-level
// regression pin: the rendered Tables 2-4 must match
// testdata/table{2,3,4}.golden exactly. The golden files were captured
// under the original container/heap kernel before the indexed fast-path
// kernel (and the allocation-free scheduling rework in internal/sched and
// internal/tre) replaced it, so byte-identical output here proves the new
// kernel and schedulers replay the paper evaluation event-for-event.
// table2.golden and table3.golden were re-pinned once, with the new code,
// when runtime environments began closing each dynamic grant by its own
// lease handle at its own idle check (paper Section 3.2.2): only
// DawningCloud's node-hour and saving cells moved. table4.golden is still
// the reference kernel's capture.
//
// The suite runs with Workers = 4 — more than one worker on every CI
// machine — and the full test job runs under -race, so this also pins
// that parallel table regeneration is deterministic and race-free.
func TestPaperTablesGoldenBytes(t *testing.T) {
	suite := NewSuite(42)
	suite.Workers = 4
	tables, err := suite.ArtifactsByID(context.Background(), "table2", "table3", "table4")
	if err != nil {
		t.Fatal(err)
	}
	checkTablesGolden(t, "workers=4", tables)
}

// TestPaperTablesGoldenBytesPartitioned runs the paper spec with each
// simulation's providers split onto per-core kernel partitions (the
// spec's partitions field) and requires Tables 2-4 formatted from that
// report to match the same serial-kernel golden files: intra-run
// partitioning must be invisible in every published number. P=4 exceeds
// the paper evaluation's three providers, so this also pins the
// clamp-to-workload-count path.
func TestPaperTablesGoldenBytesPartitioned(t *testing.T) {
	for _, p := range []int{2, 4} {
		spec := NewSuite(42).paperSpec()
		spec.Partitions = p
		rep, err := scenario.Run(spec, 2)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		var tables []Artifact
		for _, format := range []func(*scenario.Report) (Artifact, error){table2, table3, table4} {
			a, err := format(rep)
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			tables = append(tables, a)
		}
		checkTablesGolden(t, fmt.Sprintf("P=%d", p), tables)
	}
}

// TestPaperTablesGoldenBytesAnyWorkerCount re-renders Tables 2-4 at the
// remaining worker counts and requires the golden bytes at each: worker
// scheduling must not leak into artifact content.
func TestPaperTablesGoldenBytesAnyWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		suite := NewSuite(42)
		suite.Workers = workers
		tables, err := suite.ArtifactsByID(context.Background(), "table2", "table3", "table4")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkTablesGolden(t, fmt.Sprintf("workers=%d", workers), tables)
	}
}

// TestPaperBaselineMatchesSuiteGolden cross-checks the two ways the
// program computes the paper's evaluation: a scenario report's Base must
// deep-equal the hand-built oracle's RunAll, full Results and every field,
// for the builtin paper-baseline spec at seed 42 and for the suite's own
// paper spec at seeds 1-4 over 4 days. A spec file is therefore a faithful
// replacement for hand-built Go workloads.
func TestPaperBaselineMatchesSuiteGolden(t *testing.T) {
	builtin, err := scenario.Builtin("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, spec *scenario.Spec, oracle *Suite) {
		t.Helper()
		rep, err := scenario.Run(spec, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := oracle.RunAll()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if providers := []string{NASAProvider, BLUEProvider, MontageProvider}; !reflect.DeepEqual(rep.Providers, providers) {
			t.Fatalf("%s: providers = %v, want %v", label, rep.Providers, providers)
		}
		if !reflect.DeepEqual(rep.Base, want) {
			for _, system := range SystemNames {
				if !reflect.DeepEqual(rep.Base[system], want[system]) {
					t.Errorf("%s: %s:\n scenario %+v\n oracle   %+v", label, system, rep.Base[system], want[system])
				}
			}
			t.Errorf("%s: report Base differs from RunAll", label)
		}
	}
	check("paper-baseline", builtin, NewSuite(42))
	for seed := int64(1); seed <= 4; seed++ {
		suite := NewQuickSuite(seed)
		check(fmt.Sprintf("paper spec, seed %d", seed), suite.paperSpec(), suite)
	}
}

// TestArtifactsGolden pins every artifact — the paper's eleven and the
// three extension studies — field for field against
// testdata/artifacts.json (seed 42, 4-day window), at one worker and at
// eight. The file was written before the suite became a formatter over
// scenario reports, so it proves that every Text, SVG and Value survived
// the move. It was regenerated once, with the new code, when runtime
// environments began closing each dynamic grant by its own lease handle
// (paper Section 3.2.2): the artifacts that print a DawningCloud
// node-hour figure changed (table2, table3, fig9, fig10, fig12,
// ext-scale, ext-backfill, ext-provision) and no other.
func TestArtifactsGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "artifacts.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []Artifact
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		suite := NewQuickSuite(42)
		suite.Workers = workers
		got, err := suite.ArtifactsByID(context.Background(), "all", "extensions")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d artifacts, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: artifact %s drifted from the golden:\n got:\n%s\nwant:\n%s",
					workers, want[i].ID, got[i].Text, want[i].Text)
			}
		}
	}
}
