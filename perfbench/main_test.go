package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The benchmark's self-test runs every workload at minimal sizes and
// checks three things: every metric BENCHMARK.json names is emitted with
// its unit, a deliberately corrupted report counts as a failed operation,
// and the traced replay's Results equal the untraced study's.

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func smallConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.05, trace: trace, work: t.TempDir(), setups: 1, small: true}
}

// runSmall runs a workload through measure and emit and decodes the
// result line.
func runSmall(t *testing.T, cfg config) result {
	t.Helper()
	w, ok := workloadByName(cfg.workload)
	if !ok {
		t.Fatalf("unknown workload %q", cfg.workload)
	}
	out, err := measure(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, cfg, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if t.Failed() || !res.Correct {
		t.Log(buf.String())
	}
	return res
}

func entries(defs []metricDef) []metricEntry {
	out := make([]metricEntry, len(defs))
	for i, d := range defs {
		out[i] = metricEntry{d.name, d.unit}
	}
	return out
}

func TestEveryNamedMetricIsEmittedWithItsUnit(t *testing.T) {
	b := loadBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	if !reflect.DeepEqual(b.EndToEnd, entries(endToEnd)) {
		t.Fatalf("BENCHMARK.json end_to_end %v, benchmark reports %v", b.EndToEnd, entries(endToEnd))
	}
	if !reflect.DeepEqual(b.PerLayer, entries(perLayer)) {
		t.Fatalf("BENCHMARK.json per_layer %v, benchmark reports %v", b.PerLayer, entries(perLayer))
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want, mode := b.EndToEnd, "end-to-end"
			if trace {
				want, mode = b.PerLayer, "traced"
			}
			t.Run(w+"/"+mode, func(t *testing.T) {
				res := runSmall(t, smallConfig(t, w, trace))
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestCorruptedReportCountsAsFailed(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			cfg := smallConfig(t, w, false)
			cfg.corrupt = true
			res := runSmall(t, cfg)
			if res.Correct || res.Failed == 0 {
				t.Errorf("corrupted reports passed: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

func TestTracedResultsEqualUntraced(t *testing.T) {
	for _, builtin := range []string{"paper-baseline", "million-task"} {
		t.Run(builtin, func(t *testing.T) {
			src, err := batchSpec(builtin, 11, true)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := study(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			got, err := tracedStudy(tr, "study-0", src, ref, newBatchLayers())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref.Base) {
				t.Errorf("traced Results differ from the untraced study's:\n traced   %+v\n untraced %+v", got, ref.Base)
			}
			if n := len(tr.snapshot()); n == 0 {
				t.Error("traced study recorded no spans")
			}
		})
	}
}
