package dawningcloud

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestKernelMatchesReferenceGolden is the full-system half of the kernel
// differential suite: testdata/kernel_golden.json holds the complete
// Result (per-provider tables, totals, peaks, adjustment counts) of every
// registered system — DCS, SSP, DRP, DawningCloud and the ssp-spot
// extension — on the paper workloads, captured under the original
// container/heap kernel (internal/sim/refheap) before the indexed
// fast-path kernel replaced it. The current kernel must reproduce each
// system's Result exactly: any drift in event order, timestamps or
// tie-breaking shows up as a numeric difference here.
//
// One deliberate re-pin since: runtime environments now hold every grant
// by lease handle, and an hourly idle check closes the grant it watches
// (paper Section 3.2.2) instead of the owner's newest block. That moved
// exactly three numbers, regenerated with the new code: DawningCloud's
// nasa-htc and blue-htc NodeHours and its TotalNodeHours. Every other
// field, and every other system, is still the reference kernel's.
//
// The kernel-level half of the suite (random Cancel/Every/Stop/At
// interleavings replayed through both kernels) lives in
// internal/sim/diff_test.go.
//
// Each system runs through the asynchronous Submit path (handle +
// Result), so this golden also pins that the run-service lifecycle is
// result-transparent: queueing, event buffering and dedup change
// nothing about what a simulation computes.
func TestKernelMatchesReferenceGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/kernel_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("golden file holds no systems")
	}

	wls, err := PaperWorkloads(42)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Horizon: TwoWeeks, Seed: 7}

	systems := make([]string, 0, len(want))
	for system := range want {
		systems = append(systems, system)
	}
	sort.Strings(systems)
	for _, system := range systems {
		h, err := DefaultEngine().Submit(context.Background(),
			SubmitRequest{System: system, Workloads: CloneWorkloads(wls)}, WithOptions(opts))
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		res, err := h.Result(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		got := res.Result
		w := want[system]
		if !reflect.DeepEqual(got, w) {
			gotJSON, _ := json.MarshalIndent(got, "", "  ")
			wantJSON, _ := json.MarshalIndent(w, "", "  ")
			t.Errorf("%s diverged from the reference-kernel golden:\n got %s\nwant %s",
				system, gotJSON, wantJSON)
		}
	}
}
