package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	dawningcloud "repro"
	"repro/internal/events"
	"repro/internal/synth"
)

// newTestServer builds an isolated engine + API server torn down with
// the test.
func newTestServer(t *testing.T, cfg dawningcloud.ServiceConfig) (*httptest.Server, *dawningcloud.Engine) {
	t.Helper()
	eng := dawningcloud.NewEngine(dawningcloud.WithServiceConfig(cfg))
	srv := httptest.NewServer(New(eng))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	return srv, eng
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("parse %s: %v\n%s", url, err, data)
		}
	}
	return resp
}

type wireSubmit struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Kind    string `json:"kind"`
	Deduped bool   `json:"deduped"`
	Links   struct {
		Self   string `json:"self"`
		Events string `json:"events"`
	} `json:"links"`
}

type wireRun struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result struct {
		Report *struct {
			Simulations int64
		} `json:"report"`
		Text   string          `json:"text"`
		System json.RawMessage `json:"system"`
	} `json:"result"`
}

type wireHealth struct {
	Status string                    `json:"status"`
	Stats  dawningcloud.ServiceStats `json:"stats"`
}

// pollDone polls a run until it reaches a terminal status.
func pollDone(t *testing.T, base, id string, timeout time.Duration) wireRun {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var run wireRun
		getJSON(t, base+"/v1/runs/"+id, &run)
		switch run.Status {
		case "done", "failed", "canceled":
			return run
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %s after %v", id, run.Status, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestConcurrentPaperBaselineSubmissionsExecuteOnce is the dcserve
// acceptance test: >= 8 concurrent submissions of the paper-baseline
// scenario share one run — equal IDs, exactly one execution (observable
// via the cache-hit/dedup counters), typed events streamed over HTTP —
// and the service shuts down gracefully with no leaked goroutines.
func TestConcurrentPaperBaselineSubmissionsExecuteOnce(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	eng := dawningcloud.NewEngine(dawningcloud.WithServiceConfig(dawningcloud.ServiceConfig{Workers: 2}))
	srv := httptest.NewServer(New(eng))

	const n = 8
	results := make([]wireSubmit, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, srv.URL+"/v1/runs", `{"scenario":"paper-baseline","workers":2}`)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			if err := json.Unmarshal(data, &results[i]); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	fresh := 0
	for i, r := range results {
		if r.ID == "" {
			t.Fatalf("submit %d returned no ID", i)
		}
		if r.ID != results[0].ID {
			t.Fatalf("identical specs got different run IDs: %q vs %q", r.ID, results[0].ID)
		}
		if r.Kind != "scenario" {
			t.Errorf("kind = %q", r.Kind)
		}
		if !r.Deduped {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d submissions claim to have started fresh work, want exactly 1", fresh)
	}

	run := pollDone(t, srv.URL, results[0].ID, 5*time.Minute)
	if run.Status != "done" {
		t.Fatalf("run finished %s: %s", run.Status, run.Error)
	}
	if run.Result.Report == nil || run.Result.Report.Simulations != 4 {
		t.Errorf("report missing or wrong: %+v", run.Result.Report)
	}
	if !strings.Contains(run.Result.Text, "scenario: paper-baseline") {
		t.Errorf("rendered text missing header:\n%.200s", run.Result.Text)
	}

	// Dedup is observable via the service counters.
	var health wireHealth
	getJSON(t, srv.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("healthz = %q", health.Status)
	}
	if health.Stats.Executed != 1 || health.Stats.Deduped+health.Stats.CacheHits != n-1 {
		t.Errorf("stats = %+v, want 1 executed and %d reused", health.Stats, n-1)
	}

	// Typed events stream over HTTP: NDJSON lines, run_queued first,
	// run_finished last, with the scenario's simulations in between.
	resp, err := http.Get(srv.URL + "/v1/runs/" + results[0].ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q", ct)
	}
	var wires []events.Wire
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var w events.Wire
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		wires = append(wires, w)
	}
	resp.Body.Close()
	if len(wires) < 3 {
		t.Fatalf("event stream has %d events", len(wires))
	}
	if wires[0].Type != "run_queued" || wires[0].RunID != results[0].ID {
		t.Errorf("first event = %+v, want run_queued", wires[0])
	}
	last := wires[len(wires)-1]
	if last.Type != "run_finished" || last.Status != "done" {
		t.Errorf("last event = %+v, want run_finished done", last)
	}
	seen := map[string]int{}
	for _, w := range wires {
		seen[w.Type]++
	}
	if seen["run_started"] != 4 || seen["run_completed"] != 4 || seen["cell_completed"] != 4 {
		t.Errorf("event mix = %v, want 4 of each simulation event", seen)
	}

	// Graceful shutdown: no leaked goroutines after the server and the
	// engine's run service stop.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := eng.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutinesBefore {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after shutdown", goroutinesBefore, runtime.NumGoroutine())
}

// TestSystemRunOverHTTP: a system request over a built-in workload runs
// to completion and returns the system result JSON.
func TestSystemRunOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, dawningcloud.ServiceConfig{Workers: 2})
	resp, data := postJSON(t, srv.URL+"/v1/runs",
		`{"system":"dcs","workload":"montage","seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sub wireSubmit
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Kind != "system" {
		t.Errorf("kind = %q", sub.Kind)
	}
	run := pollDone(t, srv.URL, sub.ID, time.Minute)
	if run.Status != "done" {
		t.Fatalf("run %s: %s", run.Status, run.Error)
	}
	var result struct {
		System    string
		Providers []struct{ Name string }
	}
	if err := json.Unmarshal(run.Result.System, &result); err != nil {
		t.Fatalf("system result: %v\n%s", err, run.Result.System)
	}
	if result.System != "DCS" || len(result.Providers) != 1 || result.Providers[0].Name != "montage-mtc" {
		t.Errorf("result = %+v", result)
	}
}

// TestSuiteRunOverHTTP: an experiments request returns rendered
// artifacts.
func TestSuiteRunOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, dawningcloud.ServiceConfig{Workers: 2})
	resp, data := postJSON(t, srv.URL+"/v1/runs", `{"experiments":["table1","tco"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sub wireSubmit
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	var run struct {
		Status string `json:"status"`
		Result struct {
			Artifacts []struct{ ID, Title, Text string } `json:"artifacts"`
		} `json:"result"`
	}
	deadline := time.Now().Add(time.Minute)
	for {
		getJSON(t, srv.URL+"/v1/runs/"+sub.ID, &run)
		if run.Status == "done" || run.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("suite run did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if run.Status != "done" || len(run.Result.Artifacts) != 2 {
		t.Fatalf("run = %+v", run)
	}
	if run.Result.Artifacts[0].ID != "table1" || run.Result.Artifacts[1].ID != "tco" {
		t.Errorf("artifact order: %+v", run.Result.Artifacts)
	}
}

// TestCancelRunOverHTTP: DELETE aborts a running simulation; the run
// reports canceled with a context error.
func TestCancelRunOverHTTP(t *testing.T) {
	srv, eng := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1})
	started := make(chan struct{}, 1)
	eng.MustRegister("http-block", dawningcloud.RunnerFunc(
		func(ctx context.Context, wls []dawningcloud.Workload, opts dawningcloud.Options) (dawningcloud.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return dawningcloud.Result{}, fmt.Errorf("aborted: %w", ctx.Err())
		}))
	resp, data := postJSON(t, srv.URL+"/v1/runs", `{"system":"http-block","workload":"montage"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sub wireSubmit
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	<-started
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %d", dresp.StatusCode)
	}
	run := pollDone(t, srv.URL, sub.ID, time.Minute)
	if run.Status != "canceled" {
		t.Errorf("status = %q, want canceled", run.Status)
	}
	if !strings.Contains(run.Error, "context canceled") {
		t.Errorf("error = %q, want a context cancellation", run.Error)
	}
}

// TestCancelSharedRunRefused: a run deduplicated across several
// submissions cannot be canceled by any one of them (409), so one
// tenant cannot destroy work others wait on.
func TestCancelSharedRunRefused(t *testing.T) {
	srv, eng := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	eng.MustRegister("shared-block", dawningcloud.RunnerFunc(
		func(ctx context.Context, wls []dawningcloud.Workload, opts dawningcloud.Options) (dawningcloud.Result, error) {
			started <- struct{}{}
			select {
			case <-release:
				return dawningcloud.Result{System: "shared-block"}, nil
			case <-ctx.Done():
				return dawningcloud.Result{}, ctx.Err()
			}
		}))
	body := `{"system":"shared-block","workload":"montage"}`
	_, data := postJSON(t, srv.URL+"/v1/runs", body)
	var first wireSubmit
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	<-started
	_, data = postJSON(t, srv.URL+"/v1/runs", body) // dedups onto the same run
	var second wireSubmit
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Deduped || second.ID != first.ID {
		t.Fatalf("second submission did not dedup: %+v", second)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+first.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE on shared run = %d (%s), want 409", resp.StatusCode, body2)
	}
	close(release)
	if got := pollDone(t, srv.URL, first.ID, time.Minute); got.Status != "done" {
		t.Errorf("shared run ended %s, want done (cancel must not have landed)", got.Status)
	}
}

// TestStatusPollSkipsResult: ?result=0 omits the result body so polls
// stay light.
func TestStatusPollSkipsResult(t *testing.T) {
	srv, _ := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1})
	_, data := postJSON(t, srv.URL+"/v1/runs", `{"system":"dcs","workload":"montage"}`)
	var sub wireSubmit
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	pollDone(t, srv.URL, sub.ID, time.Minute)
	var slim map[string]json.RawMessage
	getJSON(t, srv.URL+"/v1/runs/"+sub.ID+"?result=0", &slim)
	if _, ok := slim["result"]; ok {
		t.Error("?result=0 still carries the result body")
	}
	var full map[string]json.RawMessage
	getJSON(t, srv.URL+"/v1/runs/"+sub.ID, &full)
	if _, ok := full["result"]; !ok {
		t.Error("default GET lost the result body")
	}
}

// TestBackpressureReturns503: a full queue turns into HTTP 503 with a
// Retry-After hint.
func TestBackpressureReturns503(t *testing.T) {
	srv, eng := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1, QueueDepth: 1})
	started := make(chan struct{}, 1)
	eng.MustRegister("bp-block", dawningcloud.RunnerFunc(
		func(ctx context.Context, wls []dawningcloud.Workload, opts dawningcloud.Options) (dawningcloud.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return dawningcloud.Result{}, ctx.Err()
		}))
	submit := func(seed int) (*http.Response, []byte) {
		return postJSON(t, srv.URL+"/v1/runs",
			fmt.Sprintf(`{"system":"bp-block","workload":"montage","seed":%d}`, seed))
	}
	if resp, data := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d %s", resp.StatusCode, data)
	}
	<-started
	if resp, data := submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second: %d %s", resp.StatusCode, data)
	}
	resp, data := submit(3)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third: %d %s, want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestEventStreamSSE: Accept: text/event-stream switches the event
// endpoint to SSE framing.
func TestEventStreamSSE(t *testing.T) {
	srv, _ := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1})
	resp, data := postJSON(t, srv.URL+"/v1/runs", `{"system":"drp","workload":"montage"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sub wireSubmit
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	pollDone(t, srv.URL, sub.ID, time.Minute)

	req, err := http.NewRequest(http.MethodGet, srv.URL+sub.Links.Events, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(eresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("event: run_queued\ndata: ")) ||
		!bytes.Contains(body, []byte("event: run_finished\ndata: ")) {
		t.Errorf("SSE framing missing:\n%s", body)
	}
}

// TestScenarioCatalogAndErrors covers the catalog endpoint and the
// error contract: bad bodies, unknown names and unknown runs map to
// 400/404 with JSON error bodies.
func TestScenarioCatalogAndErrors(t *testing.T) {
	srv, _ := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1})

	var catalog struct {
		Scenarios []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
			Providers   int    `json:"providers"`
		} `json:"scenarios"`
	}
	getJSON(t, srv.URL+"/v1/scenarios", &catalog)
	names := map[string]int{}
	for _, s := range catalog.Scenarios {
		names[s.Name] = s.Providers
	}
	if names["paper-baseline"] != 3 || names["scale-10"] != 10 {
		t.Errorf("catalog = %v", names)
	}

	cases := []struct {
		name string
		body string
		want int
		msg  string
	}{
		{"malformed json", `{"scenario": paper}`, http.StatusBadRequest, "parse request"},
		{"unknown field", `{"scenariooo":"x"}`, http.StatusBadRequest, "unknown field"},
		{"empty union", `{}`, http.StatusBadRequest, "exactly one of"},
		{"two forms", `{"scenario":"paper-baseline","system":"DCS"}`, http.StatusBadRequest, "exactly one of"},
		{"unknown scenario", `{"scenario":"warp"}`, http.StatusBadRequest, "neither a built-in"},
		{"unknown system", `{"system":"warp","workload":"nasa"}`, http.StatusBadRequest, "unknown system"},
		{"unknown workload", `{"system":"DCS","workload":"mosaic"}`, http.StatusBadRequest, "unknown workload"},
		{"bad inline spec", `{"scenario_spec":{"name":"x","providers":[]}}`, http.StatusBadRequest, "at least one provider"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, srv.URL+"/v1/runs", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, tc.msg) {
				t.Errorf("error body %s missing %q", data, tc.msg)
			}
		})
	}

	for _, path := range []string{"/v1/runs/run-999999", "/v1/runs/run-999999/events"} {
		resp := getJSON(t, srv.URL+path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRefusedInitialLeaseFailsTheRunNotTheServer posts a scenario whose
// two runtime environments each fit the pool but not together, on four
// systems with cells on several workers: the run fails with an error
// naming the refused runtime environment, and the server still answers.
func TestRefusedInitialLeaseFailsTheRunNotTheServer(t *testing.T) {
	srv, _ := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1})
	resp, data := postJSON(t, srv.URL+"/v1/runs", `{"workers":4,"scenario_spec":{"name":"contention","days":1,
		"systems":["DCS","DawningCloud","DRP","ssp-spot"],"pool":{"capacity":150},
		"providers":[{"name":"org","count":2,"fixed_nodes":128,"source":{"kind":"synth","model":"nasa"}}]}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub wireSubmit
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	run := pollDone(t, srv.URL, sub.ID, 30*time.Second)
	if run.Status != "failed" || !strings.Contains(run.Error, "initial provision for org-01") {
		t.Errorf("run = %s (%q), want failed naming org-01", run.Status, run.Error)
	}
	var health wireHealth
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %d after the failed run, want 200", resp.StatusCode)
	}
}

// TestDaysOutOfRangeIs400: every request form that takes a day count —
// an inline scenario spec, a NASA or BLUE system run and a suite run —
// answers 400 for one day past synth.MaxDays, for 2^30 days and for the
// window whose length in seconds overflows, before generating anything.
// So does a Montage system run, which takes no day count at all. The
// bound itself is accepted.
func TestDaysOutOfRangeIs400(t *testing.T) {
	srv, _ := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1})
	forms := map[string]string{
		"scenario_spec": `{"scenario_spec":{"name":"d","days":%d,"systems":["DCS","DawningCloud"],
			"providers":[{"name":"m","source":{"kind":"workflow","generator":"paper-montage"}}]}}`,
		"system nasa": `{"system":"DCS","workload":"nasa","days":%d}`,
		"system blue": `{"system":"DCS","workload":"blue","days":%d}`,
		// Montage takes its window from the workflow, so any days is
		// refused rather than dropped.
		"system montage": `{"system":"DCS","workload":"montage","days":%d}`,
		"experiments":    `{"experiments":["table1"],"days":%d}`,
	}
	for name, form := range forms {
		for _, days := range []int{synth.MaxDays + 1, 1 << 30, 106751991167301} {
			resp, data := postJSON(t, srv.URL+"/v1/runs", fmt.Sprintf(form, days))
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "days") {
				t.Errorf("%s, days=%d: status %d (%s), want 400 naming days", name, days, resp.StatusCode, data)
			}
		}
	}
	resp, data := postJSON(t, srv.URL+"/v1/runs", fmt.Sprintf(forms["experiments"], synth.MaxDays))
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("experiments, days=%d: status %d (%s), want 202", synth.MaxDays, resp.StatusCode, data)
	}
}

// TestListRunsIncludesStats: the listing carries snapshots and service
// counters.
// TestListRunsPaginationWalk pages a seven-run store with ?limit=3 and
// requires the concatenated pages to reproduce the unpaged listing
// exactly — same IDs, same newest-first order, no duplicates or gaps —
// with the cursor resolving through the service's ID index. Unknown
// cursors keep failing loudly with 400.
func TestListRunsPaginationWalk(t *testing.T) {
	srv, _ := newTestServer(t, dawningcloud.ServiceConfig{Workers: 2})
	const n = 7
	for i := 0; i < n; i++ {
		_, data := postJSON(t, srv.URL+"/v1/runs",
			fmt.Sprintf(`{"system":"dcs","workload":"montage","seed":%d}`, i+1))
		var sub wireSubmit
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatalf("submit %d: %v\n%s", i, err, data)
		}
		pollDone(t, srv.URL, sub.ID, time.Minute)
	}

	type page struct {
		Runs []struct {
			ID string `json:"id"`
		} `json:"runs"`
		NextCursor string `json:"next_cursor"`
	}
	var full page
	getJSON(t, srv.URL+"/v1/runs", &full)
	if len(full.Runs) != n {
		t.Fatalf("unpaged listing = %d runs, want %d", len(full.Runs), n)
	}

	var walked []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("pagination did not terminate")
		}
		url := srv.URL + "/v1/runs?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var p page
		getJSON(t, url, &p)
		if len(p.Runs) > 3 {
			t.Fatalf("page holds %d runs, want <= 3", len(p.Runs))
		}
		for _, r := range p.Runs {
			walked = append(walked, r.ID)
		}
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
	}
	if len(walked) != n {
		t.Fatalf("walked %d runs, want %d", len(walked), n)
	}
	for i, id := range walked {
		if id != full.Runs[i].ID {
			t.Errorf("page walk[%d] = %s, want %s", i, id, full.Runs[i].ID)
		}
	}

	resp := getJSON(t, srv.URL+"/v1/runs?cursor=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown cursor: status %d, want 400", resp.StatusCode)
	}
}

func TestListRunsIncludesStats(t *testing.T) {
	srv, _ := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1})
	_, data := postJSON(t, srv.URL+"/v1/runs", `{"system":"dcs","workload":"montage"}`)
	var sub wireSubmit
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	pollDone(t, srv.URL, sub.ID, time.Minute)
	var list struct {
		Runs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"runs"`
		Stats dawningcloud.ServiceStats `json:"stats"`
	}
	getJSON(t, srv.URL+"/v1/runs", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != sub.ID || list.Runs[0].Status != "done" {
		t.Errorf("list = %+v", list.Runs)
	}
	if list.Stats.Submitted != 1 || list.Stats.Done != 1 {
		t.Errorf("stats = %+v", list.Stats)
	}
}
