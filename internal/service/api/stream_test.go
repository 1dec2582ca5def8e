package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dawningcloud "repro"
	"repro/internal/job"
	"repro/internal/stream"
)

// liveSpec is a one-day, one-system scenario with a single live
// provider: the smallest run the ingestion endpoint can feed.
func liveSpec(name string, buffer int) string {
	return fmt.Sprintf(`{
  "name": %q,
  "days": 1,
  "systems": ["SSP"],
  "providers": [
    {"name": "org-live", "fixed_nodes": 8, "source": {"kind": "live"}}
  ],
  "stream": {"enabled": true, "window_seconds": 43200, "buffer_tasks": %d}
}`, name, buffer)
}

func submitLive(t *testing.T, url, spec string) (id string) {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/runs", fmt.Sprintf(`{"scenario_spec": %s}`, spec))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit live run: %d\n%s", resp.StatusCode, data)
	}
	var sub struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Deduped {
		t.Fatalf("live submission deduped; live runs must never share a feed")
	}
	return sub.ID
}

func postTasks(t *testing.T, url, id, body string) (*http.Response, taskResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs/"+id+"/tasks", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr taskResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("parse task response: %v", err)
	}
	return resp, tr
}

// TestLiveRunIngestion drives the tentpole end to end over HTTP: submit
// a live-fed scenario, stream NDJSON tasks plus the end-of-stream
// record in, and watch the run finish with incremental window reports
// on its event stream.
func TestLiveRunIngestion(t *testing.T) {
	srv, eng := newTestServer(t, dawningcloud.ServiceConfig{})
	id := submitLive(t, srv.URL, liveSpec("live-ingest", 0))

	// An identical live spec must start its own run: each needs its own
	// task feed, so dedup would cross-wire producers.
	id2 := submitLive(t, srv.URL, liveSpec("live-ingest", 0))
	if id2 == id {
		t.Fatalf("identical live submissions shared run %s", id)
	}

	jobs := make([]job.Job, 0, 20)
	for i := 0; i < 20; i++ {
		jobs = append(jobs, job.Job{
			ID: i, Class: job.HTC,
			Submit:  int64(i) * 1800,
			Runtime: int64(600 + 120*(i%5)),
			Nodes:   1 + i%4,
		})
	}
	var feed bytes.Buffer
	if err := stream.WriteNDJSON(&feed, "", jobs); err != nil {
		t.Fatal(err)
	}
	resp, tr := postTasks(t, srv.URL, id, feed.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d (%s)", resp.StatusCode, tr.Error)
	}
	if tr.Accepted != len(jobs) || !tr.Closed {
		t.Fatalf("ingest: accepted %d closed %v, want %d true", tr.Accepted, tr.Closed, len(jobs))
	}

	h, ok := eng.Handle(id)
	if !ok {
		t.Fatalf("run %s vanished", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := h.Result(ctx)
	if err != nil {
		t.Fatalf("live run failed: %v", err)
	}
	ssp, ok := res.Report.Base["SSP"]
	if !ok || ssp.TotalNodeHours <= 0 {
		t.Fatalf("live run produced no SSP result: %+v", res.Report.Base)
	}

	// The replayed event stream carries the incremental results: one
	// window_report per 12h window and the cross-system window_summary.
	resp2, err := http.Get(srv.URL + "/v1/runs/" + id + "/events?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	counts := map[string]int{}
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var wire struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &wire); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		counts[wire.Type]++
	}
	if counts["window_report"] != 2 || counts["window_summary"] != 2 {
		t.Errorf("event stream: %d window_report + %d window_summary, want 2 + 2 (counts: %v)",
			counts["window_report"], counts["window_summary"], counts)
	}

	// A terminal run takes no more tasks.
	resp3, tr3 := postTasks(t, srv.URL, id, `{"end":true}`+"\n")
	if resp3.StatusCode != http.StatusConflict {
		t.Errorf("ingest into finished run: %d (%s), want 409", resp3.StatusCode, tr3.Error)
	}

	if h2, ok := eng.Handle(id2); ok {
		h2.Cancel()
	}
}

// TestTaskValidation pins the strict per-record admission rules and the
// non-live/unknown-run error paths.
func TestTaskValidation(t *testing.T) {
	srv, eng := newTestServer(t, dawningcloud.ServiceConfig{})
	id := submitLive(t, srv.URL, liveSpec("live-validate", 0))
	defer func() {
		if h, ok := eng.Handle(id); ok {
			h.Cancel()
		}
	}()

	cases := []struct {
		name, body string
		code       int
		accepted   int
		err        string
	}{
		{"unknown field", `{"id":1,"submit":0,"runtime":60,"nodes":1,"bogus":true}`, http.StatusBadRequest, 0,
			`record 1: json: unknown field "bogus"`},
		{"structurally invalid", `{"id":1,"submit":0,"runtime":60,"nodes":0}`, http.StatusBadRequest, 0,
			"record 1: job 1: nodes 0 < 1"},
		{"unknown lane", `{"id":1,"submit":0,"runtime":60,"nodes":1,"workload":"nope"}`, http.StatusBadRequest, 0,
			`record 1: stream: no live lane "nope"`},
		{"wider than the provider", `{"id":5,"submit":0,"runtime":60,"nodes":8}` + "\n" +
			`{"id":6,"submit":0,"runtime":60,"nodes":16}`, http.StatusBadRequest, 1,
			"record 2: job 6: 16 nodes exceed fixed RE size 8"},
		{"record over the size cap", `{"id":7,"submit":0,"runtime":60,"nodes":1}` + "\n" +
			`{"id":8,"name":"` + strings.Repeat("x", stream.MaxRecordBytes) + `","submit":0,"runtime":60,"nodes":1}`,
			http.StatusBadRequest, 1, "record 2: stream: record exceeds 65536 bytes"},
		{"submit order", `{"id":1,"submit":100,"runtime":60,"nodes":1}` + "\n" +
			`{"id":2,"submit":50,"runtime":60,"nodes":1}`, http.StatusBadRequest, 1,
			"record 2: job 2: submit 50 before previous 100 (sources must be submit-sorted)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, tr := postTasks(t, srv.URL, id, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, tr.Error, tc.code)
			}
			if tr.Accepted != tc.accepted {
				t.Fatalf("accepted %d, want %d", tr.Accepted, tc.accepted)
			}
			if tr.Error != tc.err {
				t.Fatalf("error %q, want %q", tr.Error, tc.err)
			}
		})
	}

	// Unknown run: 404. Non-live run: 409.
	resp, _ := postTasks(t, srv.URL, "run-999999", `{"end":true}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run: %d, want 404", resp.StatusCode)
	}
	respSub, data := postJSON(t, srv.URL+"/v1/runs", `{"system":"SSP","workload":"montage"}`)
	if respSub.StatusCode != http.StatusAccepted {
		t.Fatalf("submit system run: %d\n%s", respSub.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	resp2, _ := postTasks(t, srv.URL, sub.ID, `{"id":1,"submit":0,"runtime":60,"nodes":1}`)
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("tasks into non-live run: %d, want 409", resp2.StatusCode)
	}
}

// TestTaskBackpressure fills a one-task lane buffer of a queued run (no
// worker is draining it) and requires the explicit 503 + Retry-After
// shed with the client's resume point.
func TestTaskBackpressure(t *testing.T) {
	srv, eng := newTestServer(t, dawningcloud.ServiceConfig{Workers: 1})
	// The first live run occupies the only worker (waiting for tasks
	// that never come), so the second stays queued with nothing
	// consuming its lane.
	blocker := submitLive(t, srv.URL, liveSpec("live-blocker", 0))
	queued := submitLive(t, srv.URL, liveSpec("live-queued", 1))
	defer func() {
		for _, id := range []string{blocker, queued} {
			if h, ok := eng.Handle(id); ok {
				h.Cancel()
			}
		}
	}()

	body := `{"id":1,"submit":0,"runtime":60,"nodes":1}` + "\n" +
		`{"id":2,"submit":10,"runtime":60,"nodes":1}`
	resp, tr := postTasks(t, srv.URL, queued, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overfull lane: %d (%s), want 503", resp.StatusCode, tr.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After")
	}
	if tr.Accepted != 1 {
		t.Errorf("accepted %d, want 1 (the resume point)", tr.Accepted)
	}
	if want := "record 2: stream: live buffer full"; tr.Error != want {
		t.Errorf("error %q, want %q", tr.Error, want)
	}
}

// TestEventsPing subscribes to a stalled run's SSE stream and requires
// the keep-alive comments that hold idle connections open.
func TestEventsPing(t *testing.T) {
	eng := dawningcloud.NewEngine(dawningcloud.WithServiceConfig(dawningcloud.ServiceConfig{}))
	srv := httptest.NewServer(New(eng, WithPingInterval(20*time.Millisecond)))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})

	// A live run with no tasks pushed stalls indefinitely: the feeder is
	// blocked waiting for the producer, and no events flow.
	id := submitLive(t, srv.URL, liveSpec("live-stalled", 0))
	defer func() {
		if h, ok := eng.Handle(id); ok {
			h.Cancel()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	pings := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ": ping") {
			pings++
			if pings >= 2 {
				return // the stream survived two idle intervals
			}
		}
	}
	t.Fatalf("stream ended after %d pings (want 2): %v", pings, sc.Err())
}
