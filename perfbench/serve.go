package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	dawningcloud "repro"
	"repro/internal/runstore"
	"repro/internal/scenario"
)

const (
	// serveClients closed-loop clients, one connection each, against
	// serveWorkers service workers: the load fits 2 CPUs.
	serveClients = 2
	serveWorkers = 2
	// historyRequests earlier requests of the same mix are in the store
	// when the server boots; recovery replays their WAL records and
	// decodes their results.
	historyRequests = 1000
	// recentSpecs bounds how far back a repeated request reaches.
	recentSpecs = 8
)

// requestMix generates the served request sequence from the run's seed:
// one-provider, one-day, one-system scenario specs over the paper's two
// HTC models and its four systems. One request in four repeats one of
// the last few fresh specs: a cache hit, or a dedup join while the
// original still runs.
type requestMix struct {
	rng    *rand.Rand
	recent [][]byte
}

func newRequestMix(seed int64) *requestMix {
	return &requestMix{rng: rand.New(rand.NewSource(seed))}
}

func (m *requestMix) next() []byte {
	if len(m.recent) > 0 && m.rng.Intn(4) == 0 {
		return m.recent[m.rng.Intn(len(m.recent))]
	}
	spec := fmt.Appendf(nil,
		`{"name":"serve","seed":%d,"days":1,"systems":[%q],"providers":[{"name":"org","source":{"kind":"synth","model":%q}}]}`,
		m.rng.Int63n(1<<40)+1, paperSystems[m.rng.Intn(len(paperSystems))], []string{"nasa", "blue"}[m.rng.Intn(2)])
	m.recent = append(m.recent, spec)
	if len(m.recent) > recentSpecs {
		m.recent = m.recent[1:]
	}
	return spec
}

// timedStore is the run store behind the served engine: the durable
// store runstore.Open returns, with every append timed while recording
// is on.
type timedStore struct {
	runstore.Store

	mu        sync.Mutex
	recording bool
	appends   []storeAppend
}

// storeAppend is one timed WAL append; bytes is the encoded result a
// finish record carries.
type storeAppend struct {
	op         runstore.Op
	id         string
	start, end time.Time
	bytes      int
}

func (s *timedStore) Append(rec *runstore.Record) error {
	start := time.Now()
	err := s.Store.Append(rec)
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recording {
		s.appends = append(s.appends, storeAppend{op: rec.Op, id: rec.ID, start: start, end: end, bytes: len(rec.Result)})
	}
	return err
}

func (s *timedStore) record(on bool) []storeAppend {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recording = on
	out := s.appends
	s.appends = nil
	return out
}

// served is a booted serve-workload server over its timed store.
type served struct {
	*server
	store *timedStore
}

func (s *served) close() error { return errors.Join(s.server.close(), s.store.Close()) }

// bootTimes splits one boot: store open, recovery into a new engine, and
// the whole set-up until /healthz answers.
type bootTimes struct{ open, recover, total time.Duration }

func bootServe(dir string, c *http.Client) (*served, bootTimes, error) {
	var bt bootTimes
	start := time.Now()
	st, err := runstore.Open(runstore.Options{Dir: dir})
	if err != nil {
		return nil, bt, err
	}
	bt.open = time.Since(start)
	ts := &timedStore{Store: st}
	eng := dawningcloud.NewEngine(
		dawningcloud.WithRunStore(ts),
		dawningcloud.WithServiceConfig(dawningcloud.ServiceConfig{Workers: serveWorkers}))
	t := time.Now()
	eng.ServiceStats() // starts the run service, which recovers the store
	bt.recover = time.Since(t)
	srv, err := startServer(eng)
	if err != nil {
		return nil, bt, errors.Join(err, eng.Shutdown(context.Background()), st.Close())
	}
	s := &served{server: srv, store: ts}
	if err := srv.healthy(c); err != nil {
		return nil, bt, errors.Join(err, s.close())
	}
	bt.total = time.Since(start)
	return s, bt, nil
}

// writeHistory runs n requests of the mix through an engine over the
// store in dir, untimed, so the served engine boots over a real WAL.
func writeHistory(dir string, mix *requestMix, n int) error {
	st, err := runstore.Open(runstore.Options{Dir: dir})
	if err != nil {
		return err
	}
	eng := dawningcloud.NewEngine(
		dawningcloud.WithRunStore(st),
		dawningcloud.WithServiceConfig(dawningcloud.ServiceConfig{Workers: serveWorkers}))
	ctx := context.Background()
	// Submit in rounds that fit the service's default queue depth (256).
	const round = 128
	var errs []error
	for done := 0; done < n && len(errs) == 0; done += round {
		var handles []*dawningcloud.RunHandle
		for i := done; i < min(done+round, n); i++ {
			spec, err := dawningcloud.ParseScenario(mix.next())
			if err == nil {
				var h *dawningcloud.RunHandle
				if h, err = eng.Submit(ctx, dawningcloud.SubmitRequest{Scenario: spec}, dawningcloud.WithWorkers(1)); err == nil {
					handles = append(handles, h)
				}
			}
			if err != nil {
				errs = append(errs, err)
				break
			}
		}
		for _, h := range handles {
			if _, err := h.Result(ctx); err != nil {
				errs = append(errs, err)
			}
		}
	}
	errs = append(errs, eng.Shutdown(ctx), st.Close())
	return errors.Join(errs...)
}

// servedRequest is one closed-loop request: POST the spec, follow its
// NDJSON event stream to run_finished, GET the report.
type servedRequest struct {
	op      string
	spec    int // index into serveLoad.specs
	runID   string
	deduped bool
	err     error

	latency, submit, events, get time.Duration
	resultBytes                  int
	digest                       [32]byte
	// queueWait and exec come from the run's created/started/finished
	// timestamps (fresh runs only; a repeat reports the original's).
	queueWait, exec time.Duration
	// spans are the root, submit, events and get span IDs (traced only).
	spans [4]int
}

// serveLoad drives the server closed-loop: every client sends its next
// request only after the previous one completed.
type serveLoad struct {
	base    string
	corrupt bool

	mu    sync.Mutex
	mix   *requestMix
	index map[string]int
	specs [][]byte
	n     int
}

func (l *serveLoad) next() (spec []byte, idx int, op string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	spec = l.mix.next()
	idx, ok := l.index[string(spec)]
	if !ok {
		idx = len(l.specs)
		l.index[string(spec)] = idx
		l.specs = append(l.specs, spec)
	}
	op = fmt.Sprintf("request-%d", l.n)
	l.n++
	return spec, idx, op
}

// phase runs every client for d and returns the requests they sent.
func (l *serveLoad) phase(clients []*http.Client, d time.Duration, tr *tracer) ([]servedRequest, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]servedRequest, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[i] = append(per[i], l.do(c, tr))
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []servedRequest
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out, elapsed
}

func (l *serveLoad) do(c *http.Client, tr *tracer) servedRequest {
	spec, idx, op := l.next()
	r := servedRequest{op: op, spec: idx}
	r.spans[0] = tr.begin(op, "request", 0)
	start := time.Now()
	r.spans[1] = tr.begin(op, "api.submit", r.spans[0])
	r.runID, r.deduped, r.err = submit(c, l.base, spec)
	tr.end(r.spans[1])
	r.submit = time.Since(start)
	if r.err == nil {
		t := time.Now()
		r.spans[2] = tr.begin(op, "api.events", r.spans[0])
		var status string
		status, _, r.err = follow(c, l.base, r.runID, false)
		tr.end(r.spans[2])
		r.events = time.Since(t)
		if r.err == nil && status != "done" {
			r.err = fmt.Errorf("run %s finished %s", r.runID, status)
		}
	}
	var body []byte
	if r.err == nil {
		t := time.Now()
		r.spans[3] = tr.begin(op, "api.get", r.spans[0])
		body, r.err = fetch(c, l.base, r.runID)
		tr.end(r.spans[3])
		r.get = time.Since(t)
	}
	r.latency = time.Since(start)
	tr.end(r.spans[0])
	if r.err == nil {
		r.resultBytes = len(body)
		if l.corrupt {
			body = corruptReport(body)
		}
		r.err = r.read(body)
	}
	return r
}

// read digests the served report and the run's lifecycle timestamps.
func (r *servedRequest) read(body []byte) error {
	var v runView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("get: %w", err)
	}
	if v.Status != "done" {
		return fmt.Errorf("run %s is %s", r.runID, v.Status)
	}
	var report bytes.Buffer
	if err := json.Compact(&report, v.Result.Report); err != nil {
		return fmt.Errorf("get: report: %w", err)
	}
	r.digest = reportDigest(report.Bytes(), v.Result.Text)
	if !r.deduped && v.Started != nil && v.Finished != nil {
		r.queueWait = v.Started.Sub(v.Created)
		r.exec = v.Finished.Sub(*v.Started)
	}
	return nil
}

// reportDigest fingerprints a report's JSON and rendered text.
func reportDigest(reportJSON []byte, text string) [32]byte {
	h := sha256.New()
	h.Write(reportJSON)
	h.Write([]byte{0})
	h.Write([]byte(text))
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// corruptReport damages a served report the way a wrong answer would:
// the first completed-jobs count gains a leading digit.
func corruptReport(body []byte) []byte {
	return bytes.Replace(body, []byte(`"Completed": `), []byte(`"Completed": 1`), 1)
}

// expectServed runs every distinct spec the requests used in process —
// the same study the server ran — and returns each one's report digest
// and simulated task count.
func expectServed(specs [][]byte, reqs []servedRequest) (map[int][32]byte, map[int]int, error) {
	digests, tasks := make(map[int][32]byte), make(map[int]int)
	for _, r := range reqs {
		if _, ok := digests[r.spec]; ok {
			continue
		}
		spec, err := scenario.ParseBytes(specs[r.spec])
		if err != nil {
			return nil, nil, err
		}
		rep, err := scenario.RunContext(context.Background(), spec, 1, nil)
		if err != nil {
			return nil, nil, err
		}
		js, err := json.Marshal(rep)
		if err != nil {
			return nil, nil, err
		}
		digests[r.spec] = reportDigest(js, rep.Render())
		tasks[r.spec] = simulated(rep)
	}
	return digests, tasks, nil
}

func runServe(cfg config) (*outcome, error) {
	out := newOutcome()
	dir := filepath.Join(cfg.work, "serve-store")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	mix := newRequestMix(cfg.seed)
	history := historyRequests
	if cfg.small {
		history = 8
	}
	if err := writeHistory(dir, mix, history); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}

	clients := make([]*http.Client, serveClients)
	for i := range clients {
		clients[i] = newClient(1)
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	var boots []bootTimes
	var srv *served
	for i := 0; i < cfg.setups; i++ {
		s, bt, err := bootServe(dir, clients[0])
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", i+1, err)
		}
		boots = append(boots, bt)
		if i == cfg.setups-1 {
			srv = s
		} else if err := s.close(); err != nil {
			return nil, fmt.Errorf("boot %d: close: %w", i+1, err)
		}
	}

	load := &serveLoad{base: srv.url, corrupt: cfg.corrupt, mix: mix, index: make(map[string]int)}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var untraced, reqs []servedRequest
	var appends []storeAppend
	var elapsed time.Duration
	before := srv.eng.ServiceStats()
	if cfg.trace {
		untraced, _ = load.phase(clients, window/2, nil)
		out.trace = newTracer()
		before = srv.eng.ServiceStats()
		srv.store.record(true)
		reqs, elapsed = load.phase(clients, window/2, out.trace)
		appends = srv.store.record(false)
	} else {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		reqs, elapsed = load.phase(clients, window, nil)
		var err error
		if out.metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	after := srv.eng.ServiceStats()
	if err := srv.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	all := append(append([]servedRequest(nil), untraced...), reqs...)
	digests, tasks, err := expectServed(load.specs, all)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	// A request fails when it errored or its served report differs from
	// the in-process run; failed requests stay in the latency percentiles
	// as slower than any limit.
	simulatedTasks := 0
	check := func(rs []servedRequest) {
		for i := range rs {
			r := &rs[i]
			out.attempted++
			if r.err == nil && r.digest != digests[r.spec] {
				r.err = errors.New("served report differs from the same spec run in process")
			}
			if r.err != nil {
				out.fail(1, "%s: %v", r.op, r.err)
			} else if !r.deduped {
				simulatedTasks += tasks[r.spec]
			}
		}
	}
	check(untraced)
	check(reqs)

	if !cfg.trace {
		var lat []float64
		for _, r := range reqs {
			if r.err == nil {
				lat = append(lat, ms(r.latency))
			}
		}
		done := len(lat)
		out.metrics["study_s"] = median(lat) / 1000
		out.metrics["runs_per_s"] = float64(done) / elapsed.Seconds()
		out.metrics["tasks_per_s"] = float64(simulatedTasks) / elapsed.Seconds()
		lat = withFailures(lat, len(reqs)-done)
		out.metrics["latency_p50_ms"] = median(lat)
		out.metrics["latency_p99_ms"] = rank(lat, 0.99)
		totals := make([]time.Duration, len(boots))
		for i, b := range boots {
			totals[i] = b.total
		}
		out.metrics["setup_s"] = median(seconds(totals))
		out.notef("requests completed: n=%d in %.3f s with %d clients; %s", done, elapsed.Seconds(), serveClients, tailNote(lat))
		if len(lat) < 1000 {
			out.notef("latency_p99_ms stands on fewer than 1000 requests (n=%d)", len(lat))
		}
		out.notef("setup_s: median of %d boots (store open, recovery of %d history requests, /healthz)", len(boots), history)
		return out, nil
	}
	serveLayerMetrics(out, boots, reqs, untraced, appends, before, after)
	return out, nil
}

// serveLayerMetrics derives the per-layer metrics of the traced phase and
// files each timed store append under the request whose call was in
// flight when it happened.
func serveLayerMetrics(out *outcome, boots []bootTimes, reqs, untraced []servedRequest, appends []storeAppend, before, after dawningcloud.ServiceStats) {
	spans := out.trace.snapshot()
	byRun := make(map[string]*servedRequest)
	for i := range reqs {
		if r := &reqs[i]; !r.deduped && r.runID != "" && byRun[r.runID] == nil {
			byRun[r.runID] = r
		}
	}
	appendMS := make(map[runstore.Op][]float64)
	var finishBytes []float64
	for _, a := range appends {
		appendMS[a.op] = append(appendMS[a.op], ms(a.end.Sub(a.start)))
		if a.op == runstore.OpFinish {
			finishBytes = append(finishBytes, float64(a.bytes))
		}
		// Appends of runs no traced request started (evictions, say)
		// belong to the service itself.
		op, parent := "service", 0
		if r := byRun[a.id]; r != nil {
			op, parent = r.op, r.spans[0]
			at := out.trace.since(a.start)
			for _, id := range r.spans[1:] {
				if id == 0 {
					continue
				}
				if s := spans[id-1]; s.StartNS <= at && at <= s.EndNS {
					parent = id
				}
			}
		}
		out.trace.add(op, "runstore.append."+string(a.op), parent, a.start, a.end)
	}
	spans = out.trace.snapshot()

	m := out.metrics
	var fresh, cached, events, gets, sizes, waits, execs, lat, base []float64
	for _, r := range reqs {
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.latency))
		events = append(events, ms(r.events))
		gets = append(gets, ms(r.get))
		sizes = append(sizes, float64(r.resultBytes))
		if r.deduped {
			cached = append(cached, ms(r.submit))
			continue
		}
		fresh = append(fresh, ms(r.submit))
		waits = append(waits, ms(r.queueWait))
		execs = append(execs, ms(r.exec))
	}
	for _, r := range untraced {
		if r.err == nil {
			base = append(base, ms(r.latency))
		}
	}
	m["api.submit_ms.fresh"] = median(fresh)
	m["api.submit_ms.cached"] = median(cached)
	m["api.events_ms"] = median(events)
	m["api.get_ms"] = median(gets)
	m["api.result_bytes"] = median(sizes)
	m["service.queue_wait_ms"] = median(waits)
	m["service.exec_ms"] = median(execs)
	if n := after.Submitted - before.Submitted; n > 0 {
		m["service.cache_hit_ratio"] = float64(after.CacheHits-before.CacheHits+after.Deduped-before.Deduped) / float64(n)
	}
	for _, op := range []runstore.Op{runstore.OpSubmit, runstore.OpClaim, runstore.OpFinish} {
		m["runstore.append_ms."+string(op)+".p50"] = median(appendMS[op])
		m["runstore.append_ms."+string(op)+".max"] = rank(appendMS[op], 1)
	}
	m["runstore.finish_bytes"] = median(finishBytes)
	var opens, recovers []float64
	for _, b := range boots {
		opens = append(opens, ms(b.open))
		recovers = append(recovers, ms(b.recover))
	}
	m["runstore.open_ms"] = median(opens)
	m["service.recover_ms"] = median(recovers)
	m["trace.uncovered_ms"] = median(uncoveredMS(spans, "request"))
	if u := median(base); u > 0 {
		m["trace.overhead_ratio"] = median(lat)/u - 1
	}
	out.notef("traced requests: n=%d (%d fresh, %d cached); untraced for the overhead: n=%d; store appends timed: %d",
		len(lat), len(fresh), len(cached), len(base), len(appends))
}
