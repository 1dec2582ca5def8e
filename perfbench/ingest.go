package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	dawningcloud "repro"
	"repro/internal/scenario"
	"repro/internal/stream"
)

const (
	// ingestBatch task records go in one POST: as many as the live lane
	// holds at its default size, so a POST into a drained lane is
	// accepted whole and one into a part-full lane is refused (503) and
	// resumed from its accepted count.
	ingestBatch = stream.DefaultLiveBuffer
	// minLiveRuns is the fewest live runs an ingest window holds.
	minLiveRuns = 3
)

// ingestSpecs are the live run's two twins: the materialized one-provider
// HTC spec (about 2.3e5 tasks of the million model over three days;
// the self-test's minimal size is one day of the NASA model) and the
// live spec whose provider receives those tasks over HTTP.
func ingestSpecs(cfg config) (materialized, live []byte, days int) {
	days, model, fixed := 3, "million", 1024
	if cfg.small {
		days, model, fixed = 1, "nasa", 128
	}
	materialized = fmt.Appendf(nil,
		`{"name":"ingest","seed":%d,"days":%d,"systems":["DawningCloud"],"providers":[{"name":"org","fixed_nodes":%d,"source":{"kind":"synth","model":%q}}]}`,
		cfg.seed, days, fixed, model)
	live = fmt.Appendf(nil,
		`{"name":"ingest-live","seed":%d,"days":%d,"systems":["DawningCloud"],"providers":[{"name":"org","fixed_nodes":%d,"source":{"kind":"live"}}],"stream":{"enabled":true,"window_seconds":86400}}`,
		cfg.seed, days, fixed)
	return materialized, live, days
}

// feed is the NDJSON task stream of one live run, cut into POST bodies.
type feed struct {
	batches [][]byte
	// starts[i] holds the byte offset of every record line in batches[i],
	// so a refused POST resumes at its accepted count.
	starts [][]int
	tasks  int
}

func newFeed(src []byte) (*feed, error) {
	spec, err := scenario.ParseBytes(src)
	if err != nil {
		return nil, err
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	jobs := c.Workloads[0].Jobs
	f := &feed{tasks: len(jobs)}
	var buf bytes.Buffer
	var starts []int
	flush := func() {
		f.batches = append(f.batches, bytes.Clone(buf.Bytes()))
		f.starts = append(f.starts, starts)
		buf.Reset()
		starts = nil
	}
	enc := json.NewEncoder(&buf)
	for i := range jobs {
		j := &jobs[i]
		starts = append(starts, buf.Len())
		if err := enc.Encode(stream.TaskRecord{ID: j.ID, Name: j.Name, Submit: j.Submit, Runtime: j.Runtime, Nodes: j.Nodes}); err != nil {
			return nil, err
		}
		if len(starts) == ingestBatch {
			flush()
		}
	}
	starts = append(starts, buf.Len())
	if err := enc.Encode(stream.TaskRecord{End: true}); err != nil {
		return nil, err
	}
	flush()
	return f, nil
}

// post sends the feed, retrying each refused (503) POST from its
// accepted count after a short backoff, and returns the records accepted
// and the POSTs sent and refused.
func (f *feed) post(c *http.Client, base, id string, tr *tracer, op string, parent int) (accepted, posts, refused int, err error) {
	url := base + "/v1/runs/" + id + "/tasks"
	backoff := time.Millisecond
	for b := 0; b < len(f.batches); {
		from := 0
		for {
			s := tr.begin(op, "api.ingest_post", parent)
			status, data, err := call(c, http.MethodPost, url, f.batches[b][f.starts[b][from]:])
			tr.end(s)
			posts++
			if err != nil {
				return accepted, posts, refused, err
			}
			var resp struct {
				Accepted int    `json:"accepted"`
				Error    string `json:"error"`
			}
			if err := json.Unmarshal(data, &resp); err != nil {
				return accepted, posts, refused, fmt.Errorf("tasks: status %d: %w", status, err)
			}
			accepted += resp.Accepted
			if status == http.StatusOK {
				backoff = time.Millisecond
				break
			}
			if status != http.StatusServiceUnavailable {
				return accepted, posts, refused, fmt.Errorf("tasks: status %d: %s", status, resp.Error)
			}
			// The lane is full: the simulation is the bottleneck. Retry
			// the rest of the batch soon (sooner than the advertised
			// Retry-After, so the lane never runs dry).
			refused++
			from += resp.Accepted
			time.Sleep(backoff)
			backoff = min(2*backoff, 16*time.Millisecond)
		}
		b++
	}
	return accepted, posts, refused, nil
}

// liveRun is one measured live run and its served report.
type liveRun struct {
	setup, dur     time.Duration
	accepted       int
	posts, refused int
	submit, get    time.Duration
	windows        int
	body           []byte
}

func runIngest(cfg config) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	matSrc, liveSrc, days := ingestSpecs(cfg)
	twin, err := study(ctx, matSrc)
	if err != nil {
		return nil, fmt.Errorf("materialized twin: %w", err)
	}
	wantBase, err := json.Marshal(twin.Base)
	if err != nil {
		return nil, err
	}
	wantSummary, err := json.Marshal(twin.Summary)
	if err != nil {
		return nil, err
	}
	f, err := newFeed(matSrc)
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}

	// Every task record counts as one operation; a live run that errors
	// (a non-2xx answer other than a retried 503, a run not ending done)
	// or fails a check fails all of its records.
	n := 0
	one := func(tr *tracer) (liveRun, bool) {
		op := fmt.Sprintf("live-%d", n)
		n++
		runtime.GC() // as for batch studies: each live run pays for its own garbage
		r, err := runLive(liveSrc, f, tr, op)
		out.attempted += f.tasks
		if err == nil && cfg.corrupt {
			r.body = corruptReport(r.body)
		}
		switch {
		case err != nil: // the live run itself failed
		case r.accepted != f.tasks:
			err = fmt.Errorf("%d of %d task records accepted", r.accepted, f.tasks)
		case r.windows != days:
			err = fmt.Errorf("%d window reports, want %d", r.windows, days)
		default:
			err = checkLive(r.body, wantBase, wantSummary)
		}
		if err != nil {
			out.fail(f.tasks, "%s: %v", op, err)
		}
		return r, err == nil
	}
	// runs returns the live runs that passed their checks and how many
	// failed.
	runs := func(window float64, tr *tracer) ([]liveRun, int) {
		var done []liveRun
		failed := 0
		start := time.Now()
		for i := 0; i < minLiveRuns || time.Since(start).Seconds() < window; i++ {
			if r, ok := one(tr); ok {
				done = append(done, r)
			} else {
				failed++
			}
		}
		return done, failed
	}

	// The first live run warms the process up; it is checked, not timed.
	one(nil)
	window := cfg.seconds
	if cfg.trace {
		window /= 2
	} else if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	measured, failed := runs(window, nil)
	if !cfg.trace {
		if out.metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
		var durs, setups []time.Duration
		tasks := 0
		for _, r := range measured {
			durs = append(durs, r.dur)
			setups = append(setups, r.setup)
			tasks += r.accepted
		}
		opMetrics(out, durs, failed, tasks)
		out.metrics["setup_s"] = median(seconds(setups))
		out.notef("setup_s: median of %d live runs, each timed from server start to the accepted submission", len(setups))
		return out, nil
	}

	out.trace = newTracer()
	traced, _ := runs(window, out.trace)
	var posts, refused int
	var submits, gets, sizes, windows []float64
	var untracedDur, tracedDur []time.Duration
	for _, r := range traced {
		posts += r.posts
		refused += r.refused
		submits = append(submits, ms(r.submit))
		gets = append(gets, ms(r.get))
		sizes = append(sizes, float64(len(r.body)))
		windows = append(windows, float64(r.windows))
		tracedDur = append(tracedDur, r.dur)
	}
	for _, r := range measured {
		untracedDur = append(untracedDur, r.dur)
	}
	spans := out.trace.snapshot()
	m := out.metrics
	m["api.submit_ms.fresh"] = median(submits)
	m["api.events_ms"] = median(durationsMS(spans, "api.events"))
	m["api.get_ms"] = median(gets)
	m["api.result_bytes"] = median(sizes)
	m["api.ingest_post_ms"] = median(durationsMS(spans, "api.ingest_post"))
	if posts > 0 {
		m["api.ingest_refused_ratio"] = float64(refused) / float64(posts)
	}
	m["events.window_reports"] = median(windows)
	m["trace.uncovered_ms"] = median(uncoveredMS(spans, "live_run"))
	overhead(out, untracedDur, tracedDur)
	out.notef("traced live runs: n=%d, %d POSTs of which %d refused", len(traced), posts, refused)
	return out, nil
}

// runLive boots a server, submits the live spec, feeds the task records
// on one connection while a second follows the SSE stream, then fetches
// the report. dur runs from the first POST until the report is read.
func runLive(liveSrc []byte, f *feed, tr *tracer, op string) (r liveRun, err error) {
	c := newClient(2)
	defer c.CloseIdleConnections()

	setup := tr.begin(op, "setup", 0)
	start := time.Now()
	s := tr.begin(op, "server.start", setup)
	srv, err := startServer(dawningcloud.NewEngine(
		dawningcloud.WithServiceConfig(dawningcloud.ServiceConfig{Workers: serveWorkers})))
	tr.end(s)
	if err != nil {
		tr.end(setup)
		return r, err
	}
	defer func() {
		if cerr := srv.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shutdown: %w", cerr)
		}
	}()
	t := time.Now()
	s = tr.begin(op, "api.submit", setup)
	id, _, err := submit(c, srv.url, liveSrc)
	tr.end(s)
	r.submit = time.Since(t)
	r.setup = time.Since(start)
	tr.end(setup)
	if err != nil {
		return r, err
	}

	root := tr.begin(op, "live_run", 0)
	start = time.Now()
	type followed struct {
		status  string
		windows int
		err     error
	}
	fc := make(chan followed, 1)
	go func() {
		s := tr.begin(op, "api.events", root)
		status, windows, err := follow(c, srv.url, id, true)
		tr.end(s)
		fc <- followed{status, windows, err}
	}()
	r.accepted, r.posts, r.refused, err = f.post(c, srv.url, id, tr, op, root)
	if err != nil {
		_ = srv.close() // cancels the run, which ends the follower's stream
		<-fc
		tr.end(root)
		return r, err
	}
	fr := <-fc
	if fr.err == nil && fr.status != "done" {
		fr.err = fmt.Errorf("run %s finished %s", id, fr.status)
	}
	if fr.err != nil {
		tr.end(root)
		return r, fr.err
	}
	r.windows = fr.windows
	t = time.Now()
	s = tr.begin(op, "api.get", root)
	r.body, err = fetch(c, srv.url, id)
	tr.end(s)
	r.get = time.Since(t)
	r.dur = time.Since(start)
	tr.end(root)
	return r, err
}

// checkLive compares the served live report's Base and Summary with the
// materialized twin's, as CI's streaming smoke job does.
func checkLive(body, wantBase, wantSummary []byte) error {
	var v struct {
		Status string `json:"status"`
		Result struct {
			Report struct {
				Base    json.RawMessage
				Summary json.RawMessage
			} `json:"report"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("get: %w", err)
	}
	if v.Status != "done" {
		return fmt.Errorf("live run is %s", v.Status)
	}
	for _, part := range []struct {
		name      string
		got, want []byte
	}{{"Base", v.Result.Report.Base, wantBase}, {"Summary", v.Result.Report.Summary, wantSummary}} {
		var got bytes.Buffer
		if err := json.Compact(&got, part.got); err != nil {
			return fmt.Errorf("report %s: %w", part.name, err)
		}
		if !bytes.Equal(got.Bytes(), part.want) {
			return fmt.Errorf("report %s differs from the materialized twin's", part.name)
		}
	}
	return nil
}
