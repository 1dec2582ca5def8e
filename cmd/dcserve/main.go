// Command dcserve runs the simulator as an HTTP service: remote callers
// submit system runs, declarative scenarios and paper-evaluation suites,
// observe them as typed event streams, and fetch structured results —
// the service-provider view of the simulator itself, multiplexing many
// tenants' studies over one engine with content-hash dedup, a bounded
// worker queue with backpressure, and TTL-evicted result caching.
//
// Usage:
//
//	dcserve [-addr :8377] [-workers 0] [-queue 256] [-ttl 15m]
//	        [-max-runs 2048] [-grace 15s] [-quiet]
//	        [-data DIR] [-snapshot-every 4096] [-no-fsync]
//	        [-worker-id local] [-lease 30s] [-max-retries 3]
//
// API (JSON everywhere; see internal/service/api):
//
//	POST   /v1/runs             {"scenario":"paper-baseline"} | {"scenario_spec":{...}}
//	                            | {"system":"DawningCloud","workload":"nasa"}
//	                            | {"experiments":["table2","table3"]}
//	GET    /v1/runs             list runs + service stats
//	                            (?status= filter, ?limit=/?cursor= pagination)
//	GET    /v1/runs/{id}        status; result when done
//	GET    /v1/runs/{id}/events NDJSON event stream (SSE with Accept: text/event-stream)
//	POST   /v1/runs/{id}/tasks  NDJSON task ingestion into a live-fed run
//	DELETE /v1/runs/{id}        cancel
//	GET    /v1/scenarios        built-in scenario catalog
//	GET    /healthz             liveness + dedup/queue/durability counters
//
// Identical submissions share one run: the response's "deduped" flag and
// the /healthz cache-hit counters make the sharing observable. A full
// queue answers 503 with Retry-After. SIGINT/SIGTERM shut down
// gracefully: intake stops, in-flight runs are canceled, and the
// process exits once the workers drain (bounded by -grace). A client
// gets 10s to send its request headers and may hold an idle
// connection for 2m; a request body or event stream has no deadline.
//
// A scenario with live providers ("source": {"kind":"live"}, with a
// "stream" block) takes its tasks online: POST NDJSON task records to
// /v1/runs/{id}/tasks (strictly validated per record, 503+Retry-After
// when the bounded lane buffer is full) and finish with {"end":true};
// the run emits incremental window_report/window_summary events as each
// accounting window closes, and idle SSE streams carry ": ping"
// keep-alives. Live runs never deduplicate (each owns its feed) and are
// not crash-recoverable (the feed dies with the process). dcscen
// -emit-ndjson generates a compatible feed from any materialized
// provider.
//
// -data makes the service durable: every run's lifecycle is written
// through a checksummed write-ahead log under DIR (compacted into a
// snapshot every -snapshot-every records), and a restart over the same
// directory resumes interrupted runs and serves finished results from
// disk — kill -9 included. Workers hold heartbeat-refreshed leases on
// executing runs; a run whose lease goes -lease stale is re-queued up
// to -max-retries times, then parked in the dead_letter state. -no-fsync
// trades crash safety on power loss for append throughput (the log is
// still written and survives process crashes).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	dawningcloud "repro"
	"repro/internal/runstore"
	"repro/internal/service/api"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dcserve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		addr    = fs.String("addr", ":8377", "listen address")
		workers = fs.Int("workers", 0, "concurrent run executions (0 = all CPUs)")
		queue   = fs.Int("queue", 256, "max queued runs before submissions get 503 (backpressure)")
		ttl     = fs.Duration("ttl", 15*time.Minute, "how long finished runs stay queryable")
		maxRuns = fs.Int("max-runs", 2048, "run-store cap (oldest finished runs evicted beyond it)")
		grace   = fs.Duration("grace", 15*time.Second, "shutdown grace period for draining workers")
		quiet   = fs.Bool("quiet", false, "disable the access/lifecycle log on stderr")

		dataDir    = fs.String("data", "", "durable run-store directory (empty = in-memory only)")
		snapEvery  = fs.Int("snapshot-every", 4096, "compact the WAL into a snapshot every N records (-1 disables)")
		noFsync    = fs.Bool("no-fsync", false, "skip fsync on WAL appends (survives process crashes, not power loss)")
		workerID   = fs.String("worker-id", "local", "name for this process's worker claims in the durable store")
		lease      = fs.Duration("lease", 30*time.Second, "worker lease TTL before a silent run is re-queued")
		maxRetries = fs.Int("max-retries", 3, "stale-claim requeues before a run is dead-lettered")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	engOpts := []dawningcloud.EngineOption{dawningcloud.WithServiceConfig(dawningcloud.ServiceConfig{
		Workers:    *workers,
		QueueDepth: *queue,
		TTL:        *ttl,
		MaxRuns:    *maxRuns,
		WorkerID:   *workerID,
		LeaseTTL:   *lease,
		MaxRetries: *maxRetries,
	})}
	if *dataDir != "" {
		store, err := runstore.Open(runstore.Options{
			Dir:           *dataDir,
			SnapshotEvery: *snapEvery,
			NoSync:        *noFsync,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcserve: open run store: %v\n", err)
			return 1
		}
		defer store.Close()
		engOpts = append(engOpts, dawningcloud.WithRunStore(store))
		if truncated := store.Stats().TruncatedBytes; truncated > 0 {
			fmt.Fprintf(os.Stderr, "dcserve: run store: truncated %d bytes of torn WAL tail\n", truncated)
		}
	}
	eng := dawningcloud.NewEngine(engOpts...)
	if *dataDir != "" {
		// Force the lazily-created run service up now so recovery (and
		// the worker pool for resumed runs) happens at boot, not on the
		// first request.
		stats := eng.ServiceStats()
		fmt.Fprintf(os.Stderr, "dcserve: run store %s: %d runs restored (%d resumed, %d requeued, %d dead-lettered)\n",
			*dataDir, stats.Stored, stats.RecoveredRuns, stats.Requeues, stats.DeadLetters)
	}
	var apiOpts []api.Option
	if !*quiet {
		apiOpts = append(apiOpts, api.WithLog(os.Stderr))
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: api.New(eng, apiOpts...),
		// Bound how long a client may hold a connection without sending a
		// request. There is no ReadTimeout or WriteTimeout: event streams
		// and long task-ingest bodies stay open as long as they flow.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dcserve: listening on %s (workers=%d queue=%d ttl=%v)\n",
		*addr, *workers, *queue, *ttl)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "dcserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: cancel the runs first so open event streams
	// reach their terminal run_finished line and close, then drain the
	// HTTP server, all bounded by the grace period.
	fmt.Fprintf(os.Stderr, "dcserve: shutting down (grace %v)\n", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	code := 0
	if err := eng.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dcserve: engine shutdown: %v\n", err)
		code = 1
	}
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "dcserve: http shutdown: %v\n", err)
		code = 1
	}
	<-errc // ListenAndServe returns ErrServerClosed after Shutdown
	fmt.Fprintln(os.Stderr, "dcserve: bye")
	return code
}
