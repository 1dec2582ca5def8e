// Command dawningbench regenerates the paper's evaluation: every table and
// figure of Section 4, printed as text and optionally written out as
// .txt/.svg artifacts.
//
// Usage:
//
//	dawningbench [-experiment all|table1|fig9|fig10|fig11|table2|table3|table4|fig12|fig13|fig14|tco
//	              |ext-scale|ext-backfill|ext-provision|extensions]
//	             [-seed N] [-days N] [-out DIR] [-workers N]
//
// Each artifact formats the report of one scenario study (the paper
// spec's four system runs, a provider's B×R grid, or the scale sweep);
// each study a request needs runs once, and its simulation cells fan out
// over up to -workers concurrent workers; 0 uses all CPUs and 1 restores
// the serial reference behaviour. Artifact content is identical at any
// worker count. -progress streams run/cell/table events, keyed by
// scenario cell, to stderr; an interrupt (Ctrl-C) cancels in-flight
// simulations.
//
// The kernel and partition throughput measurements are Go benchmarks in
// internal/kernelbench (BenchmarkKernel writes BENCH_kernel.json,
// BenchmarkPartition BENCH_partition.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	dawningcloud "repro"
	"repro/internal/events"
	"repro/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "artifact to regenerate (all, table1, fig9..fig14, table2..table4, tco, ext-scale, ext-backfill, ext-provision, extensions)")
		seed       = flag.Int64("seed", 42, "workload generation seed")
		days       = flag.Int("days", 14, "trace window in days (the paper uses 14)")
		outDir     = flag.String("out", "", "directory for .txt/.svg artifacts (optional)")
		workers    = flag.Int("workers", 0, "max concurrent simulation cells per study (0 = all CPUs, 1 = serial)")
		progress   = flag.Bool("progress", false, "stream run/cell/table progress events to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// SubmitRequest treats Seed/Days zero as "unset" (the paper
	// defaults); an explicit zero would be silently remapped, so reject
	// it instead of producing misleading artifacts.
	var zeroed []string
	flag.Visit(func(f *flag.Flag) {
		if (f.Name == "seed" && *seed == 0) || (f.Name == "days" && *days == 0) {
			zeroed = append(zeroed, "-"+f.Name)
		}
	})
	if len(zeroed) > 0 {
		fmt.Fprintf(os.Stderr, "dawningbench: %s must be non-zero (zero means the paper default)\n",
			strings.Join(zeroed, ", "))
		os.Exit(2)
	}

	// The evaluation runs as one suite request through the asynchronous
	// lifecycle: "all"/"extensions"/single IDs expand inside the engine
	// (experiments.ExpandArtifactIDs), and -progress consumes the
	// handle's event stream through the shared console renderer.
	h, err := dawningcloud.DefaultEngine().Submit(ctx, dawningcloud.SubmitRequest{
		Experiments: []string{*experiment},
		Seed:        *seed,
		Days:        *days,
	}, dawningcloud.WithWorkers(*workers))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dawningbench: %v\n", err)
		os.Exit(1)
	}
	var stopProgress func()
	if *progress {
		stopProgress = h.Subscribe(events.Console(os.Stderr, "dawningbench:"))
	}
	res, err := h.Result(ctx)
	if stopProgress != nil {
		// On a finished run this drains the stream to its terminal event,
		// so progress lines never interleave with the printed artifacts.
		stopProgress()
	}
	if err != nil {
		h.Cancel() // interrupt: abort in-flight simulations before exiting
		fmt.Fprintf(os.Stderr, "dawningbench: %v\n", err)
		os.Exit(1)
	}
	for _, a := range res.Artifacts {
		fmt.Printf("== %s ==\n", a.Title)
		fmt.Printf("%s\n", a.Text)
		if a.PaperRef != "" {
			fmt.Printf("[%s]\n\n", a.PaperRef)
		}
		if *outDir != "" {
			if err := write(*outDir, a); err != nil {
				fmt.Fprintf(os.Stderr, "dawningbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *outDir != "" {
		fmt.Printf("artifacts written to %s\n", *outDir)
	}
}

func write(dir string, a experiments.Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	txt := filepath.Join(dir, a.ID+".txt")
	if err := os.WriteFile(txt, []byte(a.Text+"\n["+a.PaperRef+"]\n"), 0o644); err != nil {
		return err
	}
	if a.SVG != "" {
		svg := filepath.Join(dir, a.ID+".svg")
		if err := os.WriteFile(svg, []byte(a.SVG), 0o644); err != nil {
			return err
		}
	}
	return nil
}
