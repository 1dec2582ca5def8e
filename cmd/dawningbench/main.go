// Command dawningbench regenerates the paper's evaluation: every table and
// figure of Section 4, printed as text and optionally written out as
// .txt/.svg artifacts.
//
// Usage:
//
//	dawningbench [-experiment all|table1|fig9|fig10|fig11|table2|table3|table4|fig12|fig13|fig14|tco
//	              |ext-scale|ext-backfill|ext-provision|extensions|kernel|partition]
//	             [-seed N] [-days N] [-out DIR] [-workers N] [-json FILE]
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
// The kernel experiment is not a paper artifact: it drives one million
// events through the fast indexed kernel and the refheap reference kernel
// on the identical seeded workload and prints ns/event, allocs/event and
// events/sec for both. With -json FILE the same numbers are written as
// machine-readable JSON (conventionally BENCH_kernel.json, the format CI
// tracks):
//
//	dawningbench -experiment kernel -json BENCH_kernel.json
//
// The partition experiment measures the multi-core lockstep driver: the
// same workload on one engine vs one kernel partition per CPU (capped at
// 8), reported as BENCH_partition.json:
//
//	dawningbench -experiment partition -json BENCH_partition.json
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
	"repro/internal/kernelbench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "artifact to regenerate (all, table1, fig9..fig14, table2..table4, tco, ext-scale, ext-backfill, ext-provision, extensions, kernel, partition)")
		seed       = flag.Int64("seed", 42, "workload generation seed")
		days       = flag.Int("days", 14, "trace window in days (the paper uses 14)")
		outDir     = flag.String("out", "", "directory for .txt/.svg artifacts (optional)")
		workers    = flag.Int("workers", 0, "max concurrent simulation cells per study (0 = all CPUs, 1 = serial)")
		progress   = flag.Bool("progress", false, "stream run/cell/table progress events to stderr")
		jsonOut    = flag.String("json", "", "write the kernel experiment's report as JSON to this file (e.g. BENCH_kernel.json)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *experiment == "kernel" || *experiment == "partition" {
		// The microbenchmarks have fixed seeded workloads; reject
		// explicitly-set flags they would otherwise silently ignore.
		var inapplicable []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed", "days", "out", "workers", "progress":
				inapplicable = append(inapplicable, "-"+f.Name)
			}
		})
		if len(inapplicable) > 0 {
			fmt.Fprintf(os.Stderr, "dawningbench: %s do(es) not apply to -experiment %s\n",
				strings.Join(inapplicable, ", "), *experiment)
			os.Exit(2)
		}
		var (
			text string
			save func(path string) error
		)
		if *experiment == "kernel" {
			report, err := kernelbench.RunContext(ctx, kernelbench.DefaultEvents)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dawningbench: kernel benchmark aborted: %v\n", err)
				os.Exit(1)
			}
			text = "== Kernel throughput: fast vs reference ==\n" + report.Text()
			save = report.WriteJSON
		} else {
			report, err := kernelbench.RunPartition(ctx, kernelbench.DefaultEvents, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dawningbench: partition benchmark aborted: %v\n", err)
				os.Exit(1)
			}
			text = "== Partitioned kernel throughput: 1 core vs all cores ==\n" + report.Text()
			save = report.WriteJSON
		}
		fmt.Println(text)
		if *jsonOut != "" {
			if err := save(*jsonOut); err != nil {
				fmt.Fprintf(os.Stderr, "dawningbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%s report written to %s\n", *experiment, *jsonOut)
		}
		return
	}
	if *jsonOut != "" {
		fmt.Fprintf(os.Stderr, "dawningbench: -json applies only to -experiment kernel or partition\n")
		os.Exit(2)
	}

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
