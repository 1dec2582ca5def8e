// Tuning reproduces the paper's parameter study (Figures 9-11): sweep the
// DSP policy's two knobs — initial nodes B and threshold ratio R — for one
// provider and print the consumption/performance trade-off the paper uses
// to choose B40_R1.2 (NASA), B80_R1.5 (BLUE) and B10_R8 (Montage). The
// sweep is a scenario grid spec, the same study the paper suite formats
// as Figure 10.
package main

import (
	"fmt"
	"log"

	dawningcloud "repro"
)

// spec sweeps the NASA-like organization over a one-week window, which
// keeps this example fast.
const spec = `{
  "name": "tuning-nasa",
  "seed": 42,
  "days": 7,
  "systems": ["DawningCloud"],
  "providers": [{"name": "org-nasa-htc", "source": {"kind": "synth", "model": "nasa"}}],
  "sweep": {"grid": {"provider": "org-nasa-htc", "b": [10, 20, 40, 80], "r": [1.0, 1.2, 1.5, 2.0]}}
}`

func main() {
	s, err := dawningcloud.ParseScenario([]byte(spec))
	if err != nil {
		log.Fatal(err)
	}
	report, err := dawningcloud.RunScenario(s, 0)
	if err != nil {
		log.Fatal(err)
	}
	points := report.Grid

	fmt.Println("DawningCloud parameter sweep, NASA trace (one-week window):")
	fmt.Printf("%-10s %-22s %s\n", "params", "consumption (node*h)", "completed jobs")
	best := points[0]
	for _, p := range points {
		marker := ""
		if p.B == 40 && p.R == 1.2 {
			marker = "   <- paper's choice"
		}
		fmt.Printf("B%-3d R%-4.1f %-22.0f %d%s\n", p.B, p.R, p.NodeHours, p.Completed, marker)
		if p.NodeHours < best.NodeHours {
			best = p
		}
	}
	fmt.Printf("\ncheapest configuration on this window: B%d R%g at %.0f node*hours\n",
		best.B, best.R, best.NodeHours)
	fmt.Println("(the paper balances consumption against throughput, not cost alone)")
}
