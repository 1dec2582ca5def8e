// Consolidation reproduces the paper's headline experiment: three service
// providers — two HTC organizations replaying the NASA-iPSC-like and
// SDSC-BLUE-like traces and one MTC organization running a 1,000-task
// Montage workflow — consolidated on one cloud platform under each of the
// four usage models. It prints Tables 2-4 and Figures 12-14.
package main

import (
	"context"
	"fmt"
	"log"

	dawningcloud "repro"
)

func main() {
	suite := dawningcloud.NewSuite(42)
	// All six artifacts format one run of the paper's evaluation.
	arts, err := suite.ArtifactsByID(context.Background(),
		"table2", "table3", "table4", "fig12", "fig13", "fig14")
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range arts {
		fmt.Println(a.Text)
		fmt.Printf("[%s]\n\n", a.PaperRef)
	}

	dcs, ssp, ratio, err := dawningcloud.TCOComparison()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TCO per month: DCS $%.0f vs SSP $%.0f (%.1f%%)\n", dcs, ssp, ratio*100)
	fmt.Println("\nConclusion (paper Section 4.5.6): with DawningCloud, MTC and HTC")
	fmt.Println("service providers and the resource provider benefit from the")
	fmt.Println("economies of scale on the cloud platform.")
}
