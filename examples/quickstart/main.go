// Quickstart: simulate the passive study at a small sample size and print
// Figure 2 (RC4 / CBC / AEAD negotiation over time) as an ASCII chart — the
// paper's headline ecosystem shift in under thirty lines.
package main

import (
	"fmt"
	"log"
	"os"

	"tlsage/internal/core"
)

func main() {
	study := core.NewStudy(400) // connections per month, Feb 2012 – Apr 2018
	if err := study.Run(nil); err != nil {
		log.Fatal(err)
	}

	// Figures come from the declarative catalog, evaluated against the
	// study's frame; "negotiated-classes" is Figure 2 (f.FigureByNum(2)
	// resolves the same entry by number).
	f, err := study.Frame()
	if err != nil {
		log.Fatal(err)
	}
	fig, _ := f.FigureByName("negotiated-classes")
	if err := fig.RenderChart(os.Stdout, 96, 18); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsimulated %d connections across %d months\n",
		study.Aggregate().TotalRecords(), len(study.Aggregate().Months()))
}
