// Attackimpact quantifies §7.4 of the paper — "Impact of Security
// Research" — over the simulated ecosystem: for each high-profile event it
// reports the targeted metric just before disclosure and 6/12 months after.
// The paper's qualitative observations become visible deltas: the Snowden
// correlation with forward secrecy, the slow grind of RC4 retirement, the
// absence of an immediate CBC reaction to Lucky 13, and the post-Sweet32
// 3DES decline.
package main

import (
	"fmt"
	"log"
	"os"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
)

func main() {
	study := core.NewStudy(800)
	if err := study.Run(nil); err != nil {
		log.Fatal(err)
	}
	// Impacts evaluate against the study's cached columnar frame.
	f, err := study.Frame()
	if err != nil {
		log.Fatal(err)
	}
	impacts := analysis.AttackImpactsFrame(f)
	if err := analysis.RenderImpacts(os.Stdout, impacts); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nReadings (cf. §7.4):")
	for _, im := range impacts {
		verdict := "slow or indirect response"
		d := im.Delta12()
		switch {
		case d <= -10:
			verdict = "strong decline within a year"
		case d >= 10:
			verdict = "strong rise within a year"
		case d <= -3 || d >= 3:
			verdict = "visible shift within a year"
		}
		fmt.Printf("  %-14s %-28s %s\n", im.Event.Name, im.Metric, verdict)
	}
}
