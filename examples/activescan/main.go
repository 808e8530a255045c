// Activescan reproduces the Censys-side measurement over real TCP: it
// samples a server farm from the host-census population at two snapshot
// dates (September 2015 and May 2018), binds every host to a loopback
// listener, runs the five scan probes against the farm with a concurrent
// zgrab-style scanner, and prints the §5.1–§5.6 server-side scalars.
//
// Usage: activescan [hosts]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/scanner"
	"tlsage/internal/timeline"
)

func main() {
	hosts := 400
	if len(os.Args) > 1 {
		if n, err := strconv.Atoi(os.Args[1]); err == nil && n > 0 {
			hosts = n
		}
	}

	run := func(date timeline.Date) *core.CampaignReport {
		campaign := &core.ScanCampaign{Date: date, Hosts: hosts, Seed: 7}
		start := time.Now()
		rep, err := campaign.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "scanned %d hosts × %d probes at %s in %v\n",
			hosts, len(rep.Probes), date, time.Since(start).Round(time.Millisecond))
		return rep
	}

	sep15 := run(timeline.D(2015, time.September, 15))
	may18 := run(timeline.D(2018, time.May, 13))

	for _, snap := range []struct {
		label string
		rep   *core.CampaignReport
	}{{"September 2015", sep15}, {"May 2018", may18}} {
		fmt.Printf("\n%s (%d hosts):\n", snap.label, snap.rep.Hosts)
		if err := core.RenderCampaign(os.Stdout, snap.rep); err != nil {
			log.Fatal(err)
		}
		for _, probe := range scanner.AllProbes() {
			sum := snap.rep.Probes[probe.Name]
			fmt.Printf("  probe %-12s answered %4d, alerted %4d, errors %d\n",
				probe.Name, sum.Answered, sum.Alerted, sum.Errors)
		}
	}

	fmt.Println()
	if err := analysis.RenderScalars(os.Stdout, "Paper vs measured (active scans)",
		core.ScanScalars(sep15, may18)); err != nil {
		log.Fatal(err)
	}
}
