package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/timeline"
)

func cmdScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	hosts := fs.Int("hosts", 300, "farm size")
	workers := fs.Int("workers", 24, "scanner workers")
	seed := fs.Int64("seed", 7, "population seed")
	dateStr := fs.String("date", "2018-05-13", "population snapshot date")
	if err := fs.Parse(args); err != nil {
		return err
	}
	date, err := time.Parse("2006-1-2", *dateStr)
	if err != nil {
		return fmt.Errorf("bad -date: %w", err)
	}
	c := &core.ScanCampaign{Date: timeline.D(date.Date()), Hosts: *hosts, Workers: *workers, Seed: *seed}
	rep, err := c.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("Scan campaign at %s over %d hosts\n", rep.Date, rep.Hosts)
	if err := core.RenderCampaign(os.Stdout, rep); err != nil {
		return err
	}
	fmt.Printf("  Heartbleed leak:     %d bytes over-read across %d hosts\n", rep.LeakedBytes, rep.VulnerableHosts)
	return nil
}

func cmdScanSweep(args []string) error {
	fs := flag.NewFlagSet("scansweep", flag.ExitOnError)
	hosts := fs.Int("hosts", 150, "farm size per snapshot")
	step := fs.Int("step", 3, "months between snapshots")
	workers := fs.Int("workers", 24, "scanner workers")
	seed := fs.Int64("seed", 7, "population seed")
	alexa := fs.Bool("alexa", false, "popularity-weighted (Alexa-style) universe")
	pushURL := fs.String("push", "", "POST the sweep as one pre-aggregated delta to this study URL ({url}/merge), e.g. http://HOST/studies/scan of a serve -studies notary,scan")
	pushSource := fs.String("push-source", "scansweep", "delta source name for -push; re-pushing the same campaign from the same source is an idempotent no-op, a different campaign needs a distinct source")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sweep := &core.ScanSweep{
		StepMonths:         *step,
		HostsPerSnapshot:   *hosts,
		Workers:            *workers,
		Seed:               *seed,
		PopularityWeighted: *alexa,
	}
	months, reports, err := sweep.RunReports(context.Background())
	if err != nil {
		return err
	}
	agg, err := core.ScanAggregate(months, reports)
	if err != nil {
		return err
	}
	if err := core.RenderSweep(os.Stdout, agg); err != nil {
		return err
	}
	if *pushURL != "" {
		// Ship the campaign's aggregate to a serving study's /merge endpoint
		// as one delta, where it answers the same queries without the server
		// re-running the sweep.
		ack, err := federation.PushDelta(*pushURL, &federation.Delta{Source: *pushSource, Agg: agg}, nil)
		if err != nil {
			return err
		}
		if ack.Duplicate {
			fmt.Fprintf(os.Stderr, "upstream %s had already applied this campaign (source %q); nothing re-counted\n",
				*pushURL, *pushSource)
		} else {
			fmt.Fprintf(os.Stderr, "pushed %d campaign records to %s (upstream generation %d)\n",
				ack.Records, *pushURL, ack.Generation)
		}
	}
	return nil
}
