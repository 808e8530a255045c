package fingerprint_test

import (
	"fmt"
	"math/rand"
	"os"

	"tlsage/internal/clientdb"
	"tlsage/internal/core"
	"tlsage/internal/fingerprint"
	"tlsage/internal/simulate"
)

// Exercise the §4 fingerprinting pipeline: build the fingerprint database,
// fingerprint a live Chrome-65-style hello (GREASE included) and look it up,
// show that GREASE draws leave the fingerprint alone, reproduce Table 2
// against simulated traffic, and print the §4.1 lifetime statistics.
func ExampleDB_Lookup() {
	db := fingerprint.BuildDefault()
	fmt.Printf("fingerprint database: %d entries (%d removed as ambiguous)\n",
		db.Size(), db.RemovedCount())

	// Fingerprint a Chrome 65 hello, GREASE and all, and look it up.
	chrome, _ := clientdb.ProfileByName("Chrome")
	rel, _ := chrome.ReleaseByVersion("65")
	hello := rel.Config.BuildHello(rand.New(rand.NewSource(99)), false)
	fp := fingerprint.FromClientHello(hello)
	if entry, ok := db.Lookup(fp); ok {
		fmt.Printf("live hello matched: %s (%s), versions %v\n",
			entry.Software, entry.Class, entry.Versions)
	} else {
		fmt.Println("live hello did not match (unexpected)")
	}

	// GREASE invariance: a second hello with different random GREASE values
	// produces the identical fingerprint.
	hello2 := rel.Config.BuildHello(rand.New(rand.NewSource(123)), false)
	if fp2 := fingerprint.FromClientHello(hello2); fp2 == fp {
		fmt.Println("GREASE invariance holds: same fingerprint across GREASE draws")
	} else {
		fmt.Println("GREASE invariance violated (unexpected)")
	}

	// Match the database against simulated traffic: Table 2.
	study, err := core.Simulate(simulate.DefaultOptions(500), nil)
	if err != nil {
		panic(err)
	}
	fmt.Println()
	if err := study.Table2().RenderTable2(os.Stdout); err != nil {
		panic(err)
	}

	// The same attribution rides the declarative query surface: agent:
	// columns carry ingest-time client-class attribution (the numbers behind
	// Table 2), fp: columns the top-32 fingerprints by volume with the rest
	// folded into fp:other.
	fmt.Println("\nattribution via the query surface:")
	for _, src := range []string{
		"over(agent:* / fp-conns)",        // total attributed coverage (Table 2's bottom line)
		"pct(agent:libraries / fp-conns)", // one class's monthly share
		"count(fp:other)",                 // volume beyond the top-K columns
	} {
		res, err := study.Query(src)
		if err != nil {
			panic(err)
		}
		if res.Kind == "scalar" {
			fmt.Printf("  %-34s = %.2f\n", src, res.Value)
		} else {
			last := res.Series.Points[len(res.Series.Points)-1]
			fmt.Printf("  %-34s = %.2f (at %s)\n", src, last.Value, last.Month)
		}
	}

	st := study.FingerprintDurations()
	fmt.Printf("\n§4.1 lifetimes over %d fingerprints:\n", st.Total)
	fmt.Printf("  median %.0f d, mean %.1f d, 3rd quartile %.0f d, σ %.1f d, max %d d\n",
		st.MedianDays, st.MeanDays, st.Q3Days, st.StdDevDays, st.MaxDays)
	fmt.Printf("  single-day fingerprints: %d (%.1f%%), carrying %d of %d connections\n",
		st.SingleDay, 100*float64(st.SingleDay)/float64(st.Total), st.SingleDayConns, st.TotalConns)
	fmt.Printf("  fingerprints spanning >1200 days: %d\n", st.LongLived)
	// Output:
	// fingerprint database: 1561 entries (2 removed as ambiguous)
	// live hello matched: Chrome (Browsers), versions [65]
	// GREASE invariance holds: same fingerprint across GREASE draws
	//
	// Table 2 — Fingerprint summary (DB size 1561, coverage 73.50% of fingerprinted connections)
	// class                         № FPs   coverage
	// Libraries                       700     48.34%
	// Browsers                        192     19.65%
	// OS Tools and Services            13      2.22%
	// Mobile apps                     489      0.92%
	// AV                               44      0.77%
	// Dev. tools                       12      0.67%
	// Cloud Storage                    29      0.45%
	// Malware & PUP                    49      0.32%
	// Email                            33      0.16%
	//
	// attribution via the query surface:
	//   over(agent:* / fp-conns)           = 73.50
	//   pct(agent:libraries / fp-conns)    = 51.20 (at 2018-04)
	//   count(fp:other)                    = 5013.00
	//
	// §4.1 lifetimes over 190 fingerprints:
	//   median 1 d, mean 498.2 d, 3rd quartile 1070 d, σ 620.5 d, max 1547 d
	//   single-day fingerprints: 99 (52.1%), carrying 99 of 25490 connections
	//   fingerprints spanning >1200 days: 46
}
