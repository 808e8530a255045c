// Passivestudy reproduces the full Notary-side measurement: it simulates
// the Feb 2012 – Apr 2018 window, streams every record through a teed sink
// into both the live aggregate and a Bro-style connection log, rebuilds the
// aggregate from that log with the sharded parallel reader (proving the
// post-hoc analysis path), and prints every figure plus the
// paper-vs-measured scalar report.
//
// Usage: passivestudy [connsPerMonth] [logPath]
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
)

func main() {
	conns := 800
	if len(os.Args) > 1 {
		if n, err := strconv.Atoi(os.Args[1]); err == nil && n > 0 {
			conns = n
		}
	}
	logPath := "notary_conn.log"
	if len(os.Args) > 2 {
		logPath = os.Args[2]
	}

	logFile, err := os.Create(logPath)
	if err != nil {
		log.Fatal(err)
	}

	study := core.NewStudy(conns)
	if err := study.Run(logFile); err != nil {
		log.Fatal(err)
	}
	if err := logFile.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d connections)\n", logPath, study.Aggregate().TotalRecords())

	// Post-hoc path: reload the log on all cores (LoadLog shards the TSV
	// across Options.Workers parse workers) and verify the aggregate matches.
	reloaded, err := os.Open(logPath)
	if err != nil {
		log.Fatal(err)
	}
	defer reloaded.Close()
	var fromLog core.Study
	fromLog.Options.Workers = 0 // 0 = GOMAXPROCS
	if err := fromLog.LoadLog(reloaded); err != nil {
		log.Fatal(err)
	}
	if fromLog.Aggregate().TotalRecords() != study.Aggregate().TotalRecords() {
		log.Fatalf("log reload mismatch: %d vs %d records",
			fromLog.Aggregate().TotalRecords(), study.Aggregate().TotalRecords())
	}
	fmt.Fprintln(os.Stderr, "log reload verified: sharded reload matches the streamed aggregate")

	f, err := study.Frame()
	if err != nil {
		log.Fatal(err)
	}
	for _, fig := range f.Figures() {
		if err := fig.RenderTable(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	scalars, err := study.Scalars()
	if err != nil {
		log.Fatal(err)
	}
	if err := analysis.RenderScalars(os.Stdout, "Paper vs measured", scalars); err != nil {
		log.Fatal(err)
	}
}
