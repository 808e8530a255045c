package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
)

// cmdQuery evaluates one metric expression (analysis.ParseQuery's grammar)
// offline, against a record log or a fresh simulation. A running server
// answers the same text at POST /query.
func cmdQuery(args []string) error {
	fs, sim := simFlagSet("query", 600)
	expr := fs.String("q", "", "metric expression, e.g. 'pct(version:tls12 / established)'")
	in := fs.String("in", "", "record log to load: TLSB frames, TSV lines or both (empty = simulate)")
	asJSON := fs.Bool("json", false, "print the raw JSON result instead of a table")
	fs.Parse(args)
	if *expr == "" {
		return fmt.Errorf("query: -q is required (try 'pct(version:tls12 / established)')")
	}
	// Parse first so a typo fails before anything is simulated or loaded.
	parsed, err := analysis.ParseQuery(*expr)
	if err != nil {
		return err
	}
	var s *core.Study
	if *in != "" {
		if s, err = loadLog(*in, sim.workers); err != nil {
			return err
		}
	} else {
		s = sim.study()
	}
	res, err := s.Query(parsed.String())
	if err != nil {
		return err
	}

	if *asJSON {
		body, err := res.EncodeJSONBody()
		if err == nil {
			_, err = os.Stdout.Write(body)
		}
		return err
	}
	return renderQueryResult(os.Stdout, res)
}

// renderQueryResult prints a query answer: scalars as one value, series as
// a month/value table. The buffer keeps the first write error and Flush
// returns it.
func renderQueryResult(w io.Writer, res analysis.QueryResult) error {
	bw := bufio.NewWriter(w)
	if res.Kind == "scalar" {
		fmt.Fprintf(bw, "%s = %.4f\n", res.Query, res.Value)
		return bw.Flush()
	}
	fmt.Fprintf(bw, "%s\n%-8s %12s\n", res.Query, "month", "value")
	for _, p := range res.Series.Points {
		fmt.Fprintf(bw, "%-8s %12.4f\n", p.Month, p.Value)
	}
	return bw.Flush()
}
