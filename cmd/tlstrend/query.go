package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
)

// cmdQuery evaluates one metric expression (analysis.ParseQuery's grammar):
// offline against a record log or a fresh simulation, or remotely by POSTing
// to a running server's /query endpoint (optionally a named study on a
// multi-study router).
func cmdQuery(args []string) error {
	fs, sim := simFlagSet("query", 600)
	expr := fs.String("q", "", "metric expression, e.g. 'pct(version:tls12 / established)'")
	addr := fs.String("addr", "", "query a running server at this base URL instead of evaluating offline")
	study := fs.String("study", "", "server study id (with -addr; empty = the default study's routes)")
	in := fs.String("in", "", "record log to load: TLSB frames, TSV lines or both (offline; empty = simulate)")
	asJSON := fs.Bool("json", false, "print the raw JSON result instead of a table")
	fs.Parse(args)
	if *expr == "" {
		return fmt.Errorf("query: -q is required (try 'pct(version:tls12 / established)')")
	}
	// Parse locally first so typos fail fast with the grammar error even in
	// remote mode, and so the canonical form is what travels.
	parsed, err := analysis.ParseQuery(*expr)
	if err != nil {
		return err
	}
	text := parsed.String()

	var res analysis.QueryResult
	if *addr != "" {
		res, err = remoteQuery(*addr, *study, text)
	} else {
		var s core.Study
		s.Options = sim.options()
		if *in != "" {
			err = loadLog(&s, *in)
		} else {
			err = s.Run(nil)
		}
		if err != nil {
			return err
		}
		res, err = s.Query(text)
	}
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	return renderQueryResult(os.Stdout, res)
}

// remoteQuery POSTs a query's text to a server's /query endpoint.
func remoteQuery(addr, study, text string) (analysis.QueryResult, error) {
	var res analysis.QueryResult
	url := strings.TrimSuffix(addr, "/")
	if study != "" {
		url += "/studies/" + study
	}
	body, err := json.Marshal(map[string]string{"query": text})
	if err != nil {
		return res, err
	}
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil {
		return res, fmt.Errorf("query: reading server reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var reply struct {
			Error string   `json:"error"`
			Valid []string `json:"valid"`
		}
		if json.Unmarshal(raw, &reply) == nil && reply.Error != "" {
			if len(reply.Valid) > 0 {
				return res, fmt.Errorf("query: %s (valid: %s)", reply.Error, strings.Join(reply.Valid, ", "))
			}
			return res, fmt.Errorf("query: %s", reply.Error)
		}
		return res, fmt.Errorf("query: server replied %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return res, fmt.Errorf("query: decoding server reply: %w", err)
	}
	if gen := resp.Header.Get("X-Generation"); gen != "" {
		fmt.Fprintf(os.Stderr, "server generation %s\n", gen)
	}
	return res, nil
}

// renderQueryResult prints a query answer: scalars as one value, series as
// a month/value table.
func renderQueryResult(w io.Writer, res analysis.QueryResult) error {
	if res.Kind == "scalar" {
		_, err := fmt.Fprintf(w, "%s = %.4f\n", res.Query, res.Value)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n%-8s %12s\n", res.Query, "month", "value"); err != nil {
		return err
	}
	for _, p := range res.Series.Points {
		if _, err := fmt.Fprintf(w, "%-8s %12.4f\n", p.Month, p.Value); err != nil {
			return err
		}
	}
	return nil
}
