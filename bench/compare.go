package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// verdicts of one (metric, workload) row.
const (
	verdictRegress    = "regress"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// loadRuns reads the run files a side names: comma-separated files, and
// every *.json run file of a directory.
func loadRuns(side string) ([]runFile, error) {
	var paths []string
	for _, p := range strings.Split(side, ",") {
		if st, err := os.Stat(p); err == nil && st.IsDir() {
			more, _ := filepath.Glob(filepath.Join(p, "*.json"))
			for _, m := range more {
				if !strings.HasPrefix(filepath.Base(m), "trace-") {
					paths = append(paths, m)
				}
			}
			continue
		}
		paths = append(paths, p)
	}
	var runs []runFile
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		rf.Path = p
		runs = append(runs, rf)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run files", side)
	}
	return runs, nil
}

// samples gathers one end-to-end metric of one workload across runs.
func samples(runs []runFile, workload, name string) []float64 {
	var xs []float64
	for _, rf := range runs {
		for _, res := range rf.Results {
			if m, ok := res.Metrics[name]; ok && res.Workload == workload && !res.Traced {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// row is one (metric, workload) comparison.
type row struct {
	Workload, Metric string
	Old, New         float64 // medians
	Worse            float64 // share of Old by which New is worse; negative when better
	Spread           float64 // the old side's interquartile distance over its median, 0 with under 4 runs
	Bound            float64
	Verdict          string
}

// judge applies the rule of the choosing-metrics guide. New is a regression
// when its median is worse than old's by more than the bound. When the old
// side's own run-to-run spread is wider than the bound the medians cannot
// settle it either way: the row is unresolved, unless every new run is on
// one side of every old run.
func judge(d metricDef, old, new []float64) row {
	r := row{Metric: d.Name, Old: median(old), New: median(new), Bound: d.Bound}
	if r.Old != 0 {
		r.Worse = (r.New - r.Old) / r.Old
		if d.Better == "higher" {
			r.Worse = -r.Worse
		}
	}
	if len(old) >= 4 {
		r.Spread = spread(old)
	}
	worseThan := func(a, b float64) bool {
		if d.Better == "higher" {
			return a < b
		}
		return a > b
	}
	allWorse, allBetter := true, true
	for _, n := range new {
		for _, o := range old {
			allWorse = allWorse && worseThan(n, o)
			allBetter = allBetter && !worseThan(n, o)
		}
	}
	switch {
	case r.Spread > r.Bound && r.Worse > r.Bound && !allWorse:
		r.Verdict = verdictUnresolved
	case r.Worse > r.Bound:
		r.Verdict = verdictRegress
	case r.Spread > r.Bound && !allBetter:
		r.Verdict = verdictUnresolved
	default:
		r.Verdict = verdictUnchanged
	}
	return r
}

// compareRuns judges every end-to-end (metric, workload) row both sides have.
func compareRuns(defs []metricDef, old, new []runFile) []row {
	var rows []row
	for _, w := range workloads {
		for _, d := range defs {
			o, n := samples(old, w.name, d.Name), samples(new, w.name, d.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			r := judge(d, o, n)
			r.Workload = w.name
			rows = append(rows, r)
		}
	}
	return rows
}

func failedOps(runs []runFile) (failed int) {
	for _, rf := range runs {
		for _, res := range rf.Results {
			failed += res.Failed
		}
	}
	return failed
}

func printRows(rows []row) (regressed int) {
	fmt.Printf("%-18s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old", "new", "worse", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-18s %-22s %14.4f %14.4f %8.1f%% %7.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictRegress {
			regressed++
		}
	}
	return regressed
}

// compareDefs are the bounds compare applies: BENCHMARK.json's for the
// metrics it declares, this package's for the workload-specific ones.
func compareDefs() ([]metricDef, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var declared struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &declared); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return append(declared.EndToEnd, extraDefs...), nil
}

func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare OLD NEW   (each a run file, a comma-separated list of them, or a directory)")
		return 2
	}
	return exitCode(compare(args[0], args[1]))
}

func compare(oldSide, newSide string) (ok bool, err error) {
	defs, err := compareDefs()
	if err != nil {
		return false, err
	}
	old, err := loadRuns(oldSide)
	if err != nil {
		return false, err
	}
	new, err := loadRuns(newSide)
	if err != nil {
		return false, err
	}
	regressed := printRows(compareRuns(defs, old, new))
	failed := failedOps(new)
	if failed > 0 {
		fmt.Printf("%d operations failed on the new side\n", failed)
	}
	return regressed == 0 && failed == 0, nil
}

// exitCode turns a subcommand's outcome into the process's.
func exitCode(ok bool, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// cmdSelfcheck runs the full end-to-end set twice on this commit — forwards,
// then backwards, same seed — and compares the two: a benchmark that
// disagrees with itself beyond its own bounds cannot judge a change.
func cmdSelfcheck(args []string) int {
	fs := flag.NewFlagSet("bench selfcheck", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "corpus and query-mix seed")
	seconds := fs.Float64("seconds", 10, "measured window per workload")
	out := fs.String("out", "", "output directory (default bench/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return exitCode(selfcheck(*seed, *seconds, *out))
}

func selfcheck(seed int64, seconds float64, out string) (ok bool, err error) {
	defs, err := compareDefs()
	if err != nil {
		return false, err
	}
	names := workloadNames()
	first, err := runAll(names, seed, seconds, 0, out)
	if err != nil {
		return false, err
	}
	slices.Reverse(names)
	second, err := runAll(names, seed, seconds, 0, out)
	if err != nil {
		return false, err
	}
	fmt.Println()
	regressed := printRows(compareRuns(defs, []runFile{*first}, []runFile{*second}))
	return regressed == 0 && first.ok() && second.ok(), nil
}
