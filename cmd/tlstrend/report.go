package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/timeline"
)

func cmdSimulate(args []string) error {
	fs, sim := simFlagSet("simulate", 1000)
	out := fs.String("out", "", "write the simulated records to this path as a TLSB frame log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := sim.run(*out)
	if err != nil {
		return err
	}
	return printScalars(s, "Passive study scalars (paper vs measured)")
}

// printScalars prints s's paper-vs-measured scalar report under title.
func printScalars(s *core.Study, title string) error {
	scalars, err := s.Scalars()
	if err != nil {
		return err
	}
	return analysis.RenderScalars(os.Stdout, title, scalars)
}

// printTable2 prints s's Table 2 fingerprint-summary reproduction.
func printTable2(s *core.Study) error {
	rep, err := s.Table2()
	if err != nil {
		return err
	}
	return rep.RenderTable2(os.Stdout)
}

func cmdLoadLog(args []string) error {
	fs := flag.NewFlagSet("loadlog", flag.ExitOnError)
	in := fs.String("in", "notary_conn.log", "record log to analyze: TLSB frames, TSV lines or both")
	workers := fs.Int("workers", 0, "parse workers (0 = all cores, 1 = serial)")
	figure := fs.Int("figure", 0, "also print figure N (1–10)")
	chart := fs.Bool("chart", false, "render the figure as an ASCII chart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := analysis.SpecByNum(*figure)
	if *figure != 0 && !ok {
		return fmt.Errorf("core: no figure %d", *figure)
	}
	var s core.Study
	s.Options.Workers = *workers
	start := time.Now()
	if err := loadLog(&s, *in); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %d records from %s in %v\n",
		s.Aggregate().TotalRecords(), *in, time.Since(start).Round(time.Millisecond))
	if ok {
		f, err := s.Frame()
		if err != nil {
			return err
		}
		if err := renderFigure(f.EvalFigure(spec), *chart, 20); err != nil {
			return err
		}
		fmt.Println()
	}
	return printScalars(&s, "Post-hoc log analysis (paper vs measured)")
}

func cmdFigure(args []string) error {
	fs, sim := simFlagSet("figure", 600)
	n := fs.Int("n", 1, "figure number (1–10)")
	name := fs.String("name", "", "catalog figure name (see 'tlstrend metrics'); overrides -n")
	chart := fs.Bool("chart", false, "render an ASCII chart instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Both lookups fail before anything is simulated.
	spec, ok := analysis.SpecByNum(*n)
	if *name != "" {
		if spec, ok = analysis.SpecByName(*name); !ok {
			return fmt.Errorf("no figure named %q (valid names: %s)",
				*name, strings.Join(analysis.CatalogNames(), ", "))
		}
	} else if !ok {
		return fmt.Errorf("core: no figure %d", *n)
	}
	s, err := sim.run("")
	if err != nil {
		return err
	}
	f, err := s.Frame()
	if err != nil {
		return err
	}
	return renderFigure(f.EvalFigure(spec), *chart, 20)
}

// renderFigure prints fig to stdout as an ASCII chart of the given height or
// as a table.
func renderFigure(fig analysis.Figure, chart bool, height int) error {
	if chart {
		return fig.RenderChart(os.Stdout, 100, height)
	}
	return fig.RenderTable(os.Stdout)
}

// cmdMetrics lists the declarative figure catalog: every figure the engine
// can evaluate, with its lookup keys and series names. Pure metadata — no
// simulation runs.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-4s %-10s %-22s %s\n", "n", "id", "name", "title")
	for _, spec := range analysis.Catalog() {
		num := "-"
		if spec.Num != 0 {
			num = strconv.Itoa(spec.Num)
		}
		fmt.Printf("%-4s %-10s %-22s %s\n", num, spec.ID, spec.Name, spec.Title)
		for _, m := range spec.Metrics {
			fmt.Printf("     %-24s %s\n", m.Name, m.Expr)
		}
	}
	return nil
}

func cmdFigures(args []string) error {
	fs, sim := simFlagSet("figures", 600)
	s, err := sim.parseAndRun(fs, args)
	if err != nil {
		return err
	}
	f, err := s.Frame()
	if err != nil {
		return err
	}
	for _, fig := range f.Figures() {
		if err := fig.RenderChart(os.Stdout, 100, 16); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func cmdTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	n := fs.Int("n", 3, "table number (1, 3, 4, 5 or 6)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *n {
	case 1:
		fmt.Println("Table 1 — Release dates of all SSL/TLS versions")
		for _, r := range core.Table1() {
			fmt.Printf("%-8s %04d-%02d\n", r.Name, r.Date.Year, r.Date.Month)
		}
	case 3:
		fmt.Println("Table 3 — Changes in the number of CBC ciphersuites offered by major browsers")
		for _, r := range core.Table3() {
			fmt.Println(r)
		}
	case 4:
		fmt.Println("Table 4 — Changes in the support of RC4 ciphersuites by major browsers")
		for _, r := range core.Table4() {
			fmt.Println(r)
		}
	case 5:
		fmt.Println("Table 5 — Changes in the number of 3DES ciphersuites offered by major browsers")
		for _, r := range core.Table5() {
			fmt.Println(r)
		}
	case 6:
		fmt.Println("Table 6 — Browser TLS version support")
		for _, r := range core.Table6() {
			fmt.Println(r)
		}
	default:
		return fmt.Errorf("no table %d (Table 2 has its own subcommand)", *n)
	}
	return nil
}

func cmdTable2(args []string) error {
	fs, sim := simFlagSet("table2", 600)
	s, err := sim.parseAndRun(fs, args)
	if err != nil {
		return err
	}
	return printTable2(s)
}

func cmdFingerprints(args []string) error {
	fs, sim := simFlagSet("fingerprints", 600)
	s, err := sim.parseAndRun(fs, args)
	if err != nil {
		return err
	}
	if err := printTable2(s); err != nil {
		return err
	}
	st, err := s.FingerprintDurations()
	if err != nil {
		return err
	}
	fmt.Printf("\n§4.1 fingerprint lifetimes: %d fingerprints, median %.0f d, mean %.1f d, q3 %.0f d, σ %.1f d, max %d d\n",
		st.Total, st.MedianDays, st.MeanDays, st.Q3Days, st.StdDevDays, st.MaxDays)
	fmt.Printf("  single-day: %d (%.1f%%), carrying %d of %d connections\n",
		st.SingleDay, 100*float64(st.SingleDay)/float64(st.Total), st.SingleDayConns, st.TotalConns)
	fmt.Printf("  seen >1200 days: %d, carrying %d connections\n", st.LongLived, st.LongLivedConns)
	return nil
}

func cmdExtensions(args []string) error {
	fs, sim := simFlagSet("extensions", 600)
	chart := fs.Bool("chart", false, "render an ASCII chart instead of a table")
	s, err := sim.parseAndRun(fs, args)
	if err != nil {
		return err
	}
	f, err := s.Frame()
	if err != nil {
		return err
	}
	fig, _ := f.FigureByName("extensions") // a catalog name: always found
	if err := renderFigure(fig, *chart, 18); err != nil {
		return err
	}
	fmt.Println("\nAdvertised TLS 1.3 variants (paper: 0x7e02 82.3%, draft-18 13.4%):")
	for _, v := range analysis.TLS13VariantSharesFrame(f) {
		fmt.Printf("  %-16v %6.1f%%\n", v.Variant, v.Share)
	}
	return nil
}

func cmdExperiments(args []string) error {
	fs, sim := simFlagSet("experiments", 1500)
	hosts := fs.Int("hosts", 400, "scan farm size")
	s, err := sim.parseAndRun(fs, args)
	if err != nil {
		return err
	}
	if err := printScalars(s, "Passive study (Notary substitute)"); err != nil {
		return err
	}
	fmt.Println()

	run := func(d timeline.Date) (*core.CampaignReport, error) {
		c := &core.ScanCampaign{Date: d, Hosts: *hosts, Workers: 24, Seed: sim.seed}
		return c.Run(context.Background())
	}
	sep15, err := run(timeline.D(2015, time.September, 15))
	if err != nil {
		return err
	}
	may18, err := run(timeline.D(2018, time.May, 13))
	if err != nil {
		return err
	}
	if err := analysis.RenderScalars(os.Stdout, "Active scans (Censys substitute)", core.ScanScalars(sep15, may18)); err != nil {
		return err
	}
	fmt.Println()
	return printTable2(s)
}
