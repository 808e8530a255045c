// Command tlstrend reproduces the measurements of "Coming of Age: A
// Longitudinal Study of TLS Deployment" (IMC 2018) over the synthetic
// ecosystem.
//
// Usage:
//
//	tlstrend simulate   [-conns N] [-seed S] [-workers W] [-out conn.log]   run the passive study, optionally writing a TLSB frame log
//	tlstrend loadlog    [-in conn.log] [-workers W] [-figure N] [-chart]    post-hoc analysis of a record log: frames, TSV lines or both (sharded parse)
//	tlstrend serve      [-http ADDR] [-tcp ADDR] [-out conn.log] [-studies a,b] [-snapshot-dir DIR] [-query-cache N] [-upstream URL [-push-interval D] [-push-source S]] [-union ID]  live notary service: TSV + binary-batch ingest, JSON query endpoints, durable snapshots, restart recovery, cached queries; -upstream turns the node into an edge collector pushing aggregate deltas, -union hosts a federated union study
//	tlstrend feed       [-addr URL | -tcp ADDR] [-in conn.log | -conns N] [-retry N]  stream a log, or a live simulation as TLSB frames, into a server
//	tlstrend query      -q EXPR [-in conn.log | -conns N]      evaluate a metric expression offline (POST /query asks a server)
//	                    (column families include fp:<id12|other> top-K fingerprints and agent:<class> client attribution)
//	tlstrend figure     [-n N | -name NAME] [-conns N] [-chart]  print one catalog figure as table or chart
//	tlstrend figures    [-conns N]                             print all figures
//	tlstrend metrics                                           list the figure catalog (no simulation)
//	tlstrend table      [-n N]                                 print Table 1, 3, 4, 5 or 6
//	tlstrend table2     [-conns N]                             print the Table 2 reproduction
//	tlstrend scan       [-hosts N] [-date YYYY-MM-DD]          run an active scan campaign over a local farm
//	tlstrend scansweep  [-hosts N] [-step M] [-alexa] [-push URL]  campaigns across the Censys window, optionally pushed to a serving study's /merge
//	tlstrend fingerprints [-conns N]                           fingerprint DB summary and §4.1 lifetimes
//	tlstrend extensions [-conns N] [-chart]                    extension uptake + TLS 1.3 variants
//	tlstrend experiments [-conns N] [-hosts N]                 full paper-vs-measured report
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tlsage/internal/core"
	"tlsage/internal/simulate"
)

// commands maps each subcommand to its entry point. Each builds its flag set
// with flag.ExitOnError, so Parse exits on a bad flag (status 2; 0 for -h)
// and never returns an error.
var commands = map[string]func(args []string) error{
	"simulate":     cmdSimulate,
	"loadlog":      cmdLoadLog,
	"serve":        cmdServe,
	"feed":         cmdFeed,
	"query":        cmdQuery,
	"figure":       cmdFigure,
	"figures":      cmdFigures,
	"metrics":      cmdMetrics,
	"table":        cmdTable,
	"table2":       cmdTable2,
	"scan":         cmdScan,
	"scansweep":    cmdScanSweep,
	"fingerprints": cmdFingerprints,
	"extensions":   cmdExtensions,
	"experiments":  cmdExperiments,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "help" || name == "-h" || name == "--help" {
		usage()
		return
	}
	cmd, ok := commands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "tlstrend: unknown command %q\n", name)
		usage()
		os.Exit(2)
	}
	if err := cmd(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "tlstrend:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `tlstrend — reproduce "Coming of Age: A Longitudinal Study of TLS Deployment"

commands:
  simulate      run the passive Notary study (optionally write a TLSB frame log)
  loadlog       rebuild the study from a record log: frames, TSV lines or both (post-hoc, sharded parsing)
  serve         run the live notary service: ingest TSV or binary-batch streams, serve JSON queries;
                -upstream pushes merged shards upstream as aggregate deltas (edge collector),
                -union hosts a study that is the live union of every hosted study
  feed          stream a log as it is, or a live simulation as TLSB frames, into a running server
  query         evaluate a metric expression (see README grammar) offline (POST /query asks a server);
                families span versions, ciphers, curves, extensions, and the attribution
                columns fp:<id|other> (top-32 fingerprints) and agent:<class> (client classes)
  figure        print one catalog figure (-n 1–10 or -name) as a table or ASCII chart
  figures       print every figure
  metrics       list the declarative figure catalog (ids, names, series)
  table         print Table 1, 3, 4, 5 or 6
  table2        print the Table 2 fingerprint-summary reproduction
  scan          run an active Censys-style campaign over a local TCP farm
  scansweep     run campaigns across Aug 2015 – May 2018 (the Censys window);
                -push ships them to a serving study's POST /merge as one delta
                (host them with serve -studies notary,scan and -push URL/studies/scan)
  fingerprints  fingerprint database summary and §4.1 lifetime stats
  extensions    extension-uptake figure (RIE, EtM, EMS, ...) and TLS 1.3 variants
  experiments   full paper-vs-measured report (passive + active + fingerprints)
`)
}

// simFlags is the -conns/-seed/-workers triple every simulating subcommand
// takes.
type simFlags struct {
	conns   int
	seed    int64
	workers int
}

// simFlagSet starts a subcommand's flag set with the triple registered; conns
// is that subcommand's default sample size.
func simFlagSet(name string, conns int) (*flag.FlagSet, *simFlags) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	sf := &simFlags{}
	fs.IntVar(&sf.conns, "conns", conns, "connections per month when simulating")
	fs.Int64Var(&sf.seed, "seed", 1, "simulation seed")
	fs.IntVar(&sf.workers, "workers", 0, "simulation workers (0 = all cores)")
	return fs, sf
}

func (sf *simFlags) options() simulate.Options {
	opts := simulate.DefaultOptions(sf.conns)
	opts.Seed = sf.seed
	opts.Workers = sf.workers
	return opts
}

// parseAndRun parses args into fs, then simulates the study the triple
// describes.
func (sf *simFlags) parseAndRun(fs *flag.FlagSet, args []string) *core.Study {
	fs.Parse(args)
	return sf.study()
}

// study simulates the passive study the triple describes. With no log to
// write, core.Simulate cannot fail.
func (sf *simFlags) study() *core.Study {
	s, _ := sf.run("")
	return s
}

// run simulates the passive study, teeing a TLSB frame log to logPath when
// set. Only the log can fail it.
func (sf *simFlags) run(logPath string) (*core.Study, error) {
	var w io.Writer
	var out *os.File
	if logPath != "" {
		var err error
		if out, err = os.Create(logPath); err != nil {
			return nil, err
		}
		w = out
	}
	start := time.Now()
	s, err := core.Simulate(sf.options(), w)
	if out != nil {
		// A write the file system deferred can fail at Close; reporting
		// success with a truncated log would be a silent data loss.
		if cerr := out.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %s: %w", logPath, cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "simulated %d connections in %v\n",
		s.Aggregate().TotalRecords(), time.Since(start).Round(time.Millisecond))
	return s, nil
}

// loadLog builds a study from the record log at path — frames, TSV lines or
// both — parsed by workers workers (the sharded post-hoc parse).
func loadLog(path string, workers int) (*core.Study, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadLog(f, workers)
}
