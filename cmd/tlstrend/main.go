// Command tlstrend reproduces the measurements of "Coming of Age: A
// Longitudinal Study of TLS Deployment" (IMC 2018) over the synthetic
// ecosystem.
//
// Usage:
//
//	tlstrend simulate   [-conns N] [-seed S] [-workers W] [-out conn.log]   run the passive study, optionally writing a TSV log
//	tlstrend loadlog    [-in conn.log] [-workers W] [-figure N] [-chart]    post-hoc analysis of a TSV log (sharded parse)
//	tlstrend serve      [-http ADDR] [-tcp ADDR] [-out conn.log] [-studies a,b] [-snapshot-dir DIR] [-max-inflight N] [-queue-bound N] [-query-cache N] [-upstream URL [-push-interval D] [-push-source S]] [-union ID]  live notary service: TSV + binary-batch ingest, JSON query endpoints, durable snapshots, restart recovery, cached queries; -upstream turns the node into an edge collector pushing aggregate deltas, -union hosts a federated union study
//	tlstrend feed       [-addr URL | -tcp ADDR] [-in conn.log | -conns N] [-binary [-batch N]] [-retry N]  stream a log or a live simulation into a server
//	tlstrend query      -q EXPR [-in conn.log | -conns N | -addr URL [-study ID]]  evaluate a metric expression offline or remotely
//	                    (column families include fp:<id12|other> top-K fingerprints and agent:<class> client attribution)
//	tlstrend figure     [-n N | -name NAME] [-conns N] [-chart]  print one catalog figure as table or chart
//	tlstrend figures    [-conns N]                             print all figures
//	tlstrend metrics                                           list the figure catalog (no simulation)
//	tlstrend table      [-n N]                                 print Table 1, 3, 4, 5 or 6
//	tlstrend table2     [-conns N]                             print the Table 2 reproduction
//	tlstrend scan       [-hosts N] [-date YYYY-MM-DD]          run an active scan campaign over a local farm
//	tlstrend scansweep  [-hosts N] [-step M] [-alexa] [-serve ADDR] [-push URL]  campaigns across the Censys window, hosted as a queryable study and/or pushed to a core's /merge
//	tlstrend fingerprints [-conns N]                           fingerprint DB summary and §4.1 lifetimes
//	tlstrend extensions [-conns N] [-chart]                    extension uptake + TLS 1.3 variants
//	tlstrend experiments [-conns N] [-hosts N]                 full paper-vs-measured report
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/notary"
	"tlsage/internal/service"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "simulate":
		err = cmdSimulate(args)
	case "loadlog":
		err = cmdLoadLog(args)
	case "serve":
		err = cmdServe(args)
	case "feed":
		err = cmdFeed(args)
	case "query":
		err = cmdQuery(args)
	case "figure":
		err = cmdFigure(args)
	case "figures":
		err = cmdFigures(args)
	case "metrics":
		err = cmdMetrics(args)
	case "table":
		err = cmdTable(args)
	case "table2":
		err = cmdTable2(args)
	case "scan":
		err = cmdScan(args)
	case "scansweep":
		err = cmdScanSweep(args)
	case "fingerprints":
		err = cmdFingerprints(args)
	case "extensions":
		err = cmdExtensions(args)
	case "experiments":
		err = cmdExperiments(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tlstrend: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlstrend:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `tlstrend — reproduce "Coming of Age: A Longitudinal Study of TLS Deployment"

commands:
  simulate      run the passive Notary study (optionally write a TSV log)
  loadlog       rebuild the study from a TSV log (post-hoc, sharded parsing)
  serve         run the live notary service: ingest TSV or binary-batch streams, serve JSON queries;
                -upstream pushes merged shards upstream as aggregate deltas (edge collector),
                -union hosts a study that is the live union of every hosted study
  feed          stream a log or a live simulation into a running server (TSV or -binary batch frames)
  query         evaluate a metric expression (see README grammar) offline or against a server;
                families span versions, ciphers, curves, extensions, and the attribution
                columns fp:<id|other> (top-32 fingerprints) and agent:<class> (client classes)
  figure        print one catalog figure (-n 1–10 or -name) as a table or ASCII chart
  figures       print every figure
  metrics       list the declarative figure catalog (ids, names, series)
  table         print Table 1, 3, 4, 5 or 6
  table2        print the Table 2 fingerprint-summary reproduction
  scan          run an active Censys-style campaign over a local TCP farm
  scansweep     run campaigns across Aug 2015 – May 2018 (the Censys window);
                -serve hosts the results as study 'scan' on the query/figure API,
                -push ships them to a running core's POST /merge as one delta
  fingerprints  fingerprint database summary and §4.1 lifetime stats
  extensions    extension-uptake figure (RIE, EtM, EMS, ...) and TLS 1.3 variants
  experiments   full paper-vs-measured report (passive + active + fingerprints)
`)
}

func runStudy(conns int, seed int64, workers int, logPath string) (*core.Study, error) {
	s := core.NewStudy(conns)
	s.Options.Seed = seed
	s.Options.Workers = workers
	var out *os.File
	var err error
	if logPath != "" {
		out, err = os.Create(logPath)
		if err != nil {
			return nil, err
		}
	}
	start := time.Now()
	if out != nil {
		err = s.Run(out)
		// A full disk surfaces at Close (the log is buffered); reporting
		// success with a truncated log would be a silent data loss.
		if cerr := out.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %s: %w", logPath, cerr)
		}
	} else {
		err = s.Run(nil)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "simulated %d connections in %v\n",
		s.Aggregate().TotalRecords(), time.Since(start).Round(time.Millisecond))
	return s, nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	conns := fs.Int("conns", 1000, "connections per month")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "simulation workers (0 = all cores)")
	out := fs.String("out", "", "write a Bro-style TSV connection log to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := runStudy(*conns, *seed, *workers, *out)
	if err != nil {
		return err
	}
	scalars, err := s.Scalars()
	if err != nil {
		return err
	}
	return analysis.RenderScalars(os.Stdout, "Passive study scalars (paper vs measured)", scalars)
}

func cmdLoadLog(args []string) error {
	fs := flag.NewFlagSet("loadlog", flag.ExitOnError)
	in := fs.String("in", "notary_conn.log", "TSV connection log to analyze")
	workers := fs.Int("workers", 0, "parse workers (0 = all cores, 1 = serial)")
	figure := fs.Int("figure", 0, "also print figure N (1–10)")
	chart := fs.Bool("chart", false, "render the figure as an ASCII chart")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	var s core.Study
	s.Options.Workers = *workers
	start := time.Now()
	loadErr := s.LoadLog(f)
	if cerr := f.Close(); cerr != nil && loadErr == nil {
		loadErr = fmt.Errorf("closing %s: %w", *in, cerr)
	}
	if loadErr != nil {
		return loadErr
	}
	fmt.Fprintf(os.Stderr, "loaded %d records from %s in %v\n",
		s.Aggregate().TotalRecords(), *in, time.Since(start).Round(time.Millisecond))
	if *figure > 0 {
		fig, err := s.Figure(*figure)
		if err != nil {
			return err
		}
		if *chart {
			if err := fig.RenderChart(os.Stdout, 100, 20); err != nil {
				return err
			}
		} else if err := fig.RenderTable(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	scalars, err := s.Scalars()
	if err != nil {
		return err
	}
	return analysis.RenderScalars(os.Stdout, "Post-hoc log analysis (paper vs measured)", scalars)
}

// cmdServe runs the live notary service: one hot, initially empty study per
// vantage point (-studies), each ingesting TSV record streams (HTTP POST
// /ingest, optionally raw TCP into the default study) and answering
// figure/scalar/query requests as JSON while ingestion continues. Studies
// are served under /studies/{id}/; the first id also answers the legacy
// root routes.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	httpAddr := fs.String("http", "127.0.0.1:8080", "HTTP listen address (ingest + query)")
	tcpAddr := fs.String("tcp", "", "optional raw-TCP ingest listen address (TSV or binary batch, sniffed; default study)")
	outPath := fs.String("out", "", "tee every record ingested into the default study to this TSV log")
	flush := fs.Int("flush", 0, "records per ingest shard before merging (0 = default)")
	queueBound := fs.Int("queue-bound", service.DefaultQueueBound,
		"parsed shards buffered between stream readers and the merge loop; full = shed with 429/busy (at least 1)")
	studies := fs.String("studies", "notary", "comma-separated study ids to host; the first is the default")
	snapDir := fs.String("snapshot-dir", "", "durable snapshot directory for the default study (enables crash recovery)")
	snapEvery := fs.Uint64("snapshot-every", 50000, "snapshot after this many new records (0 = off)")
	snapInterval := fs.Duration("snapshot-interval", 30*time.Second, "snapshot on this timer when records arrived (0 = off)")
	snapKeep := fs.Int("snapshot-keep", service.DefaultSnapshotKeep, "snapshots to retain")
	maxInflight := fs.Int("max-inflight", 64, "concurrent ingest streams before shedding with 429/busy (0 = unbounded)")
	maxBody := fs.Int64("max-body", 0, "max POST /ingest body bytes, answered with 413 beyond (0 = unlimited)")
	idleTimeout := fs.Duration("idle-timeout", 0, "idle read deadline on raw-TCP ingest connections (0 = none)")
	cacheEntries := fs.Int("query-cache", 1024, "query result cache entries, shared across studies (0 = disable caching)")
	cacheBytes := fs.Int64("query-cache-bytes", 8<<20, "approximate byte budget for the query result cache")
	upstream := fs.String("upstream", "", "edge mode: push the default study's merged shards as delta frames to this upstream study URL (POST {url}/merge)")
	pushInterval := fs.Duration("push-interval", federation.DefaultPushInterval, "delta push cadence in edge mode")
	pushSource := fs.String("push-source", "", "source name for pushed deltas (default: the default study id)")
	unionID := fs.String("union", "", "also host a union study under this id, federating every hosted study")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queueBound < 1 {
		return fmt.Errorf("serve: -queue-bound must be at least 1 (got %d)", *queueBound)
	}

	// One generation-keyed result cache fronts every hosted study: keys are
	// namespaced by study id, so dashboards hammering /studies/{id}/query
	// share the budget without cross-study collisions.
	var queryCache *analysis.QueryCache
	if *cacheEntries > 0 {
		queryCache = analysis.NewQueryCache(*cacheEntries, *cacheBytes)
	}

	// Restart recovery for the default study: newest intact snapshot plus
	// the tail of the previous run's -out log (opened further down in
	// whatever mode keeps the recovered records durable).
	defaultStudy := core.NewLiveStudy()
	var recovery service.RecoveryInfo
	if *snapDir != "" || *outPath != "" {
		st, info, err := service.RecoverStudy(*snapDir, *outPath, nil)
		if err != nil {
			return fmt.Errorf("recovering previous state: %w", err)
		}
		defaultStudy = st
		recovery = info
		if info.Records() > 0 {
			fmt.Fprintf(os.Stderr, "recovered %d records (%d from snapshot %s, %d replayed from %s)\n",
				info.Records(), info.SnapshotRecords, info.SnapshotPath, info.ReplayedRecords, *outPath)
		}
		// Compact: one fresh snapshot now covers everything recovered, so
		// the truncate-and-rebase of the log below loses nothing.
		if *snapDir != "" && info.Records() > 0 {
			_, gen, err := service.WriteStudySnapshot(*snapDir, st, *snapKeep)
			if err != nil {
				return fmt.Errorf("compacting recovered state: %w", err)
			}
			fmt.Fprintf(os.Stderr, "compacted recovery into snapshot generation %d\n", gen)
		}
	}

	// Edge mode: the pusher is built BEFORE the ingest log is reopened below
	// — with snapshots, OpenIngestLog truncates-and-rebases the previous
	// run's log, and the unshipped tail (records past the persisted
	// shipped-through cursor) must be replayed out of it first.
	var pusher *federation.Pusher
	if *upstream != "" {
		src := *pushSource
		if src == "" {
			src = strings.TrimSpace(strings.Split(*studies, ",")[0])
		}
		statePath := ""
		if *snapDir != "" {
			statePath = filepath.Join(*snapDir, "shipped.gen")
		}
		var shipped uint64
		if statePath != "" {
			var err error
			if shipped, err = federation.LoadShippedState(statePath); err != nil {
				return err
			}
		}
		_, _, recoveredGen, err := defaultStudy.Counts()
		if err != nil {
			return err
		}
		if shipped > recoveredGen {
			fmt.Fprintf(os.Stderr,
				"warning: upstream was acked through generation %d but only %d recovered locally; the upstream keeps the difference\n",
				shipped, recoveredGen)
		}
		var initial *notary.Aggregate
		var rebase func(uint64) (*notary.Aggregate, error)
		if *outPath != "" {
			rebase = func(from uint64) (*notary.Aggregate, error) {
				return replayUnshipped(defaultStudy, *outPath, from)
			}
			if shipped < recoveredGen {
				if initial, err = replayUnshipped(defaultStudy, *outPath, shipped); err != nil {
					return fmt.Errorf("replaying unshipped records for federation: %w", err)
				}
				if initial != nil && initial.Generation() > 0 {
					fmt.Fprintf(os.Stderr, "federation: %d recovered records past the shipped cursor (%d) queued for push\n",
						initial.Generation(), shipped)
				}
			}
		} else if shipped < recoveredGen {
			fmt.Fprintf(os.Stderr,
				"warning: %d recovered records past the shipped cursor cannot be rebuilt without -out; they will not be pushed\n",
				recoveredGen-shipped)
		}
		pusher, err = federation.NewPusher(federation.PusherOptions{
			Source:    src,
			Upstream:  *upstream,
			Interval:  *pushInterval,
			Shipped:   shipped,
			Initial:   initial,
			StatePath: statePath,
			Rebase:    rebase,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "edge mode: pushing deltas for source %q to %s every %v\n", src, *upstream, *pushInterval)
	}

	var logFile *os.File
	rt := service.NewRouter()
	var srv *service.Server // the default study's server (TCP ingest, -out tee)
	for i, id := range strings.Split(*studies, ",") {
		id = strings.TrimSpace(id)
		opts := []service.Option{
			service.WithFlushEvery(*flush),
			service.WithQueueBound(*queueBound),
			service.WithMaxInFlight(*maxInflight),
			service.WithMaxBodyBytes(*maxBody),
			service.WithIdleTimeout(*idleTimeout),
		}
		if queryCache != nil {
			opts = append(opts, service.WithQueryCache(queryCache, id))
		}
		study := core.NewLiveStudy()
		if i == 0 {
			study = defaultStudy
			if pusher != nil {
				opts = append(opts, service.WithPusher(pusher))
			}
			if *outPath != "" {
				// With snapshots the log restarts behind a #base directive
				// (the compaction above covers it); without, it appends so
				// the replayed records stay durable.
				_, _, gen, cerrs := defaultStudy.Counts()
				if cerrs != nil {
					return cerrs
				}
				f, err := service.OpenIngestLog(*outPath, gen, *snapDir != "", recovery.TornLine)
				if err != nil {
					return err
				}
				logFile = f
				opts = append(opts, service.WithLogSink(notary.NewLogWriter(f)))
			}
			if *snapDir != "" {
				opts = append(opts, service.WithDurability(service.DurabilityOptions{
					Dir:          *snapDir,
					EveryRecords: *snapEvery,
					Interval:     *snapInterval,
					Keep:         *snapKeep,
				}))
			}
		}
		s := service.NewServer(study, opts...)
		if err := rt.Add(id, s); err != nil {
			return err
		}
		if i == 0 {
			srv = s
		}
	}
	if *unionID != "" {
		uopts := []service.Option{
			service.WithMaxInFlight(*maxInflight),
			service.WithMaxBodyBytes(*maxBody),
		}
		if queryCache != nil {
			uopts = append(uopts, service.WithQueryCache(queryCache, *unionID))
		}
		us := service.NewServer(core.NewLiveStudy(), uopts...)
		if err := rt.Union(*unionID, us, rt.IDs()...); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 2)
	go func() {
		if err := hs.Serve(httpLn); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "serving ingest + queries on http://%s (studies: %s)\n",
		httpLn.Addr(), strings.Join(rt.IDs(), ", "))
	if *tcpAddr != "" {
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			hs.Close()
			return err
		}
		go func() {
			if err := srv.ServeTCP(ln); err != nil {
				errc <- err
			}
		}()
		fmt.Fprintf(os.Stderr, "raw ingest (TSV or binary batch) on tcp://%s\n", ln.Addr())
	}

	var runErr error
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down")
	case runErr = <-errc:
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && runErr == nil {
		runErr = err
	}
	// rt.Close closes every hosted server — stopping TCP listeners and
	// flushing the teed log writer; the file close can still fail on a full
	// disk, so it is checked too.
	if err := rt.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if logFile != nil {
		if err := logFile.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("closing %s: %w", *outPath, err)
		}
	}
	for _, id := range rt.IDs() {
		s, _ := rt.Server(id)
		if records, months, gen, err := s.Study().Counts(); err == nil {
			fmt.Fprintf(os.Stderr, "final state of %s: %d records over %d months (generation %d)\n",
				id, records, months, gen)
		}
	}
	return runErr
}

// replayUnshipped rebuilds the merged contribution of the -out log's
// records past the shipped-through generation: the edge's durable source of
// truth for federation recovery (startup Initial) and 409 rebasing. Shards
// come from the study so client attribution matches the live ingest path. A
// torn final line (crash mid-write) keeps the valid prefix with a warning —
// the same tolerance snapshot recovery applies.
func replayUnshipped(study *core.Study, path string, from uint64) (*notary.Aggregate, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	shard := study.NewShard()
	if _, _, err := notary.ReadLogTail(f, from, shard); err != nil {
		var le *notary.LineError
		if !errors.As(err, &le) {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "warning: replaying %s past generation %d: %v (keeping the valid prefix)\n",
			path, from, err)
	}
	return shard, nil
}

// cmdFeed streams records into a running serve instance: either a replay of
// a TSV connection log or a live simulation encoded on the fly. With
// -binary the stream travels as length-prefixed batch frames (a TSV input
// file is transcoded on the fly) — the fast path for bulk replay. With
// -retry, a stream the server sheds under load (HTTP 429 or a TCP "busy"
// line) is retried with exponential backoff and jitter, honoring the
// server's Retry-After hint.
func cmdFeed(args []string) error {
	fs := flag.NewFlagSet("feed", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "server base URL (HTTP ingest)")
	tcpAddr := fs.String("tcp", "", "stream over raw TCP to this address instead of HTTP")
	in := fs.String("in", "", "TSV connection log to replay (empty = simulate live)")
	conns := fs.Int("conns", 1000, "connections per month when simulating")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "simulation workers (0 = all cores)")
	binary := fs.Bool("binary", false, "send the binary batch framing instead of TSV (TSV input is transcoded)")
	batch := fs.Int("batch", notary.DefaultBatchSize, "records per binary batch frame")
	retry := fs.Int("retry", 0, "retries when the server sheds the stream under load (0 = fail fast)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// encodeSink picks the wire encoder for a pipe: batch frames or TSV
	// lines.
	encodeSink := func(pw *io.PipeWriter) interface {
		notary.Sink
		Close() error
	} {
		if *binary {
			return notary.NewBatchWriter(pw, *batch)
		}
		return notary.NewLogWriter(pw)
	}

	// The stream must be reopenable: a shed attempt restarts from the top,
	// so each try replays the file — or re-runs the deterministic simulation.
	var open func() (io.ReadCloser, error)
	switch {
	case *in != "" && !*binary:
		open = func() (io.ReadCloser, error) { return os.Open(*in) }
	case *in != "":
		// Transcode the TSV log into batch frames on the fly: parse each
		// line, re-encode into frames of -batch records, stream through a
		// pipe. The feeder never holds more than one frame plus the pipe
		// buffer.
		open = func() (io.ReadCloser, error) {
			f, err := os.Open(*in)
			if err != nil {
				return nil, err
			}
			pr, pw := io.Pipe()
			go func() {
				bw := notary.NewBatchWriter(pw, *batch)
				err := notary.ReadLog(f, bw)
				if err == nil {
					err = bw.Close()
				}
				f.Close()
				pw.CloseWithError(err)
			}()
			return pr, nil
		}
	default:
		opts := simulate.DefaultOptions(*conns)
		opts.Seed = *seed
		opts.Workers = *workers
		open = func() (io.ReadCloser, error) {
			// Live replay: the simulator streams straight into the request
			// body (TSV lines or batch frames), so the feeder holds no more
			// than the pipe's buffer. The same seed reproduces the same
			// stream on a retry.
			pr, pw := io.Pipe()
			go func() {
				enc := encodeSink(pw)
				err := simulate.New(opts).Run(enc)
				if err == nil {
					err = enc.Close()
				}
				pw.CloseWithError(err)
			}()
			return pr, nil
		}
	}

	fopts := service.FeedOptions{
		Binary:     *binary,
		MaxRetries: *retry,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	start := time.Now()
	var res service.FeedResult
	var err error
	if *tcpAddr != "" {
		res, err = service.FeedTCP(*tcpAddr, open, fopts)
	} else {
		res, err = service.FeedHTTP(*addr, open, fopts)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fed %d records in %v (server generation %d, %d attempt(s))\n",
		res.Records, time.Since(start).Round(time.Millisecond), res.Generation, res.Attempts)
	return nil
}

// cmdQuery evaluates one metric expression (the README query grammar):
// offline against a TSV log or a fresh simulation, or remotely by POSTing
// to a running server's /query endpoint (optionally a named study on a
// multi-study router).
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	expr := fs.String("q", "", "metric expression, e.g. 'pct(version:tls12 / established)'")
	addr := fs.String("addr", "", "query a running server at this base URL instead of evaluating offline")
	study := fs.String("study", "", "server study id (with -addr; empty = the default study's routes)")
	in := fs.String("in", "", "TSV connection log to load (offline; empty = simulate)")
	conns := fs.Int("conns", 600, "connections per month when simulating")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "workers (0 = all cores)")
	asJSON := fs.Bool("json", false, "print the raw JSON result instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expr == "" {
		return fmt.Errorf("query: -q is required (try 'pct(version:tls12 / established)')")
	}
	// Parse locally first so typos fail fast with the grammar error even in
	// remote mode, and so the canonical form is what travels.
	parsed, err := analysis.ParseQuery(*expr)
	if err != nil {
		return err
	}

	var res analysis.QueryResult
	if *addr != "" {
		res, err = remoteQuery(*addr, *study, parsed)
	} else {
		var s core.Study
		s.Options = simulate.DefaultOptions(*conns)
		s.Options.Seed = *seed
		s.Options.Workers = *workers
		if *in != "" {
			f, openErr := os.Open(*in)
			if openErr != nil {
				return openErr
			}
			loadErr := s.LoadLog(f)
			if cerr := f.Close(); cerr != nil && loadErr == nil {
				loadErr = fmt.Errorf("closing %s: %w", *in, cerr)
			}
			if loadErr != nil {
				return loadErr
			}
		} else if err := s.Run(nil); err != nil {
			return err
		}
		res, _, _, _, err = s.QueryExprInfoJSON(parsed)
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

// remoteQuery POSTs an expression to a server's /query endpoint.
func remoteQuery(addr, study string, e *analysis.Expr) (analysis.QueryResult, error) {
	var res analysis.QueryResult
	url := strings.TrimSuffix(addr, "/")
	if study != "" {
		url += "/studies/" + study
	}
	body, err := json.Marshal(map[string]string{"query": e.String()})
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

func cmdFigure(args []string) error {
	fs := flag.NewFlagSet("figure", flag.ExitOnError)
	n := fs.Int("n", 1, "figure number (1–10)")
	name := fs.String("name", "", "catalog figure name (see 'tlstrend metrics'); overrides -n")
	conns := fs.Int("conns", 600, "connections per month")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "simulation workers (0 = all cores)")
	chart := fs.Bool("chart", false, "render an ASCII chart instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name != "" {
		if _, ok := analysis.SpecByName(*name); !ok {
			return fmt.Errorf("no figure named %q (valid names: %s)",
				*name, strings.Join(analysis.CatalogNames(), ", "))
		}
	}
	s, err := runStudy(*conns, *seed, *workers, "")
	if err != nil {
		return err
	}
	var fig analysis.Figure
	if *name != "" {
		fig, err = s.FigureByName(*name)
	} else {
		fig, err = s.Figure(*n)
	}
	if err != nil {
		return err
	}
	if *chart {
		return fig.RenderChart(os.Stdout, 100, 20)
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
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	conns := fs.Int("conns", 600, "connections per month")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "simulation workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := runStudy(*conns, *seed, *workers, "")
	if err != nil {
		return err
	}
	figs, err := s.Figures()
	if err != nil {
		return err
	}
	for _, fig := range figs {
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
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	conns := fs.Int("conns", 600, "connections per month")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "simulation workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := runStudy(*conns, *seed, *workers, "")
	if err != nil {
		return err
	}
	rep, err := s.Table2()
	if err != nil {
		return err
	}
	return rep.RenderTable2(os.Stdout)
}

func parseDate(s string) (timeline.Date, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return timeline.Date{}, fmt.Errorf("bad date %q (want YYYY-MM-DD)", s)
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return timeline.Date{}, fmt.Errorf("bad date %q", s)
	}
	return timeline.D(y, time.Month(m), d), nil
}

func cmdScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	hosts := fs.Int("hosts", 300, "farm size")
	workers := fs.Int("workers", 24, "scanner workers")
	seed := fs.Int64("seed", 7, "population seed")
	dateStr := fs.String("date", "2018-05-13", "population snapshot date")
	if err := fs.Parse(args); err != nil {
		return err
	}
	date, err := parseDate(*dateStr)
	if err != nil {
		return err
	}
	c := &core.ScanCampaign{Date: date, Hosts: *hosts, Workers: *workers, Seed: *seed}
	rep, err := c.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("Scan campaign at %s over %d hosts\n", rep.Date, rep.Hosts)
	fmt.Printf("  SSL3 support:        %6.2f%%\n", rep.SSL3SupportPct())
	fmt.Printf("  chose RC4:           %6.2f%%\n", rep.RC4ChosenPct())
	fmt.Printf("  chose CBC:           %6.2f%%\n", rep.CBCChosenPct())
	fmt.Printf("  chose 3DES:          %6.2f%%\n", rep.TDESChosenPct())
	fmt.Printf("  heartbeat support:   %6.2f%%\n", rep.HeartbeatSupportPct())
	fmt.Printf("  Heartbleed vuln.:    %6.2f%%\n", rep.HeartbleedVulnerablePct())
	fmt.Printf("  export support:      %6.2f%%\n", rep.ExportSupportPct())
	fmt.Printf("  RC4 supported:       %6.2f%%\n", rep.RC4SupportPct())
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
	serveAddr := fs.String("serve", "", "after the sweep, host the results as study 'scan' at this HTTP address")
	pushURL := fs.String("push", "", "POST the sweep as one pre-aggregated delta to this core study URL ({url}/merge)")
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
	if err := core.RenderSweep(os.Stdout, core.SweepPoints(months, reports)); err != nil {
		return err
	}
	if *pushURL != "" {
		// Federated form of -serve: fold the campaign into a bare aggregate
		// and ship it to a running core's /merge endpoint as one delta, where
		// it answers the same queries without the core re-running the sweep.
		agg, err := core.ScanAggregate(months, reports)
		if err != nil {
			return err
		}
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
	if *serveAddr == "" {
		return nil
	}
	// Host the sweep on the standard query surface: the campaign counters
	// fold into a Study (see core.NewScanStudy) and mount on a Router, so
	// e.g. POST /studies/scan/query {"query": "pct(version:ssl3 / total)"}
	// replays the table above month by month.
	study, err := core.NewScanStudy(months, reports)
	if err != nil {
		return err
	}
	rt := service.NewRouter()
	if err := rt.Add("scan", service.NewServer(study)); err != nil {
		return err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", *serveAddr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: rt.Handler()}
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutCtx)
	}()
	fmt.Fprintf(os.Stderr, "serving sweep results on http://%s/studies/scan/ (Ctrl-C to stop)\n", ln.Addr())
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

func cmdFingerprints(args []string) error {
	fs := flag.NewFlagSet("fingerprints", flag.ExitOnError)
	conns := fs.Int("conns", 600, "connections per month")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "simulation workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := runStudy(*conns, *seed, *workers, "")
	if err != nil {
		return err
	}
	rep, err := s.Table2()
	if err != nil {
		return err
	}
	if err := rep.RenderTable2(os.Stdout); err != nil {
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
	fs := flag.NewFlagSet("extensions", flag.ExitOnError)
	conns := fs.Int("conns", 600, "connections per month")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "simulation workers (0 = all cores)")
	chart := fs.Bool("chart", false, "render an ASCII chart instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := runStudy(*conns, *seed, *workers, "")
	if err != nil {
		return err
	}
	fig, err := s.ExtensionFigure()
	if err != nil {
		return err
	}
	if *chart {
		if err := fig.RenderChart(os.Stdout, 100, 18); err != nil {
			return err
		}
	} else if err := fig.RenderTable(os.Stdout); err != nil {
		return err
	}
	shares, err := s.TLS13Variants()
	if err != nil {
		return err
	}
	fmt.Println("\nAdvertised TLS 1.3 variants (paper: 0x7e02 82.3%, draft-18 13.4%):")
	for _, v := range shares {
		fmt.Printf("  %-16v %6.1f%%\n", v.Variant, v.Share)
	}
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	conns := fs.Int("conns", 1500, "connections per month")
	hosts := fs.Int("hosts", 400, "scan farm size")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "simulation workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := runStudy(*conns, *seed, *workers, "")
	if err != nil {
		return err
	}
	scalars, err := s.Scalars()
	if err != nil {
		return err
	}
	if err := analysis.RenderScalars(os.Stdout, "Passive study (Notary substitute)", scalars); err != nil {
		return err
	}
	fmt.Println()

	run := func(d timeline.Date) (*core.CampaignReport, error) {
		c := &core.ScanCampaign{Date: d, Hosts: *hosts, Workers: 24, Seed: *seed}
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
	rep, err := s.Table2()
	if err != nil {
		return err
	}
	return rep.RenderTable2(os.Stdout)
}
