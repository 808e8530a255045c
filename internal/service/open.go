// The one assembly of a `tlstrend serve` node. Open takes the serve flag set
// as a Config and performs, in this fixed order:
//
//  1. build the query result cache every hosted study shares;
//  2. RecoverStudy: newest intact snapshot plus the tail of the previous
//     run's -out log, into the default study;
//  3. compact what was recovered into one fresh snapshot;
//  4. edge mode: load the shipped-through cursor, replay the log's records
//     past it into the pusher's initial delta, start the pusher;
//  5. OpenIngestLog: truncate the log and restart it behind a #base
//     directive when steps 3 and 4 left nothing only it holds — a compaction
//     snapshot exists and no record is past the shipped cursor; otherwise
//     trim its torn tail and append, because the log is the only durable
//     copy (no snapshots) or what a 409 rebase will replay (unshipped tail);
//  6. one Server per study id on a Router; the default study carries the
//     record log, the snapshot manager and the pusher;
//  7. the union study over every hosted study.
//
// Steps 3 → 5 and 4 → 5 are the orderings a restart may not get wrong: a log
// truncated before its records are in a snapshot, or before its unshipped
// tail reached the pusher, is data loss. A failure at any step releases what
// the earlier steps acquired.

package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/notary"
)

// Config is `tlstrend serve`'s flag set, one field per flag, plus the
// narration sink. Every study runs at the package's cadence constants:
// DefaultFlushEvery, DefaultQueueBound, DefaultMaxInFlight, and for the
// default study's snapshots DefaultSnapshotEvery, DefaultSnapshotInterval and
// DefaultSnapshotKeep.
type Config struct {
	HTTP            string        // -http: HTTP listen address (ingest + query)
	TCP             string        // -tcp: raw-TCP ingest listen address for the default study ("" = none)
	Out             string        // -out: tee the default study's records into this record log
	Studies         string        // -studies: comma-separated study ids; the first is the default
	SnapshotDir     string        // -snapshot-dir: durable snapshots + crash recovery for the default study
	MaxBody         int64         // -max-body: POST /ingest body cap in bytes (0 = unlimited)
	IdleTimeout     time.Duration // -idle-timeout: raw-TCP idle read deadline (0 = none)
	QueryCache      int           // -query-cache: result cache entries (0 = no cache)
	QueryCacheBytes int64         // -query-cache-bytes: result cache byte budget
	Upstream        string        // -upstream: edge mode, push deltas to this study URL
	PushInterval    time.Duration // -push-interval: delta push cadence
	PushSource      string        // -push-source: delta source name ("" = the default study id)
	Union           string        // -union: also host the union of every study under this id

	// Logf receives every line the node narrates — recovery, compaction,
	// federation, listen addresses, snapshot and push failures, final state —
	// one call per line, no trailing newline. Nil discards them.
	Logf func(format string, args ...any)
}

// Node is an assembled serve process: the router over every hosted study
// and the durable resources behind the default one.
type Node struct {
	cfg     Config
	rt      *Router
	def     *Server  // the default study's server: TCP ingest, record log, snapshots, pusher
	logFile *os.File // the open -out log, nil without -out
}

// Open assembles a node from cfg in the order the file comment lists. The
// node is not listening yet: mount Handler somewhere, or call Serve. Close
// releases it.
func Open(cfg Config) (*Node, error) { return open(cfg) }

// open is Open with tune appended to every hosted server's options, after
// the ones Open sets: how tests run a node at small cadences.
func open(cfg Config, tune ...Option) (_ *Node, err error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ids := strings.Split(cfg.Studies, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}

	// One generation-keyed result cache fronts every hosted study: keys are
	// namespaced by study id, so dashboards hammering /studies/{id}/query
	// share the budget without cross-study collisions.
	var cache *analysis.QueryCache
	if cfg.QueryCache > 0 {
		cache = analysis.NewQueryCache(cfg.QueryCache, cfg.QueryCacheBytes)
	}
	// Members and the union are full Servers with /ingest, so they take the
	// same per-study options.
	studyOpts := func(id string) []Option {
		return []Option{WithMaxBodyBytes(cfg.MaxBody), WithIdleTimeout(cfg.IdleTimeout), WithQueryCache(cache, id)}
	}

	var study *core.Study
	var recovery RecoveryInfo
	if cfg.SnapshotDir != "" || cfg.Out != "" {
		if study, recovery, err = RecoverStudy(cfg.SnapshotDir, cfg.Out, cfg.Logf); err != nil {
			return nil, fmt.Errorf("recovering previous state: %w", err)
		}
	} else {
		study = core.NewLiveStudy()
	}
	recovered := recovery.Records()
	if recovered > 0 {
		cfg.Logf("recovered %d records (%d from snapshot %s, %d replayed from %s)",
			recovered, recovery.SnapshotRecords, recovery.SnapshotPath, recovery.ReplayedRecords, cfg.Out)
		if cfg.SnapshotDir != "" {
			_, gen, err := WriteStudySnapshot(cfg.SnapshotDir, study, DefaultSnapshotKeep)
			if err != nil {
				return nil, fmt.Errorf("compacting recovered state: %w", err)
			}
			cfg.Logf("compacted recovery into snapshot generation %d", gen)
		}
	}

	n := &Node{cfg: cfg, rt: NewRouter()}
	var pusher *federation.Pusher
	defer func() {
		if err == nil {
			return
		}
		if pusher != nil && n.def == nil {
			_ = pusher.Close() // no server owns it yet
		}
		_ = n.Close()
	}()

	defOpts := studyOpts(ids[0])
	// Step 5's condition; the unshipped tail matters because a 409 rebase
	// replays the log from the upstream's cursor, anywhere inside that tail.
	restartLog := cfg.SnapshotDir != ""
	if cfg.Upstream != "" {
		var unshipped uint64
		if pusher, unshipped, err = openPusher(&cfg, study, ids[0], recovered); err != nil {
			return nil, err
		}
		defOpts = append(defOpts, WithPusher(pusher))
		restartLog = restartLog && unshipped == 0
	}
	if cfg.Out != "" {
		if n.logFile, err = OpenIngestLog(cfg.Out, recovered, restartLog, recovery.TornLine); err != nil {
			return nil, err
		}
		// The merge loop writes each shard's frame through it, one write per
		// shard, before the shard merges and its stream is acknowledged.
		defOpts = append(defOpts, WithLogSink(notary.NewBatchWriter(n.logFile, notary.DefaultBatchSize)))
	}
	defOpts = append(defOpts, WithDurability(DurabilityOptions{Dir: cfg.SnapshotDir,
		EveryRecords: DefaultSnapshotEvery, Interval: DefaultSnapshotInterval, Logf: cfg.Logf}))

	for i, id := range ids {
		var s *Server
		if i == 0 {
			s = NewServer(study, append(defOpts, tune...)...)
			n.def = s
		} else {
			s = NewServer(core.NewLiveStudy(), append(studyOpts(id), tune...)...)
		}
		if err = n.rt.Add(id, s); err != nil {
			_ = s.Close() // never mounted, so n.Close would miss it
			return nil, err
		}
	}
	if cfg.Union != "" {
		us := NewServer(core.NewLiveStudy(), append(studyOpts(cfg.Union), tune...)...)
		if err = n.rt.Union(cfg.Union, us, n.rt.IDs()...); err != nil {
			_ = us.Close()
			return nil, err
		}
	}
	return n, nil
}

// openPusher is step 4, the edge half of Open. It runs before the ingest log
// is reopened: the records past the persisted shipped-through cursor are
// replayed out of the previous run's log, and how many there were (the
// second result) decides whether that log may be truncated at all.
func openPusher(cfg *Config, study *core.Study, defaultID string, recovered uint64) (*federation.Pusher, uint64, error) {
	opts := federation.PusherOptions{Source: cfg.PushSource, Upstream: cfg.Upstream, Interval: cfg.PushInterval, Logf: cfg.Logf}
	if opts.Source == "" {
		opts.Source = defaultID
	}
	if cfg.SnapshotDir != "" {
		opts.StatePath = filepath.Join(cfg.SnapshotDir, "shipped.gen")
		var err error
		if opts.Shipped, err = federation.LoadShippedState(opts.StatePath); err != nil {
			return nil, 0, err
		}
	}
	switch {
	case opts.Shipped > recovered:
		cfg.Logf("warning: upstream was acked through generation %d but only %d recovered locally; the upstream keeps the difference",
			opts.Shipped, recovered)
	case cfg.Out == "" && opts.Shipped < recovered:
		cfg.Logf("warning: %d recovered records past the shipped cursor cannot be rebuilt without -out; they will not be pushed",
			recovered-opts.Shipped)
	}
	var unshipped uint64
	if cfg.Out != "" {
		// The -out log is the edge's durable source of truth for federation:
		// the startup delta here, and 409 rebasing later.
		opts.Rebase = func(from uint64) (*notary.Aggregate, error) {
			return replayUnshipped(study, cfg.Out, from, cfg.Logf)
		}
		if opts.Shipped < recovered {
			var err error
			if opts.Initial, err = replayUnshipped(study, cfg.Out, opts.Shipped, cfg.Logf); err != nil {
				return nil, 0, fmt.Errorf("replaying unshipped records for federation: %w", err)
			}
			if unshipped = opts.Initial.Generation(); unshipped > 0 {
				cfg.Logf("federation: %d recovered records past the shipped cursor (%d) queued for push", unshipped, opts.Shipped)
			}
		}
	}
	p, err := federation.NewPusher(opts)
	if err != nil {
		return nil, 0, err
	}
	cfg.Logf("edge mode: pushing deltas for source %q to %s every %v", opts.Source, cfg.Upstream, cfg.PushInterval)
	return p, unshipped, nil
}

// replayUnshipped rebuilds the merged contribution of the -out log's records
// past generation from, in a shard of the study's so client attribution
// matches live ingest, with recovery's tolerance for a torn final line.
func replayUnshipped(study *core.Study, path string, from uint64, logf func(string, ...any)) (*notary.Aggregate, error) {
	shard := notary.NewShardBuilder(study.NewShard)
	_, _, torn, err := replayLogTail(path, from, shard)
	if torn != nil {
		logf("warning: replaying %s past generation %d: %v (keeping the valid prefix)", path, from, torn)
	}
	return shard.Flush(), err
}

// Handler returns the node's HTTP handler: the router over every hosted
// study, the default study aliased at the root.
func (n *Node) Handler() http.Handler { return n.rt.Handler() }

// Serve listens on the configured HTTP (and, when set, raw-TCP) address,
// announces both through Logf, and serves until ctx is done or a server
// fails on its own. Either way the caller then calls Close.
func (n *Node) Serve(ctx context.Context) error {
	httpLn, err := net.Listen("tcp", n.cfg.HTTP)
	if err != nil {
		return err
	}
	n.cfg.Logf("serving ingest + queries on http://%s (studies: %s)", httpLn.Addr(), strings.Join(n.rt.IDs(), ", "))
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	if n.cfg.TCP != "" {
		ln, err := net.Listen("tcp", n.cfg.TCP)
		if err != nil {
			httpLn.Close()
			return err
		}
		// ServeTCP returns nil once Close shuts the listener, long after Serve
		// returned.
		go func() { cancel(n.def.ServeTCP(ln)) }()
		n.cfg.Logf("raw ingest (TSV or binary batch) on tcp://%s", ln.Addr())
	}
	// Serve until ctx is done, then shut down gracefully, giving in-flight
	// requests shutdownGrace to finish. Either server failing on its own
	// cancels ctx with its error, which ends Serve with it (the HTTP server's
	// ErrServerClosed after Shutdown comes too late to be a cause).
	hs := &http.Server{Handler: n.Handler()}
	go func() { cancel(hs.Serve(httpLn)) }()
	<-ctx.Done()
	shutCtx, stop := context.WithTimeout(context.Background(), shutdownGrace)
	err = hs.Shutdown(shutCtx)
	stop()
	n.cfg.Logf("shutting down")
	if cause := context.Cause(ctx); !errors.Is(cause, context.Canceled) {
		err = cause
	}
	return err
}

// Close shuts the node down: every hosted server closes — TCP listeners
// stop, in-flight streams and queued shards drain into the log and the study,
// the pusher ships its final delta, the final snapshot is written — then the log
// file closes (which can still fail on a full disk) and the final state of
// every study is narrated. The first error wins. A failed Open closes what it
// had assembled the same way.
func (n *Node) Close() error {
	err := n.rt.Close()
	if n.logFile != nil {
		if cerr := n.logFile.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %s: %w", n.cfg.Out, cerr)
		}
	}
	for _, id := range n.rt.IDs() {
		s, _ := n.rt.Server(id)
		records, months, gen, _ := s.Study().Counts() // err is always nil
		n.cfg.Logf("final state of %s: %d records over %d months (generation %d)", id, records, months, gen)
	}
	return err
}
