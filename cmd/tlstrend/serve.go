package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"tlsage/internal/federation"
	"tlsage/internal/service"
)

// stderrf is the Logf the service layers narrate through: one line per call.
func stderrf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// cmdServe runs the live notary service: one hot study per vantage point
// (-studies), each ingesting record streams and answering figure, scalar and
// query requests as JSON while ingestion continues. The flags fill a
// service.Config; service.Open owns the assembly (recovery, compaction,
// pusher, log, router, union) and its ordering.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cfg := service.Config{Logf: stderrf}
	fs.StringVar(&cfg.HTTP, "http", "127.0.0.1:8080", "HTTP listen address (ingest + query)")
	fs.StringVar(&cfg.TCP, "tcp", "", "optional raw-TCP ingest listen address (a record log: TSV lines, batch frames or both; default study)")
	fs.StringVar(&cfg.Out, "out", "", "tee every record ingested into the default study to this record log (binary batch frames; an existing TSV log is continued)")
	fs.StringVar(&cfg.Studies, "studies", "notary", "comma-separated study ids to host; the first is the default")
	fs.StringVar(&cfg.SnapshotDir, "snapshot-dir", "", "durable snapshot directory for the default study (enables crash recovery)")
	fs.Int64Var(&cfg.MaxBody, "max-body", 0, "max POST /ingest body bytes, answered with 413 beyond (0 = unlimited)")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 0, "idle read deadline on raw-TCP ingest connections (0 = none)")
	fs.IntVar(&cfg.QueryCache, "query-cache", 1024, "query result cache entries, shared across studies (0 = disable caching)")
	fs.Int64Var(&cfg.QueryCacheBytes, "query-cache-bytes", 8<<20, "approximate byte budget for the query result cache")
	fs.StringVar(&cfg.Upstream, "upstream", "", "edge mode: push the default study's merged shards as delta frames to this upstream study URL (POST {url}/merge)")
	fs.DurationVar(&cfg.PushInterval, "push-interval", federation.DefaultPushInterval, "delta push cadence in edge mode")
	fs.StringVar(&cfg.PushSource, "push-source", "", "source name for pushed deltas (default: the default study id)")
	fs.StringVar(&cfg.Union, "union", "", "also host a union study under this id, federating every hosted study")
	fs.Parse(args)
	node, err := service.Open(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = node.Serve(ctx)
	if cerr := node.Close(); err == nil {
		err = cerr
	}
	return err
}
