package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsage/internal/core"
	"tlsage/internal/notary"
	"tlsage/internal/timeline"
)

// testNode is a node opened through the production assembly and serving on
// loopback, with its narration captured.
type testNode struct {
	*Node
	http, tcp string // base URL, raw ingest address ("" without Config.TCP)

	mu    sync.Mutex
	lines []string

	stopServe context.CancelFunc
	served    chan error
}

func (tn *testNode) logf(format string, args ...any) {
	tn.mu.Lock()
	tn.lines = append(tn.lines, fmt.Sprintf(format, args...))
	tn.mu.Unlock()
}

// narrated reports whether a captured line contains marker, and what follows
// it up to the next space — how the benchmark reads the listen addresses.
func (tn *testNode) narrated(marker string) (string, bool) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	for _, line := range tn.lines {
		if i := strings.Index(line, marker); i >= 0 {
			rest, _, _ := strings.Cut(line[i+len(marker):], " ")
			return rest, true
		}
	}
	return "", false
}

// startNode fills the fields every test leaves alone, opens cfg and serves
// it. Timers are off unless the test sets them: an abandoned node must not
// write into a directory its successor owns.
func startNode(t *testing.T, cfg Config) *testNode {
	t.Helper()
	tn := &testNode{served: make(chan error, 1)}
	cfg.HTTP = "127.0.0.1:0"
	cfg.QueueBound = DefaultQueueBound
	cfg.QueryCache, cfg.QueryCacheBytes = 64, 1<<20
	if cfg.Studies == "" {
		cfg.Studies = "notary"
	}
	if cfg.PushInterval == 0 {
		cfg.PushInterval = time.Hour
	}
	cfg.Logf = tn.logf
	t.Cleanup(func() {
		if t.Failed() {
			tn.mu.Lock()
			t.Logf("node narration:\n%s", strings.Join(tn.lines, "\n"))
			tn.mu.Unlock()
		}
	})
	n, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tn.Node = n
	ctx, cancel := context.WithCancel(context.Background())
	tn.stopServe = cancel
	go func() { tn.served <- n.Serve(ctx) }()
	waitFor(t, "the node to announce its HTTP address", func() bool {
		addr, ok := tn.narrated("on http://")
		tn.http = "http://" + addr
		return ok
	})
	if cfg.TCP != "" {
		waitFor(t, "the node to announce its TCP address", func() bool {
			var ok bool
			tn.tcp, ok = tn.narrated("on tcp://")
			return ok
		})
	}
	return tn
}

// shutdown is the SIGTERM path: stop serving, Close.
func (tn *testNode) shutdown(t *testing.T) {
	t.Helper()
	tn.stopServe()
	if err := <-tn.served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := tn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// crash abandons the node the way SIGKILL does: no drain, no final push, no
// final snapshot, no Close. The log file is left with what the kernel had —
// every acknowledged stream's records, because a stream's reply waits for its
// shards to be written and merged — followed by torn, the fragment of an entry
// the process died writing. Goroutines that would keep touching the directory stop; the parked
// merge loop and pusher timer are left behind like the process would leave
// nothing.
func (tn *testNode) crash(t *testing.T, torn []byte) {
	t.Helper()
	tn.stopServe()
	<-tn.served
	tn.def.tcpMu.Lock()
	for _, ln := range tn.def.tcpLns {
		ln.Close()
	}
	tn.def.tcpLns = nil
	tn.def.tcpMu.Unlock()
	if m := tn.def.snaps; m != nil {
		m.stopOnce.Do(func() { close(m.stop) })
		<-m.done
	}
	if tn.logFile != nil {
		_, err := tn.logFile.Write(torn)
		if cerr := tn.logFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("leaving the crashed log behind: %v", err)
		}
	}
}

func (tn *testNode) generation(t *testing.T) uint64 {
	t.Helper()
	_, _, gen, err := tn.def.Study().Counts()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// paritySweep is the query sweep served parity compares byte for byte, the
// fp:/agent: families among it.
var paritySweep = []string{
	"pct(version:tls12 / established)",
	"pct(class:rc4 / established)",
	"pct(fp:* / established)",
	"pct(agent:libraries / fp-conns)",
	"over(agent:* / fp-conns)",
	"count(fp:other)",
	"count(total)",
	"mean(pct(version:tls12 / established))",
}

// serveStudy serves st on loopback for the rest of the test and returns the
// base URL.
func serveStudy(t *testing.T, st *core.Study) string {
	t.Helper()
	srv := NewServer(st)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// serveLog serves an offline LoadLog of log, the parity reference, and
// returns its base URL.
func serveLog(t *testing.T, log []byte) string {
	t.Helper()
	var offline core.Study
	if err := offline.LoadLog(bytes.NewReader(log)); err != nil {
		t.Fatal(err)
	}
	return serveStudy(t, &offline)
}

// requireSameServed is served parity: url serves what ref serves (what ref
// is, for the message) — /scalars and each query byte for byte, paritySweep
// unless queries are given.
func requireSameServed(t *testing.T, url, ref, what string, queries ...string) {
	t.Helper()
	if got, want := mustGet(t, url+"/scalars"), mustGet(t, ref+"/scalars"); !bytes.Equal(got, want) {
		t.Fatalf("/scalars differs from %s:\n%s\n---\n%s", what, got, want)
	}
	if len(queries) == 0 {
		queries = paritySweep
	}
	for _, q := range queries {
		_, got := postQuery(t, url+"/query", q)
		if _, want := postQuery(t, ref+"/query", q); !bytes.Equal(got, want) {
			t.Errorf("query %q differs from %s:\n%s\n---\n%s", q, what, got, want)
		}
	}
}

// requireSameFigures is served parity for /figures, which requireSameServed
// leaves out: every point of every figure url serves equals ref's within 1e-9,
// because Figure 5's relative-position series sums float64 accumulators whose
// merge order follows the shard cadence.
func requireSameFigures(t *testing.T, url, ref, what string) {
	t.Helper()
	var got, want []figureJSON
	if json.Unmarshal(mustGet(t, url+"/figures"), &got) != nil || json.Unmarshal(mustGet(t, ref+"/figures"), &want) != nil ||
		len(got) != len(want) {
		t.Fatalf("/figures: %d figures, %s serves %d", len(got), what, len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || len(g.Series) != len(w.Series) {
			t.Fatalf("figure %d: %s with %d series, %s serves %s with %d", i, g.ID, len(g.Series), what, w.ID, len(w.Series))
		}
		for j, ws := range w.Series {
			gs := g.Series[j]
			if gs.Name != ws.Name || len(gs.Points) != len(ws.Points) {
				t.Fatalf("%s series %d: %s/%d points, %s serves %s/%d", w.ID, j, gs.Name, len(gs.Points), what, ws.Name, len(ws.Points))
			}
			for k, wp := range ws.Points {
				if gp := gs.Points[k]; gp.Month != wp.Month || math.Abs(gp.Value-wp.Value) > 1e-9 {
					t.Fatalf("%s %s @%s = %v, %s serves %v", w.ID, ws.Name, wp.Month, gp.Value, what, wp.Value)
				}
			}
		}
	}
}

// TestOpenRestartParity runs the production restart ordering, not a copy of
// it: a node ingests over HTTP and raw TCP, stops (SIGTERM-style Close, or a
// crash with a torn log tail and snapshots that trail the log), and every
// reopen must serve exactly what was durable — byte-identical to an offline
// LoadLog of those records — with the -out log left in the shape the next
// recovery needs: restarted behind "#base <generation>" with snapshots,
// trimmed and appended to without. The crash arm reopens twice with nothing
// in between: a reopen that truncates the log before its records are in a
// snapshot only shows at the restart after it.
func TestOpenRestartParity(t *testing.T) {
	log, offline := sharedLog(t)
	total := len(recordsOf(t, log))
	half := total / 2
	torn := recordLines(t, log, 1, 2)
	torn = torn[:len(torn)/2]

	// A snapshot at any point k and the whole log recover to the whole log;
	// neither recovers to an empty study.
	t.Run("restart-parity-sweep", func(t *testing.T) {
		logPath := filepath.Join(t.TempDir(), "conn.log")
		if err := os.WriteFile(logPath, log, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 7, half, total - 1, total} {
			dir := t.TempDir()
			if _, gen, err := WriteStudySnapshot(dir, studyFromLog(t, recordLines(t, log, 0, k)), 0); err != nil || gen != uint64(k) {
				t.Fatalf("k=%d: snapshot at generation %d, err %v", k, gen, err)
			}
			rec, info, err := RecoverStudy(dir, logPath, t.Logf)
			if err != nil || info.SnapshotRecords != uint64(k) || info.ReplayedRecords != uint64(total-k) ||
				!bytes.Equal(scalarsBytes(t, rec), scalarsBytes(t, offline)) {
				t.Fatalf("k=%d: recovered %+v, err %v; want %d + %d records serving the whole log's scalars", k, info, err, k, total-k)
			}
		}
		if _, info, err := RecoverStudy(t.TempDir(), filepath.Join(t.TempDir(), "absent.log"), t.Logf); err != nil || info.Records() != 0 {
			t.Fatalf("recovery from nothing: %+v, err %v", info, err)
		}
	})

	for _, snapshots := range []bool{true, false} {
		for _, stop := range []string{"close", "crash"} {
			t.Run(fmt.Sprintf("snapshots=%v/%s", snapshots, stop), func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{TCP: "127.0.0.1:0", Out: filepath.Join(dir, "conn.log"), Flush: 61}
				if snapshots {
					// The record-count trigger leaves mid-run snapshots that
					// trail the log at a crash.
					cfg.SnapshotDir = filepath.Join(dir, "snaps")
					cfg.SnapshotEvery = 120
				}
				// newestSnapshot is the generation of the newest snapshot.
				newestSnapshot := func(t *testing.T) uint64 {
					snaps, err := listSnapshots(cfg.SnapshotDir)
					if err != nil || len(snaps) == 0 {
						t.Fatalf("no snapshot (err %v)", err)
					}
					gen, _ := parseSnapshotName(filepath.Base(snaps[0]))
					return gen
				}
				// requireLogShape checks a reopened log, raw, against the
				// recovered generation.
				requireLogShape := func(t *testing.T, raw []byte, gen int) {
					t.Helper()
					if snapshots {
						if want := notary.LogBaseDirective(uint64(gen)); string(raw) != want {
							t.Fatalf("reopened log is %q, want just %q", raw, want)
						}
						return
					}
					// The whole file reads cleanly, as the first gen records.
					var relogged bytes.Buffer
					lw := notary.NewLogWriter(&relogged)
					if err := notary.ReadLog(bytes.NewReader(raw), lw); err != nil {
						t.Fatalf("reopened append-mode log: %v (torn tail not trimmed)", err)
					}
					if err := lw.Flush(); err != nil {
						t.Fatal(err)
					}
					if want := recordLines(t, log, 0, gen); !bytes.Equal(relogged.Bytes(), want) {
						t.Fatalf("reopened append-mode log holds %d bytes of records, want the clean prefix of %d records (torn tail trimmed, nothing truncated)",
							relogged.Len(), gen)
					}
				}
				readLog := func() []byte {
					raw, err := os.ReadFile(cfg.Out)
					if err != nil {
						t.Fatal(err)
					}
					return raw
				}

				// The nodes start and stop here; the subtests only assert, so
				// each runs alone and a failing one leaves no node behind.
				// Session 1: the first half over HTTP, the rest of the first
				// three quarters over raw TCP.
				durable := half + total/4
				n := startNode(t, cfg)
				postTSV(t, n.http, recordLines(t, log, 0, half))
				tail := recordLines(t, log, half, durable)
				if _, err := FeedTCP(n.tcp, func() (io.ReadCloser, error) {
					return io.NopCloser(bytes.NewReader(tail)), nil
				}, FeedOptions{}); err != nil {
					t.Fatalf("FeedTCP: %v", err)
				}
				if stop == "close" {
					n.shutdown(t)
				} else {
					n.crash(t, torn)
					if snapshots && newestSnapshot(t) >= uint64(durable) {
						t.Fatalf("newest snapshot at the crash covers generation %d, want it to trail the log's %d records", newestSnapshot(t), durable)
					}
				}

				// Session 2: everything that reached the log is back — after a
				// crash, past a torn tail and from a snapshot that trails it.
				n = startNode(t, cfg)
				t.Run("recovers-durable", func(t *testing.T) {
					if gen := n.generation(t); gen != uint64(durable) {
						t.Fatalf("reopened at generation %d, want the %d durable records", gen, durable)
					}
					requireSameServed(t, n.http, serveLog(t, recordLines(t, log, 0, durable)), "an offline LoadLog")
				})
				// The log is left as the next recovery needs it: rebased behind
				// "#base <generation>" with snapshots; without, appended to,
				// the torn tail trimmed and nothing truncated — also after a
				// kill straight after the reopen, which shows a reopen that
				// truncated records no snapshot holds.
				reopened := readLog()
				var again uint64
				if stop == "crash" {
					n.crash(t, nil)
					n = startNode(t, cfg)
					again = n.generation(t)
				}
				t.Run("log-shape", func(t *testing.T) {
					requireLogShape(t, reopened, durable)
					if stop == "crash" {
						if again != uint64(durable) {
							t.Fatalf("second reopen at generation %d, want %d: the first reopen lost records", again, durable)
						}
						requireLogShape(t, readLog(), durable)
					}
				})

				// The recovered node keeps collecting, and a last restart sees
				// the whole log. The crash arms stop with another kill; with
				// snapshots its newest lies past the rebased log's #base, so
				// recovery skips by generation, not by line: it loads the
				// newest snapshot and replays only the records past it.
				postTSV(t, n.http, recordLines(t, log, durable, total))
				if stop == "close" {
					n.shutdown(t)
				} else {
					n.crash(t, nil)
				}
				var newest, base uint64
				if snapshots {
					newest, base = newestSnapshot(t), uint64(durable)
				}
				_, info, err := RecoverStudy(cfg.SnapshotDir, cfg.Out, t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				n = startNode(t, cfg)
				defer n.shutdown(t)
				t.Run("keeps-ingesting", func(t *testing.T) {
					if stop == "crash" && snapshots && newest <= base {
						t.Fatalf("newest snapshot at generation %d, want one past the #base %d", newest, base)
					}
					if info.LogBase != base || info.SnapshotRecords != newest || info.ReplayedRecords != uint64(total)-newest {
						t.Fatalf("last recovery: %d snapshot + %d replayed records (log base %d), want %d + %d (base %d)",
							info.SnapshotRecords, info.ReplayedRecords, info.LogBase, newest, uint64(total)-newest, base)
					}
					if gen := n.generation(t); gen != uint64(total) {
						t.Fatalf("final reopen at generation %d, want %d", gen, total)
					}
					requireSameServed(t, n.http, serveLog(t, log), "an offline LoadLog")
				})
			})
		}
	}
}

// TestOpenHostileTLSBRecordKeepsTheLogTail: what a collector acknowledges it
// tees into -out as a TSV line, and the next recovery takes a line of the
// wrong width for a torn tail — dropping it and every acknowledged record
// after it. So a TLSB record whose string would break its line (a TAB), or
// read back as another string ("-"), is refused with 400 before it is
// counted, and a kill after it recovers everything that was acknowledged.
func TestOpenHostileTLSBRecordKeepsTheLogTail(t *testing.T) {
	log, _ := sharedLog(t)
	total := len(recordsOf(t, log))
	half := total / 2
	for name, c := range map[string]struct{ cohort, fp string }{
		"tab in cohort": {cohort: "modern\tecdhe"},
		"dash as fp":    {fp: "-"},
	} {
		t.Run(name, func(t *testing.T) {
			hostile := notary.Record{Date: timeline.D(2013, time.March, 9), ServerCohort: c.cohort}
			new(notary.HelloTable).Intern(&hostile, &notary.Hello{Suites: []uint16{0xc02f}, Fingerprint: c.fp})
			var frame bytes.Buffer
			bw := notary.NewBatchWriter(&frame, 1)
			if err := bw.Observe(&hostile); err != nil {
				t.Fatal(err)
			}

			cfg := Config{Out: filepath.Join(t.TempDir(), "conn.log"), Flush: 61}
			n := startNode(t, cfg)
			postTSV(t, n.http, recordLines(t, log, 0, half))
			if r := <-postIngest(n.http, ContentTypeBatch, &frame); r.status != http.StatusBadRequest {
				t.Fatalf("hostile frame replied %+v, want 400", r)
			}
			postTSV(t, n.http, recordLines(t, log, half, total))

			n.crash(t, nil)
			n = startNode(t, cfg)
			defer n.shutdown(t)
			if gen := n.generation(t); gen != uint64(total) {
				t.Fatalf("reopened at generation %d, want all %d acknowledged records", gen, total)
			}
			requireSameServed(t, n.http, serveLog(t, log), "an offline LoadLog")
		})
	}
}

// TestOpenUnionTakesStudyOptions: the union is a full Server with /ingest,
// so -flush, -queue-bound and -idle-timeout apply to it like to any member.
func TestOpenUnionTakesStudyOptions(t *testing.T) {
	n, err := Open(Config{Studies: "eu,us", Union: "global",
		Flush: 5, QueueBound: 7, IdleTimeout: time.Second, MaxInflight: 3, MaxBody: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, id := range []string{"eu", "us", "global"} {
		s, ok := n.rt.Server(id)
		if !ok {
			t.Fatalf("study %q not hosted", id)
		}
		if s.flushEvery != 5 || s.queueBound != 7 || s.idleTimeout != time.Second || s.maxInFlight != 3 || s.maxBody != 1<<10 {
			t.Errorf("study %q: flush %d, queue bound %d, idle timeout %v, max in flight %d, max body %d; want 5, 7, 1s, 3, 1024",
				id, s.flushEvery, s.queueBound, s.idleTimeout, s.maxInFlight, s.maxBody)
		}
	}
}

// openFDs counts this process's open file descriptors, or -1 where /proc
// does not say.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestOpenFailureReleasesEverything: a failed Open returns an error and no
// node, and leaves no goroutine (merge loops, snapshot timer, pusher timer)
// or file (the -out log) behind — each failure is provoked as late as it can
// occur, with everything before it already acquired.
func TestOpenFailureReleasesEverything(t *testing.T) {
	log, _ := sharedLog(t)
	// durable is a config whose recovery, compaction, pusher, log and
	// snapshot manager all have work to do.
	durable := func(t *testing.T) Config {
		dir := t.TempDir()
		out := filepath.Join(dir, "conn.log")
		if err := os.WriteFile(out, recordLines(t, log, 0, 40), 0o644); err != nil {
			t.Fatal(err)
		}
		return Config{Out: out, SnapshotDir: filepath.Join(dir, "snaps"), SnapshotInterval: time.Hour,
			QueueBound: DefaultQueueBound, Studies: "eu,us", PushInterval: time.Hour}
	}
	cases := map[string]func(t *testing.T) Config{
		"queue bound below 1": func(t *testing.T) Config {
			cfg := durable(t)
			cfg.QueueBound = 0
			return cfg
		},
		"unwritable out": func(t *testing.T) Config {
			cfg := durable(t)
			cfg.Upstream = "http://127.0.0.1:1/studies/eu" // nothing unshipped: never dialled
			cfg.Out = filepath.Join(filepath.Dir(cfg.Out), "missing-dir", "conn.log")
			return cfg
		},
		"corrupt shipped.gen": func(t *testing.T) Config {
			cfg := durable(t)
			cfg.Upstream = "http://127.0.0.1:1/studies/eu"
			if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cfg.SnapshotDir, "shipped.gen"), []byte("not a number\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			return cfg
		},
		"invalid default study id": func(t *testing.T) Config {
			cfg := durable(t)
			cfg.Studies = "EU,us"
			return cfg
		},
		"duplicate study id": func(t *testing.T) Config {
			cfg := durable(t)
			cfg.Studies = "eu,us,eu"
			return cfg
		},
		"empty study id": func(t *testing.T) Config {
			cfg := durable(t)
			cfg.Studies = "eu,,us"
			return cfg
		},
		"union named like a member": func(t *testing.T) Config {
			cfg := durable(t)
			cfg.Union = "us"
			return cfg
		},
		"invalid union id": func(t *testing.T) Config {
			cfg := durable(t)
			cfg.Union = "Global!"
			return cfg
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := build(t)
			goroutines, fds := runtime.NumGoroutine(), openFDs()
			n, err := Open(cfg)
			if err == nil {
				n.Close()
				t.Fatal("Open succeeded")
			}
			if n != nil {
				t.Fatalf("failed Open returned a node next to its error %v", err)
			}
			t.Logf("Open: %v", err)
			waitFor(t, "the failed Open's goroutines to exit", func() bool {
				return runtime.NumGoroutine() <= goroutines
			})
			if after := openFDs(); after > fds {
				t.Fatalf("%d file descriptors open after the failed Open, %d before", after, fds)
			}
		})
	}
}
