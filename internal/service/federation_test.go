package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// fedShard builds a deterministic pre-aggregated shard for merge-endpoint
// tests (the parity tests use real record logs instead).
func fedShard(seed uint64, months int) *notary.Aggregate {
	agg := notary.NewAggregate()
	m := timeline.M(2012, time.March)
	for i := 0; i < months; i++ {
		i := uint64(i)
		agg.UpdateMonth(m, 5+i, func(ms *notary.MonthStats) {
			ms.Total += int(5 + i)
			ms.Established += int(3 + seed)
			ms.ByVersion[registry.VersionTLS12] += int(2 + seed)
			ms.ByClass["RC4"] += int(1 + i)
		})
		m = m.Next()
	}
	return agg
}

// postDeltaFrame POSTs one framed delta and decodes the MergeAck reply.
func postDeltaFrame(t *testing.T, url string, d *federation.Delta) (int, federation.MergeAck) {
	t.Helper()
	frame, err := federation.EncodeDelta(d)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	resp, err := http.Post(url+"/merge", federation.ContentTypeDelta, bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST /merge: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ack federation.MergeAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatalf("decoding merge ack: %v\n%s", err, raw)
	}
	return resp.StatusCode, ack
}

// TestMergeEndpoint covers the core half of the delta protocol on one
// server: sequenced applies, idempotent duplicates, overlap conflicts, gap
// acceptance, garbage rejection, and the /healthz federation core block.
func TestMergeEndpoint(t *testing.T) {
	srv := NewServer(core.NewLiveStudy())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	d1 := fedShard(1, 4)
	d2 := fedShard(2, 6)
	both := notary.NewAggregate()
	both.Merge(d1)
	both.Merge(d2)

	status, ack := postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-a", Base: 0, Agg: d1})
	if status != http.StatusOK || ack.Records != d1.Generation() || ack.AppliedThrough != d1.Generation() {
		t.Fatalf("first delta: %d %+v", status, ack)
	}
	if ack.Generation != d1.Generation() {
		t.Fatalf("study generation %d after first delta, want %d", ack.Generation, d1.Generation())
	}

	// Replay of the identical delta: idempotent duplicate, nothing applied.
	status, ack = postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-a", Base: 0, Agg: d1})
	if status != http.StatusOK || !ack.Duplicate || ack.Records != 0 {
		t.Fatalf("duplicate delta: %d %+v", status, ack)
	}

	// The continuation applies on top.
	status, ack = postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-a", Base: d1.Generation(), Agg: d2})
	if status != http.StatusOK || ack.AppliedThrough != both.Generation() {
		t.Fatalf("continuation delta: %d %+v", status, ack)
	}

	// An exact replay of the tail is another idempotent duplicate.
	status, ack = postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-a", Base: d1.Generation(), Agg: d2})
	if status != http.StatusOK || !ack.Duplicate {
		t.Fatalf("tail replay: %d %+v, want duplicate ack", status, ack)
	}

	// A partial overlap — stale base, records extending past the cursor —
	// must 409 with the cursor, not double-count.
	status, ack = postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-a", Base: d1.Generation(), Agg: both})
	if status != http.StatusConflict || ack.AppliedThrough != both.Generation() {
		t.Fatalf("overlap delta: %d %+v, want 409 with cursor %d", status, ack, both.Generation())
	}

	// A gap (base beyond the cursor) is accepted and counted: the edge knows
	// its own log, the core only tracks what it was told.
	gap := fedShard(3, 2)
	status, _ = postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-b", Base: 100, Agg: gap})
	if status != http.StatusOK {
		t.Fatalf("gap delta: %d", status)
	}

	// An empty delta is an acked no-op ping.
	status, ack = postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-a", Base: both.Generation(), Agg: notary.NewAggregate()})
	if status != http.StatusOK || ack.Records != 0 || ack.AppliedThrough != both.Generation() {
		t.Fatalf("empty delta: %d %+v", status, ack)
	}

	// Garbage is rejected up front.
	resp, err := http.Post(ts.URL+"/merge", federation.ContentTypeDelta, strings.NewReader("not a delta"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage delta: %d, want 400", resp.StatusCode)
	}

	// The study saw federated ingest as ordinary ingest.
	records, _, gen, err := srv.Study().Counts()
	if err != nil {
		t.Fatal(err)
	}
	wantGen := both.Generation() + gap.Generation()
	if gen != wantGen || records != both.TotalRecords()+gap.TotalRecords() {
		t.Fatalf("study at (%d records, gen %d), want (%d, %d)",
			records, gen, both.TotalRecords()+gap.TotalRecords(), wantGen)
	}

	// /healthz reports the core federation block.
	var health struct {
		Federation *struct {
			Core *struct {
				DeltasApplied uint64 `json:"deltas_applied"`
				Records       uint64 `json:"records"`
				Gaps          uint64 `json:"gaps"`
				LastMergeGen  uint64 `json:"last_merge_generation"`
				Sources       map[string]struct {
					Deltas         uint64 `json:"deltas"`
					Records        uint64 `json:"records"`
					AppliedThrough uint64 `json:"applied_through"`
				} `json:"sources"`
			} `json:"core"`
		} `json:"federation"`
	}
	if err := json.Unmarshal(mustGet(t, ts.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	fed := health.Federation
	if fed == nil || fed.Core == nil {
		t.Fatal("healthz missing federation core block")
	}
	if fed.Core.DeltasApplied != 3 || fed.Core.Gaps != 1 || fed.Core.LastMergeGen != wantGen {
		t.Fatalf("core block %+v, want 3 deltas, 1 gap, last gen %d", fed.Core, wantGen)
	}
	if src, ok := fed.Core.Sources["edge-a"]; !ok || src.AppliedThrough != both.Generation() || src.Deltas != 2 {
		t.Fatalf("edge-a source gauges %+v", fed.Core.Sources)
	}
}

// TestMergeMaxBodyBytes: a delta frame cut off by -max-body answers 413, not
// the 400 of a corrupt one — the *http.MaxBytesError has to survive the
// frame reader's truncation wrapping for handleMerge to tell them apart.
func TestMergeMaxBodyBytes(t *testing.T) {
	srv := NewServer(core.NewLiveStudy(), WithMaxBodyBytes(64))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, _ := postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-a", Agg: fedShard(1, 4)}); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize delta: %d, want 413", status)
	}
	if _, _, gen, _ := srv.Study().Counts(); gen != 0 {
		t.Fatalf("a refused delta moved the study to generation %d", gen)
	}
}

// TestUnionValidation pins Union's assembly-time errors.
func TestUnionValidation(t *testing.T) {
	rt := NewRouter()
	if err := rt.Add("eu", NewServer(core.NewLiveStudy())); err != nil {
		t.Fatal(err)
	}
	if err := rt.Union("global", NewServer(core.NewLiveStudy())); err == nil {
		t.Fatal("union with no members accepted")
	}
	if err := rt.Union("global", NewServer(core.NewLiveStudy()), "nope"); err == nil {
		t.Fatal("union with unknown member accepted")
	}
	if err := rt.Union("global", NewServer(core.NewLiveStudy()), "global"); err == nil {
		t.Fatal("self-membered union accepted")
	}
	if err := rt.Union("global", NewServer(core.NewLiveStudy()), "eu"); err != nil {
		t.Fatalf("valid union rejected: %v", err)
	}
}

// faultGate injects upstream faults in front of a router: per /merge
// request number it can shed with 429 or kill the connection after
// optionally applying — the two failure classes an edge must survive.
type faultGate struct {
	next http.Handler
	n    atomic.Uint64
	// plan maps a 1-based /merge request number to a fault: "429" sheds
	// before anything applies, "kill" cuts the connection without a reply,
	// "apply-kill" lets the merge apply and then cuts the reply (lost ack).
	plan map[uint64]string
}

func (g *faultGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/merge") {
		switch g.plan[g.n.Add(1)] {
		case "429":
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "injected fault"})
			return
		case "kill":
			hijackClose(w)
			return
		case "apply-kill":
			g.next.ServeHTTP(&discardResponseWriter{}, r)
			hijackClose(w)
			return
		}
	}
	g.next.ServeHTTP(w, r)
}

func hijackClose(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
	}
}

// discardResponseWriter swallows the response on the apply-kill path.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// splitLog cuts a TSV record log into n roughly equal line chunks.
func splitLog(log []byte, n int) [][]byte {
	lines := bytes.SplitAfter(log, []byte("\n"))
	chunks := make([][]byte, n)
	per := (len(lines) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(lines) {
			lo = len(lines)
		}
		if hi > len(lines) {
			hi = len(lines)
		}
		chunks[i] = bytes.Join(lines[lo:hi], nil)
	}
	return chunks
}

// flushUntilAcked drives a pusher through injected faults: each failed
// flush retains the delta, and the retry must eventually apply.
func flushUntilAcked(t *testing.T, p *federation.Pusher) {
	t.Helper()
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if err = p.Flush(); err == nil {
			return
		}
	}
	t.Fatalf("flush never succeeded: %v", err)
}

// TestFederationParity is the tentpole acceptance test: a `global` study
// fed by two edge collectors over delta frames — across injected 429 and
// connection-kill faults — answers /scalars and a sweep of /query
// expressions byte-identical to a single node that ingested the
// concatenated record logs.
func TestFederationParity(t *testing.T) {
	log, _ := sharedLog(t)

	// Core: eu and us merge targets (default and tight queue bounds) plus the
	// global union study over both.
	rt := NewRouter()
	eu := NewServer(core.NewLiveStudy())
	us := NewServer(core.NewLiveStudy(), WithQueueBound(16))
	if err := rt.Add("eu", eu); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add("us", us); err != nil {
		t.Fatal(err)
	}
	global := NewServer(core.NewLiveStudy())
	if err := rt.Union("global", global, "eu", "us"); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Faults: the eu edge's first push is shed with 429; the us edge's first
	// push dies mid-connection; the eu edge's third push applies upstream but
	// loses the ack (the duplicate-detection path).
	gate := &faultGate{next: rt.Handler(), plan: map[uint64]string{
		1: "429",
		2: "kill",
		5: "apply-kill",
	}}
	coreTS := httptest.NewServer(gate)
	defer coreTS.Close()

	// Edges: standalone collectors, each teeing merged shards into a pusher
	// aimed at its core study. Hour-long timers — the test drives every push
	// explicitly.
	newEdge := func(source, target string, flushEvery int) (*Server, *federation.Pusher) {
		p, err := federation.NewPusher(federation.PusherOptions{
			Source:    source,
			Upstream:  coreTS.URL + "/studies/" + target,
			Interval:  time.Hour,
			BaseDelay: time.Millisecond,
			Rand:      func() float64 { return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		return NewServer(core.NewLiveStudy(), WithFlushEvery(flushEvery), WithPusher(p)), p
	}
	edge1, p1 := newEdge("vantage-eu", "eu", 61)
	edge2, p2 := newEdge("vantage-us", "us", 89)

	halves := splitLog(log, 2)
	// Interleave ingest and pushes so each edge ships multiple deltas with
	// advancing bases, with faults landing between them.
	e1parts := splitLog(halves[0], 3)
	e2parts := splitLog(halves[1], 2)
	feed := func(srv *Server, part []byte) {
		t.Helper()
		if _, err := srv.ingest(bytes.NewReader(part), false); err != nil {
			t.Fatalf("edge ingest: %v", err)
		}
	}
	feed(edge1, e1parts[0])
	flushUntilAcked(t, p1) // attempt 1: 429, retry applies
	feed(edge2, e2parts[0])
	flushUntilAcked(t, p2) // attempt: kill, retry applies
	feed(edge1, e1parts[1])
	flushUntilAcked(t, p1) // lands on the apply-kill attempt, retry sees duplicate
	feed(edge1, e1parts[2])
	feed(edge2, e2parts[1])
	// Close ships the final deltas (and must survive any remaining faults).
	if err := edge1.Close(); err != nil {
		t.Fatalf("closing edge1: %v", err)
	}
	if err := edge2.Close(); err != nil {
		t.Fatalf("closing edge2: %v", err)
	}

	// Reference: one node ingesting the concatenated logs the edges split.
	ref := NewServer(core.NewLiveStudy())
	defer ref.Close()
	if _, err := ref.ingest(bytes.NewReader(log), false); err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()

	gotScalars := mustGet(t, coreTS.URL+"/studies/global/scalars")
	wantScalars := mustGet(t, refTS.URL+"/scalars")
	if !bytes.Equal(gotScalars, wantScalars) {
		t.Fatalf("federated /scalars differs from single-node ingest:\n%s\n---\n%s", gotScalars, wantScalars)
	}

	for _, q := range []string{
		"pct(version:tls12 / established)",
		"pct(version:ssl3 / total)",
		"pct(class:rc4 / established)",
		"pct(sum(kex:ecdhe, kex:tls13) / established)",
		"pct(fp:* / established)",
		"pct(agent:libraries / fp-conns)",
		"over(agent:* / fp-conns)",
		"count(established)",
		"mean(pct(version:tls12 / established))",
	} {
		body, err := json.Marshal(map[string]string{"query": q})
		if err != nil {
			t.Fatal(err)
		}
		post := func(url string) []byte {
			resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s %q: %d %v: %s", url, q, resp.StatusCode, err, raw)
			}
			return raw
		}
		got := post(coreTS.URL + "/studies/global")
		want := post(refTS.URL)
		if !bytes.Equal(got, want) {
			t.Errorf("query %q: federated answer differs:\n%s\n---\n%s", q, got, want)
		}
	}

	// The member studies hold exactly their edge's half.
	for i, id := range []string{"eu", "us"} {
		srv, _ := rt.Server(id)
		half := core.NewLiveStudy()
		shard := half.NewShard()
		if err := notary.ReadLog(bytes.NewReader(halves[i]), shard); err != nil {
			t.Fatal(err)
		}
		_, _, gen, err := srv.Study().Counts()
		if err != nil {
			t.Fatal(err)
		}
		if gen != shard.Generation() {
			t.Errorf("study %s at generation %d, want %d", id, gen, shard.Generation())
		}
	}

	// Edge healthz reports the federation edge block.
	edgeTS := httptest.NewServer(edge1.Handler())
	defer edgeTS.Close()
	var health struct {
		Federation *struct {
			Edge *struct {
				Source         string  `json:"source"`
				DeltasShipped  uint64  `json:"deltas_shipped"`
				ShippedThrough uint64  `json:"shipped_through"`
				Retained       uint64  `json:"retained_records"`
				LastPushAge    float64 `json:"last_push_age_seconds"`
				Errors         uint64  `json:"upstream_errors"`
			} `json:"edge"`
		} `json:"federation"`
	}
	if err := json.Unmarshal(mustGet(t, edgeTS.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	fed := health.Federation
	if fed == nil || fed.Edge == nil {
		t.Fatal("edge healthz missing federation edge block")
	}
	edge := fed.Edge
	if edge.Source != "vantage-eu" || edge.Retained != 0 || edge.DeltasShipped == 0 || edge.Errors == 0 {
		t.Fatalf("edge block %+v: want source vantage-eu, 0 retained, >0 shipped, >0 errors", edge)
	}
	if edge.LastPushAge < 0 {
		t.Fatal("edge block LastPushAge still -1 after shipped deltas")
	}

	// The global server's healthz lists both children with their volumes.
	var gh struct {
		Federation *struct {
			Core *struct {
				Children map[string]struct {
					Shards  uint64 `json:"shards"`
					Records uint64 `json:"records"`
				} `json:"children"`
			} `json:"core"`
		} `json:"federation"`
	}
	if err := json.Unmarshal(mustGet(t, coreTS.URL+"/studies/global/healthz"), &gh); err != nil {
		t.Fatal(err)
	}
	if gh.Federation == nil || gh.Federation.Core == nil {
		t.Fatal("global healthz missing federation core block")
	}
	kids := gh.Federation.Core.Children
	if len(kids) != 2 || kids["eu"].Records == 0 || kids["us"].Records == 0 {
		t.Fatalf("global children gauges %+v", kids)
	}
}

// windowSink delivers at most n records into agg, silently dropping the
// rest — the replay-a-range helper for the restart tests.
type windowSink struct {
	agg *notary.Aggregate
	n   uint64
}

func (ws *windowSink) Observe(r *notary.Record) error {
	if ws.n == 0 {
		return nil
	}
	ws.n--
	return ws.agg.Observe(r)
}

func (ws *windowSink) Close() error { return nil }

// replayRange rebuilds the merged contributions of log records
// [from, from+n) — the durable-log replay an edge runs at startup (and the
// Rebase hook runs after a conflict). Shards come from a classifier-bearing
// study so attribution matches the live ingest path.
func replayRange(t *testing.T, log []byte, from, n uint64) *notary.Aggregate {
	t.Helper()
	shard := core.NewLiveStudy().NewShard()
	delivered, _, err := notary.ReadLogTail(bytes.NewReader(log), from, &windowSink{agg: shard, n: n})
	if err != nil {
		t.Fatalf("replaying log tail from %d: %v", from, err)
	}
	if delivered < n {
		t.Fatalf("log tail from %d delivered %d records, want at least %d", from, delivered, n)
	}
	return shard
}

// TestEdgeRestartNoReship pins restart correctness for the edge cursor: an
// edge recovering from its durable log must never re-ship already-acked
// records, across three crash shapes — a clean restart, a crash that lost
// the final ack (duplicate re-push), and a kill mid-push where the server
// applied a delta the edge never heard about and more records arrived
// before the crash (409 → rebase).
func TestEdgeRestartNoReship(t *testing.T) {
	log, _ := sharedLog(t)
	total := func() uint64 {
		shard := core.NewLiveStudy().NewShard()
		if err := notary.ReadLog(bytes.NewReader(log), shard); err != nil {
			t.Fatal(err)
		}
		return shard.Generation()
	}()
	if total < 30 {
		t.Fatalf("shared log too small for the restart scenarios: %d records", total)
	}
	k1, k2 := total/3, 2*total/3

	// check runs one crash/restart scenario and verifies the core holds the
	// whole log exactly once afterwards.
	check := func(t *testing.T, scenario func(t *testing.T, coreURL, statePath string)) {
		srv := NewServer(core.NewLiveStudy())
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		statePath := filepath.Join(t.TempDir(), "shipped.gen")
		scenario(t, ts.URL, statePath)

		_, _, gen, err := srv.Study().Counts()
		if err != nil {
			t.Fatal(err)
		}
		if gen != total {
			t.Fatalf("core at generation %d after restart scenario, want %d (records lost or re-shipped)", gen, total)
		}
		// Byte-level: the core's scalars equal a study that loaded the log
		// directly.
		refStudy := core.NewStudyFromAggregate(replayRange(t, log, 0, total))
		ref := httptest.NewServer(NewServer(refStudy).Handler())
		defer ref.Close()
		got := mustGet(t, ts.URL+"/scalars")
		want := mustGet(t, ref.URL+"/scalars")
		if !bytes.Equal(got, want) {
			t.Fatal("core scalars differ from direct log load after restart scenario")
		}
	}

	newPusher := func(t *testing.T, coreURL, statePath string, shipped uint64, initial *notary.Aggregate, rebase func(from uint64) (*notary.Aggregate, error)) *federation.Pusher {
		t.Helper()
		p, err := federation.NewPusher(federation.PusherOptions{
			Source:    "edge-restart",
			Upstream:  coreURL,
			Interval:  time.Hour,
			BaseDelay: time.Millisecond,
			Rand:      func() float64 { return 0 },
			Shipped:   shipped,
			Initial:   initial,
			StatePath: statePath,
			Rebase:    rebase,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	loadState := func(t *testing.T, statePath string) uint64 {
		t.Helper()
		gen, err := federation.LoadShippedState(statePath)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}

	t.Run("clean-restart", func(t *testing.T) {
		check(t, func(t *testing.T, coreURL, statePath string) {
			// Session 1: ship the first k1 records, acked and persisted.
			p1 := newPusher(t, coreURL, statePath, 0, nil, nil)
			p1.Observe(replayRange(t, log, 0, k1))
			if err := p1.Flush(); err != nil {
				t.Fatalf("session 1 flush: %v", err)
			}
			// Crash: p1 abandoned without Close.

			// Session 2: recover the cursor, replay the unshipped tail.
			shipped := loadState(t, statePath)
			if shipped != k1 {
				t.Fatalf("recovered cursor %d, want %d", shipped, k1)
			}
			p2 := newPusher(t, coreURL, statePath, shipped, replayRange(t, log, shipped, total-shipped), nil)
			if err := p2.Close(); err != nil {
				t.Fatalf("session 2 close: %v", err)
			}
		})
	})

	t.Run("lost-ack-duplicate", func(t *testing.T) {
		check(t, func(t *testing.T, coreURL, statePath string) {
			// Session 1 ships k1 records but the server's ack never arrives
			// (apply-kill), so the persisted cursor stays 0.
			client := &http.Client{Transport: &applyKillOnce{}}
			p1, err := federation.NewPusher(federation.PusherOptions{
				Source: "edge-restart", Upstream: coreURL, Interval: time.Hour,
				BaseDelay: time.Millisecond, Rand: func() float64 { return 0 },
				StatePath: statePath, Client: client,
			})
			if err != nil {
				t.Fatal(err)
			}
			p1.Observe(replayRange(t, log, 0, k1))
			if err := p1.Flush(); err == nil {
				t.Fatal("session 1 flush succeeded despite killed ack")
			}
			// Crash before any retry.

			// Session 2: the stale cursor replays from 0; the re-push is a
			// duplicate the server acks without re-applying, then the rest
			// ships normally.
			shipped := loadState(t, statePath)
			if shipped != 0 {
				t.Fatalf("recovered cursor %d, want 0 (ack was lost)", shipped)
			}
			p2 := newPusher(t, coreURL, statePath, 0, replayRange(t, log, 0, k1), nil)
			if err := p2.Flush(); err != nil {
				t.Fatalf("duplicate re-push: %v", err)
			}
			p2.Observe(replayRange(t, log, k1, total-k1))
			if err := p2.Close(); err != nil {
				t.Fatalf("session 2 close: %v", err)
			}
		})
	})

	t.Run("kill-mid-push-rebase", func(t *testing.T) {
		check(t, func(t *testing.T, coreURL, statePath string) {
			// Session 1: first delta [0,k1) acked and persisted; second delta
			// [k1,k2) applied upstream but the ack killed; more records
			// [k2,total) logged but never pushed; crash.
			client := &http.Client{Transport: &applyKillOnce{skip: 1}}
			p1, err := federation.NewPusher(federation.PusherOptions{
				Source: "edge-restart", Upstream: coreURL, Interval: time.Hour,
				BaseDelay: time.Millisecond, Rand: func() float64 { return 0 },
				StatePath: statePath, Client: client,
			})
			if err != nil {
				t.Fatal(err)
			}
			p1.Observe(replayRange(t, log, 0, k1))
			if err := p1.Flush(); err != nil {
				t.Fatalf("session 1 first flush: %v", err)
			}
			p1.Observe(replayRange(t, log, k1, k2-k1))
			if err := p1.Flush(); err == nil {
				t.Fatal("session 1 second flush succeeded despite killed ack")
			}
			// Crash with cursor k1 persisted and the upstream at k2.

			// Session 2: replaying from the stale cursor overlaps what the
			// upstream already applied — the push conflicts and the rebase
			// hook replays past the server's cursor.
			shipped := loadState(t, statePath)
			if shipped != k1 {
				t.Fatalf("recovered cursor %d, want %d", shipped, k1)
			}
			var rebasedFrom uint64
			p2 := newPusher(t, coreURL, statePath, shipped,
				replayRange(t, log, shipped, total-shipped),
				func(from uint64) (*notary.Aggregate, error) {
					rebasedFrom = from
					return replayRange(t, log, from, total-from), nil
				})
			if err := p2.Close(); err != nil {
				t.Fatalf("session 2 close: %v", err)
			}
			if rebasedFrom != k2 {
				t.Fatalf("rebase hook saw cursor %d, want %d", rebasedFrom, k2)
			}
		})
	})
}

// applyKillOnce is a RoundTripper that lets one request through to the
// server but reports a transport error instead of the response — the lost
// ack. skip counts requests passed through untouched first.
type applyKillOnce struct {
	skip  int
	fired bool
}

func (a *applyKillOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if !a.fired {
		if a.skip > 0 {
			a.skip--
			return resp, nil
		}
		a.fired = true
		resp.Body.Close()
		return nil, fmt.Errorf("injected fault: connection lost after server processed the request")
	}
	return resp, nil
}

// TestScanCampaignMergeParity: POST /merge doubles as the ingest path for
// externally-run scan campaigns — a pre-aggregated sweep pushed as one
// delta answers every query byte-identical to `tlstrend scansweep -serve`
// hosting the same reports locally (core.NewScanStudy).
func TestScanCampaignMergeParity(t *testing.T) {
	months := []timeline.Month{
		timeline.M(2015, time.September),
		timeline.M(2016, time.June),
		timeline.M(2018, time.May),
	}
	reports := []*core.CampaignReport{
		scanReport(200, 90, 180, 22, 108, 1, 68, 38, 56, 3),
		scanReport(150, 55, 140, 12, 70, 1, 48, 21, 30, 1),
		scanReport(180, 45, 175, 6, 63, 0, 61, 34, 2, 0),
	}

	// The local path: the sweep's own study, as scansweep -serve hosts it.
	local, err := core.NewScanStudy(months, reports)
	if err != nil {
		t.Fatal(err)
	}
	localTS := httptest.NewServer(NewServer(local).Handler())
	defer localTS.Close()

	// The federated path: the campaign aggregates externally and pushes one
	// delta to an empty hosted study.
	agg, err := core.ScanAggregate(months, reports)
	if err != nil {
		t.Fatal(err)
	}
	hosted := NewServer(core.NewLiveStudy())
	defer hosted.Close()
	hostedTS := httptest.NewServer(hosted.Handler())
	defer hostedTS.Close()
	ack, err := federation.PushDelta(hostedTS.URL, &federation.Delta{Source: "campaign-2018", Agg: agg}, nil)
	if err != nil {
		t.Fatalf("PushDelta: %v", err)
	}
	if ack.Records != agg.Generation() {
		t.Fatalf("campaign push applied %d records, want %d", ack.Records, agg.Generation())
	}

	for _, q := range []string{
		"pct(version:ssl3 / total)",
		"pct(class:rc4 / total)",
		"pct(class:cbc / total)",
		"pct(class:3des / total)",
		"pct(adv-rc4 / total)",
		"pct(adv-export / total)",
		"pct(offers-heartbeat / total)",
		"pct(heartbeat-ack / total)",
		"at(pct(class:rc4 / total), 2015-09)",
	} {
		body, err := json.Marshal(map[string]string{"query": q})
		if err != nil {
			t.Fatal(err)
		}
		post := func(url string) []byte {
			resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s %q: %d %v: %s", url, q, resp.StatusCode, err, raw)
			}
			return raw
		}
		got := post(hostedTS.URL)
		want := post(localTS.URL)
		if !bytes.Equal(got, want) {
			t.Errorf("query %q: merged campaign differs from local scan study:\n%s\n---\n%s", q, got, want)
		}
	}
	got := mustGet(t, hostedTS.URL+"/scalars")
	want := mustGet(t, localTS.URL+"/scalars")
	if !bytes.Equal(got, want) {
		t.Fatal("merged campaign /scalars differs from local scan study")
	}
}
