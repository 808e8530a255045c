package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
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
			ms.N[notary.Total] += int(5 + i)
			ms.N[notary.Established] += int(3 + seed)
			ms.ByVersion.Add(registry.VersionTLS12, int(2+seed))
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

// TestMergeRefusesPoisonedDelta: a CRC-valid delta whose position sum is NaN
// (or exceeds its count) cannot have come from Add and Merge. It used to be
// merged, after which /figures answered 200 with an empty body and the NaN
// went into the core's own snapshots; now it is a 400 that applies nothing.
func TestMergeRefusesPoisonedDelta(t *testing.T) {
	srv := NewServer(core.NewLiveStudy())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	good := fedShard(1, 4)
	if status, _ := postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-a", Agg: good}); status != http.StatusOK {
		t.Fatalf("good delta: %d", status)
	}
	for name, sum := range map[string]float64{"NaN": math.NaN(), "sum above count": 2.5} {
		bad := fedShard(2, 4)
		bad.UpdateMonth(timeline.M(2012, time.March), 0, func(ms *notary.MonthStats) {
			ms.Pos[notary.PosAEAD].Sum, ms.Pos[notary.PosAEAD].Count = sum, 2
		})
		status, ack := postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-b", Agg: bad})
		if status != http.StatusBadRequest || ack.Error == "" {
			t.Fatalf("%s delta: %d %+v, want 400 with an error", name, status, ack)
		}
	}
	if _, _, gen, _ := srv.Study().Counts(); gen != good.Generation() {
		t.Fatalf("a refused delta moved the study to generation %d, want %d", gen, good.Generation())
	}
	for _, path := range []string{"/figures", "/figure/5", "/scalars"} {
		if body := mustGet(t, ts.URL+path); !json.Valid(body) {
			t.Errorf("GET %s after the refused deltas is not JSON: %q", path, body)
		}
	}
	postQuery(t, ts.URL+"/query", "position(aead)")
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

// TestMergeRefusedOnLoggedStudy: a study that tees its records into a log
// cannot take deltas — they would advance the generation recovery uses as
// the log's replay cursor — so POST /merge answers a 4xx no sender retries or
// rebases on, names the flag to drop, and touches nothing.
func TestMergeRefusedOnLoggedStudy(t *testing.T) {
	var teed bytes.Buffer
	srv := NewServer(core.NewLiveStudy(), WithLogSink(notary.NewLogWriter(&teed)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, ack := postDeltaFrame(t, ts.URL, &federation.Delta{Source: "edge-a", Agg: fedShard(1, 4)})
	if status < 400 || status >= 500 || status == http.StatusConflict || status == http.StatusTooManyRequests {
		t.Fatalf("delta into a logged study: %d, want a 4xx other than 409/429", status)
	}
	if !strings.Contains(ack.Error, "-out") {
		t.Errorf("refusal %q does not name -out", ack.Error)
	}
	if _, _, gen, _ := srv.Study().Counts(); gen != 0 {
		t.Errorf("the refused delta moved the study to generation %d", gen)
	}
	if block := srv.fed.health(); block != nil {
		t.Errorf("the refused delta registered a source cursor: %v", block)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if teed.Len() != 0 {
		t.Errorf("the refused delta wrote %d bytes to the record log", teed.Len())
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

// TestUnionSeedsFromAMemberWithData: a member that already holds records
// when the union mounts it — recovered or pre-loaded — seeds the union, which
// serves them with no further ingest.
func TestUnionSeedsFromAMemberWithData(t *testing.T) {
	log, _ := sharedLog(t)
	eu, err := core.LoadLog(bytes.NewReader(log), 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter()
	if err := rt.Add("eu", NewServer(eu)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Union("global", NewServer(core.NewLiveStudy()), "eu"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	requireSameServed(t, ts.URL+"/studies/global", serveLog(t, log), "the member's records")
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
			Source:   source,
			Upstream: coreTS.URL + "/studies/" + target,
			Interval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return NewServer(core.NewLiveStudy(), withFlushEvery(flushEvery), WithPusher(p)), p
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
		if _, err := srv.ingest(bytes.NewReader(part)); err != nil {
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
	if _, err := ref.ingest(bytes.NewReader(log)); err != nil {
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
		_, got := postQuery(t, coreTS.URL+"/studies/global/query", q)
		if _, want := postQuery(t, refTS.URL+"/query", q); !bytes.Equal(got, want) {
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

// TestEdgeRestartNoReship pins restart correctness for the edge cursor
// through the production start-up (Open): an edge recovering from its
// durable log must never lose or re-ship records, across three crash shapes
// — a crash with acked records and an unshipped tail, a crash that lost the
// final ack (duplicate re-push), and a kill mid-push where the core applied
// a delta the edge never heard about and more records arrived before the
// crash (409 → rebase from the log, which the restart therefore may not
// have truncated). Every crash leaves a torn final log line.
func TestEdgeRestartNoReship(t *testing.T) {
	log, _ := sharedLog(t)
	total := len(recordsOf(t, log))
	if total < 30 {
		t.Fatalf("shared log too small for the restart scenarios: %d records", total)
	}
	k1, k2 := total/3, 2*total/3
	torn := recordLines(t, log, 1, 2)
	torn = torn[:len(torn)/2]

	// edge is one scenario's handle on the edge node across its sessions.
	type edge struct {
		cfg Config
		*testNode
	}
	// check runs one crash/restart scenario against a core whose /merge
	// requests fail as plan says, then verifies the core holds the whole log
	// exactly once — and still does after one more, clean, restart, which
	// finds nothing unshipped and so restarts the log.
	check := func(t *testing.T, plan map[uint64]string, scenario func(t *testing.T, e *edge)) {
		coreSrv := NewServer(core.NewLiveStudy())
		defer coreSrv.Close()
		ts := httptest.NewServer(&faultGate{next: coreSrv.Handler(), plan: plan})
		defer ts.Close()
		dir := t.TempDir()
		e := &edge{cfg: Config{
			Out:         filepath.Join(dir, "conn.log"),
			SnapshotDir: filepath.Join(dir, "snaps"),
			Upstream:    ts.URL,
			PushSource:  "edge-restart",
		}}
		e.testNode = startNode(t, e.cfg)
		scenario(t, e)

		requireCore := func(when string) {
			t.Helper()
			if _, _, gen, err := coreSrv.Study().Counts(); err != nil || gen != uint64(total) {
				t.Fatalf("%s: core at generation %d (err %v), want %d (records lost or re-shipped)", when, gen, err, total)
			}
		}
		requireCore("after the restart scenario")
		requireSameServed(t, ts.URL, serveLog(t, log), "an offline LoadLog")
		e.testNode = startNode(t, e.cfg)
		if _, queued := e.narrated("queued for push"); queued {
			t.Fatal("a clean restart found records to re-ship")
		}
		e.shutdown(t)
		requireCore("after a further clean restart")
		if raw, err := os.ReadFile(e.cfg.Out); err != nil || string(raw) != notary.LogBaseDirective(uint64(total)) {
			t.Fatalf("fully shipped log after restart is %q (err %v), want just the #base directive", raw, err)
		}
	}
	// ingest feeds records (from, to] of the log to the edge.
	ingest := func(t *testing.T, e *edge, from, to int) {
		t.Helper()
		postTSV(t, e.http, recordLines(t, log, from, to))
	}
	requireCursor := func(t *testing.T, e *edge, want int) {
		t.Helper()
		got, err := federation.LoadShippedState(filepath.Join(e.cfg.SnapshotDir, "shipped.gen"))
		if err != nil || got != uint64(want) {
			t.Fatalf("persisted shipped cursor %d (err %v), want %d", got, err, want)
		}
	}
	// restart kills the edge and runs the production start-up again.
	restart := func(t *testing.T, e *edge) {
		t.Helper()
		e.crash(t, torn)
		e.testNode = startNode(t, e.cfg)
	}

	t.Run("clean-restart", func(t *testing.T) {
		check(t, nil, func(t *testing.T, e *edge) {
			// Session 1: the first k1 records ship, acked and persisted; the
			// rest are logged but never pushed.
			ingest(t, e, 0, k1)
			if err := e.def.pusher.Flush(); err != nil {
				t.Fatalf("session 1 flush: %v", err)
			}
			requireCursor(t, e, k1)
			ingest(t, e, k1, total)
			restart(t, e)
			// Session 2 replayed the unshipped tail out of the log; Close
			// ships it.
			if _, queued := e.narrated(fmt.Sprintf("%d recovered records past the shipped cursor (%d) queued", total-k1, k1)); !queued {
				t.Fatal("restart did not queue the unshipped log tail")
			}
			e.shutdown(t)
			requireCursor(t, e, total)
		})
	})

	t.Run("lost-ack-duplicate", func(t *testing.T) {
		// The core applies the first delta but its ack never arrives, so the
		// persisted cursor stays 0.
		check(t, map[uint64]string{1: "apply-kill"}, func(t *testing.T, e *edge) {
			ingest(t, e, 0, k1)
			if err := e.def.pusher.Flush(); err == nil {
				t.Fatal("session 1 flush succeeded despite the killed ack")
			}
			requireCursor(t, e, 0)
			restart(t, e)
			// Session 2 replays from the stale cursor; the re-push is a
			// duplicate the core acks without re-applying, then the rest
			// ships normally.
			if err := e.def.pusher.Flush(); err != nil {
				t.Fatalf("duplicate re-push: %v", err)
			}
			requireCursor(t, e, k1)
			ingest(t, e, k1, total)
			e.shutdown(t)
		})
	})

	t.Run("kill-mid-push-rebase", func(t *testing.T) {
		// Session 1: delta [0,k1) acked and persisted; delta [k1,k2) applied
		// upstream but the ack killed; records [k2,total) logged but never
		// pushed; crash with cursor k1 persisted and the upstream at k2.
		check(t, map[uint64]string{2: "apply-kill"}, func(t *testing.T, e *edge) {
			ingest(t, e, 0, k1)
			if err := e.def.pusher.Flush(); err != nil {
				t.Fatalf("session 1 first flush: %v", err)
			}
			ingest(t, e, k1, k2)
			if err := e.def.pusher.Flush(); err == nil {
				t.Fatal("session 1 second flush succeeded despite the killed ack")
			}
			requireCursor(t, e, k1)
			ingest(t, e, k2, total)
			restart(t, e)
			// Session 2: the tail replayed from the stale cursor overlaps what
			// the upstream already applied — the push conflicts and the rebase
			// replays the log past the upstream's cursor.
			e.shutdown(t)
			if _, rebased := e.narrated(fmt.Sprintf("rebased on upstream cursor %d:", k2)); !rebased {
				t.Fatalf("no rebase on the upstream's cursor %d", k2)
			}
		})
	})
}

// TestEdgeCursorPersistFailureShowsInHealthz: a shipped-through cursor that
// cannot be persisted — its directory is a regular file — costs no push:
// every push still acks and the cursor advances in memory, and the failed
// persists show in /healthz's federation edge block.
func TestEdgeCursorPersistFailureShowsInHealthz(t *testing.T) {
	log, _ := sharedLog(t)
	coreSrv := NewServer(core.NewLiveStudy())
	defer coreSrv.Close()
	coreTS := httptest.NewServer(coreSrv.Handler())
	defer coreTS.Close()
	notADir := filepath.Join(t.TempDir(), "snaps")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := federation.NewPusher(federation.PusherOptions{
		Source:    "edge-unpersisted",
		Upstream:  coreTS.URL,
		Interval:  time.Hour,
		StatePath: filepath.Join(notADir, "shipped.gen"),
	})
	if err != nil {
		t.Fatal(err)
	}
	edge := NewServer(core.NewLiveStudy(), WithPusher(p))
	defer edge.Close()
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	const half = 20
	for _, span := range [][2]int{{0, half}, {half, 2 * half}} {
		postTSV(t, edgeTS.URL, recordLines(t, log, span[0], span[1]))
		if err := p.Flush(); err != nil {
			t.Fatalf("push of records %v: %v", span, err)
		}
	}
	var health struct {
		Federation struct {
			Edge struct {
				ShippedThrough uint64 `json:"shipped_through"`
				DeltasShipped  uint64 `json:"deltas_shipped"`
				StateErrors    uint64 `json:"state_errors"`
			} `json:"edge"`
		} `json:"federation"`
	}
	if err := json.Unmarshal(mustGet(t, edgeTS.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if e := health.Federation.Edge; e.ShippedThrough != 2*half || e.DeltasShipped != 2 || e.StateErrors < 1 {
		t.Fatalf("edge block %+v: want shipped through %d in 2 deltas and at least 1 state error", e, 2*half)
	}
	if _, _, gen, err := coreSrv.Study().Counts(); err != nil || gen != 2*half {
		t.Fatalf("core at generation %d (err %v), want %d", gen, err, 2*half)
	}
}
