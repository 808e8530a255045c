package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/notary"
	"tlsage/internal/timeline"
)

// studyLog simulates a small study once and returns its TSV log plus the
// offline study built from it — the parity reference.
var (
	logOnce    sync.Once
	logBytes   []byte
	offlineRef *core.Study
)

func sharedLog(t *testing.T) ([]byte, *core.Study) {
	t.Helper()
	logOnce.Do(func() {
		var buf bytes.Buffer
		s := core.NewStudy(40)
		s.Options.End = timeline.M(2013, time.June)
		if err := s.Run(&buf); err != nil {
			panic(err)
		}
		logBytes = buf.Bytes()
		offline := &core.Study{}
		if err := offline.LoadLog(bytes.NewReader(logBytes)); err != nil {
			panic(err)
		}
		offlineRef = offline
	})
	return logBytes, offlineRef
}

// encodeLikeServer marshals v exactly the way the server's writeJSON does,
// so byte-level parity checks compare like with like.
func encodeLikeServer(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// figureJSON mirrors the wire shape of one served figure.
type figureJSON struct {
	ID     string `json:"id"`
	Series []struct {
		Name   string `json:"name"`
		Points []struct {
			Month string  `json:"month"`
			Value float64 `json:"value"`
		} `json:"points"`
	} `json:"series"`
}

// compareFigures checks served figures against offline ones value by value,
// tolerating only last-ulp float drift (see the call site).
func compareFigures(t *testing.T, served []figureJSON, offline []analysis.Figure) {
	t.Helper()
	if len(served) != len(offline) {
		t.Fatalf("%d served figures, offline has %d", len(served), len(offline))
	}
	for i, want := range offline {
		got := served[i]
		if got.ID != want.ID || len(got.Series) != len(want.Series) {
			t.Fatalf("figure %d: %s/%d series, want %s/%d", i, got.ID, len(got.Series), want.ID, len(want.Series))
		}
		for j, ws := range want.Series {
			gs := got.Series[j]
			if gs.Name != ws.Name || len(gs.Points) != len(ws.Points) {
				t.Fatalf("%s series %d: %s/%d points, want %s/%d", want.ID, j, gs.Name, len(gs.Points), ws.Name, len(ws.Points))
			}
			for k, wp := range ws.Points {
				gp := gs.Points[k]
				diff := gp.Value - wp.Value
				if diff < 0 {
					diff = -diff
				}
				if gp.Month != wp.Month.String() || diff > 1e-9 {
					t.Fatalf("%s %s @%s = %v, want %v", want.ID, ws.Name, wp.Month, gp.Value, wp.Value)
				}
			}
		}
	}
}

func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestWriteJSONEncodeFailure: a value that cannot be marshalled is answered
// 500 with a JSON error body — never the intended status over an empty body,
// which is what encoding straight into the ResponseWriter produced.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"value": math.NaN()})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not a JSON object: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "NaN") {
		t.Fatalf("unencodable value answered %d %v, want 500 naming the NaN", rec.Code, body)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusTeapot, map[string]int{"a": 1})
	if want := "{\n  \"a\": 1\n}\n"; rec.Code != http.StatusTeapot || rec.Body.String() != want {
		t.Fatalf("encodable value answered %d %q, want 418 %q", rec.Code, rec.Body.String(), want)
	}
}

// TestServeFeedScalarParity is the end-to-end acceptance check: a simulated
// log fed into a running server must answer /scalars byte-identically to the
// offline loadlog path, and /figures must match figure by figure.
func TestServeFeedScalarParity(t *testing.T) {
	log, offline := sharedLog(t)

	// An odd flush cadence sweeps shard boundaries across records.
	srv := NewServer(core.NewLiveStudy(), WithFlushEvery(97))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/ingest", "text/tab-separated-values", bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var fed struct {
		Records    int    `json:"records"`
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	wantRecords := offline.Aggregate().TotalRecords()
	if fed.Records != wantRecords {
		t.Fatalf("fed %d records, offline log has %d", fed.Records, wantRecords)
	}

	// Scalars: byte-identical to the offline study's report.
	offlineScalars, err := offline.Scalars()
	if err != nil {
		t.Fatal(err)
	}
	gotScalars := mustGet(t, ts.URL+"/scalars")
	if want := encodeLikeServer(t, offlineScalars); !bytes.Equal(gotScalars, want) {
		t.Errorf("served scalars diverge from offline loadlog:\ngot:  %s\nwant: %s", gotScalars, want)
	}

	// Figures: same parity via the bulk endpoint. Values are compared with a
	// last-ulp tolerance: Figure 5's relative-position series sums float64
	// accumulators whose merge order differs between the live shard cadence
	// and the offline parallel load. Every integer-counter series matches
	// exactly.
	offlineFrame, err := offline.Frame()
	if err != nil {
		t.Fatal(err)
	}
	offlineFigs := offlineFrame.Figures()
	var servedFigs []figureJSON
	if err := json.Unmarshal(mustGet(t, ts.URL+"/figures"), &servedFigs); err != nil {
		t.Fatal(err)
	}
	compareFigures(t, servedFigs, offlineFigs)

	// By-number and by-name lookups answer the same figure.
	byNum := mustGet(t, ts.URL+"/figure/1")
	byName := mustGet(t, ts.URL+"/figure/versions")
	if !bytes.Equal(byNum, byName) {
		t.Error("figure lookup by number and by name diverge")
	}

	// Health reflects the ingested state.
	var health struct {
		Status     string `json:"status"`
		Records    int    `json:"records"`
		Months     int    `json:"months"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(mustGet(t, ts.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Records != wantRecords || health.Months == 0 ||
		health.Generation != uint64(wantRecords) {
		t.Errorf("healthz = %+v, want %d records", health, wantRecords)
	}

	// The catalog endpoint serves every spec.
	var specs []struct {
		Name   string   `json:"name"`
		Series []string `json:"series"`
	}
	if err := json.Unmarshal(mustGet(t, ts.URL+"/metrics"), &specs); err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(analysis.Catalog()) {
		t.Errorf("metrics lists %d specs, catalog has %d", len(specs), len(analysis.Catalog()))
	}
}

// TestServeTCPIngestParity feeds the same log over the raw TCP path.
func TestServeTCPIngestParity(t *testing.T) {
	log, offline := sharedLog(t)
	srv := NewServer(core.NewLiveStudy(), WithFlushEvery(113))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeTCP(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(log); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	want := offline.Aggregate().TotalRecords()
	if got := strings.TrimSpace(string(reply)); got != fmt.Sprintf("ok %d %d", want, want) {
		t.Fatalf("tcp reply = %q, want ok %d %d", got, want, want)
	}
	records, _, gen, err := srv.Study().Counts()
	if err != nil || records != want || gen != uint64(want) {
		t.Errorf("after tcp ingest: %d records gen %d (err %v), want %d", records, gen, err, want)
	}
	// Scalars parity holds over the TCP path too.
	served, err := srv.Study().Scalars()
	if err != nil {
		t.Fatal(err)
	}
	offlineScalars, err := offline.Scalars()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeLikeServer(t, served), encodeLikeServer(t, offlineScalars)) {
		t.Error("tcp-fed scalars diverge from offline loadlog")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
}

// TestIngestBadLineKeepsPrefix pins the at-least-what-we-saw semantics: a
// malformed line fails the request with a line-tagged error, but everything
// before it stays applied — a live collector keeps what it has seen.
func TestIngestBadLineKeepsPrefix(t *testing.T) {
	srv := NewServer(core.NewLiveStudy(), WithFlushEvery(1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	log, _ := sharedLog(t)
	lines := bytes.SplitAfter(log, []byte{'\n'})
	var stream bytes.Buffer
	good := 0
	for _, l := range lines {
		if good == 10 {
			stream.WriteString("this is not a record\n")
			break
		}
		stream.Write(l)
		if len(l) > 0 && l[0] != '#' && !bytes.Equal(bytes.TrimSpace(l), nil) {
			good++
		}
	}
	resp, err := http.Post(ts.URL+"/ingest", "text/tab-separated-values", &stream)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var reply struct {
		Error   string `json:"error"`
		Records int    `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply.Error, "line") {
		t.Errorf("error %q lacks the line tag", reply.Error)
	}
	records, _, _, err := srv.Study().Counts()
	if err != nil {
		t.Fatal(err)
	}
	if records != 10 || reply.Records != 10 {
		t.Errorf("prefix kept %d records (reply %d), want 10", records, reply.Records)
	}
}

// TestIngestRefusesOutOfRangeDate: a line whose year no snapshot could carry
// is a malformed field like any other — 400 over HTTP, an "error:" line over
// TCP, the stream stopping there — instead of being acknowledged and then
// poisoning every snapshot and delta the study writes.
func TestIngestRefusesOutOfRangeDate(t *testing.T) {
	log, _ := sharedLog(t)
	lines := bytes.SplitAfter(log, []byte{'\n'})
	var good []byte
	for _, l := range lines {
		if len(l) > 0 && l[0] != '#' {
			good = l
			break
		}
	}
	hostile := append([]byte("9223372036854775807-05-10"), good[bytes.IndexByte(good, '\t'):]...)
	stream := func() []byte { return bytes.Join([][]byte{good, hostile, good}, nil) }

	srv := NewServer(core.NewLiveStudy(), WithFlushEvery(1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/ingest", "text/tab-separated-values", bytes.NewReader(stream()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("line 2")) {
		t.Fatalf("HTTP: status %d body %s, want 400 naming line 2", resp.StatusCode, body)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ServeTCP(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(stream()); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	conn.Close()
	if err != nil || !strings.HasPrefix(string(reply), "error:") || !strings.Contains(string(reply), "line 2") {
		t.Fatalf("TCP: reply %q (err %v), want an error: line naming line 2", reply, err)
	}

	// Each stream kept its first line and nothing after the bad one, and the
	// study still snapshots and recovers.
	if records, _, _, err := srv.Study().Counts(); err != nil || records != 2 {
		t.Fatalf("%d records (err %v), want the 2 good prefixes", records, err)
	}
	var snap bytes.Buffer
	if _, err := srv.Study().WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := notary.ReadSnapshot(&snap); err != nil {
		t.Fatalf("the study's own snapshot does not decode: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
}

// TestServiceConcurrentIngestAndQuery hammers /ingest from several streams
// while readers poll /healthz and /figures — run under -race. Generations
// must be monotonic per reader and the final count must equal the total fed.
func TestServiceConcurrentIngestAndQuery(t *testing.T) {
	log, offline := sharedLog(t)
	srv := NewServer(core.NewLiveStudy(), WithFlushEvery(53))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Split the log body into per-producer line-aligned slices.
	const producers = 4
	lines := bytes.SplitAfter(log, []byte{'\n'})
	chunks := make([][]byte, producers)
	for i, l := range lines {
		if len(l) == 0 || l[0] == '#' {
			continue
		}
		chunks[i%producers] = append(chunks[i%producers], l...)
	}

	var wg sync.WaitGroup
	for _, chunk := range chunks {
		wg.Add(1)
		go func(chunk []byte) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/ingest", "text/tab-separated-values", bytes.NewReader(chunk))
			if err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ingest status %d", resp.StatusCode)
			}
		}(chunk)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var health struct {
					Generation uint64 `json:"generation"`
					Records    int    `json:"records"`
				}
				if err := json.Unmarshal(mustGet(t, ts.URL+"/healthz"), &health); err != nil {
					t.Errorf("healthz: %v", err)
					return
				}
				if health.Generation < lastGen {
					t.Errorf("generation went backwards: %d after %d", health.Generation, lastGen)
					return
				}
				lastGen = health.Generation
				var figs []json.RawMessage
				if err := json.Unmarshal(mustGet(t, ts.URL+"/figures"), &figs); err != nil {
					t.Errorf("figures: %v", err)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	want := offline.Aggregate().TotalRecords()
	records, _, gen, err := srv.Study().Counts()
	if err != nil || records != want || gen != uint64(want) {
		t.Fatalf("final: %d records gen %d (err %v), want %d", records, gen, err, want)
	}
	// Interleaved sharded ingestion still lands on the exact offline result.
	served, err := srv.Study().Scalars()
	if err != nil {
		t.Fatal(err)
	}
	offlineScalars, err := offline.Scalars()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeLikeServer(t, served), encodeLikeServer(t, offlineScalars)) {
		t.Error("concurrently-fed scalars diverge from offline loadlog")
	}
}

// TestFigureNotFound pins the 404 path.
func TestFigureNotFound(t *testing.T) {
	srv := NewServer(core.NewLiveStudy())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/figure/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

// TestLogSinkTee verifies the durable tee: everything ingested lands in the
// teed log writer, replayable into an identical study.
func TestLogSinkTee(t *testing.T) {
	log, offline := sharedLog(t)
	var teed bytes.Buffer
	srv := NewServer(core.NewLiveStudy(), WithLogSink(notary.NewLogWriter(&teed)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/ingest", "text/tab-separated-values", bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var replay core.Study
	if err := replay.LoadLog(&teed); err != nil {
		t.Fatal(err)
	}
	if got, want := replay.Aggregate().TotalRecords(), offline.Aggregate().TotalRecords(); got != want {
		t.Errorf("teed log replays %d records, want %d", got, want)
	}
}

// TestCloseDrainsInFlightTCPStream pins the shutdown ordering: Close must
// wait for in-flight TCP ingest handlers before it drains the merge queue,
// so every record that reached the aggregate is also in the log.
func TestCloseDrainsInFlightTCPStream(t *testing.T) {
	log, offline := sharedLog(t)
	var teed bytes.Buffer
	srv := NewServer(core.NewLiveStudy(),
		WithFlushEvery(37), WithLogSink(notary.NewLogWriter(&teed)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeTCP(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Send the first half, then Close the server mid-stream.
	half := len(log) / 2
	if _, err := conn.Write(log[:half]); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(20 * time.Millisecond) // let Close reach the handler drain
	if _, err := conn.Write(log[half:]); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if !strings.HasPrefix(string(reply), "ok ") {
		t.Fatalf("tcp reply = %q", reply)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}

	want := offline.Aggregate().TotalRecords()
	records, _, _, err := srv.Study().Counts()
	if err != nil || records != want {
		t.Fatalf("aggregate has %d records (err %v), want %d", records, err, want)
	}
	var replay core.Study
	if err := replay.LoadLog(&teed); err != nil {
		t.Fatal(err)
	}
	if got := replay.Aggregate().TotalRecords(); got != want {
		t.Errorf("drained tee holds %d records, want %d — Close flushed before the stream finished", got, want)
	}
}

// TestQueryCacheEndToEnd pins the served cache behavior: X-Cache flips
// miss→hit with byte-identical bodies, cached and uncached servers answer
// identically, ingestion invalidates by generation, and /healthz reports
// the cache gauges only when a cache is attached.
func TestQueryCacheEndToEnd(t *testing.T) {
	log, _ := sharedLog(t)

	cache := analysis.NewQueryCache(128, 1<<20)
	cached := NewServer(core.NewLiveStudy(), WithQueryCache(cache, "notary"))
	tsCached := httptest.NewServer(cached.Handler())
	defer tsCached.Close()
	plain := NewServer(core.NewLiveStudy())
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()

	ingest := func(ts *httptest.Server) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", "text/tab-separated-values", bytes.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	ingest(tsCached)
	ingest(tsPlain)

	const reqBody = `{"query": "pct(version:tls12 / established)"}`
	postQueryBody := func(ts *httptest.Server, reqBody string) (http.Header, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d: %s", resp.StatusCode, body)
		}
		return resp.Header, body
	}
	postQuery := func(ts *httptest.Server) (http.Header, []byte) {
		t.Helper()
		return postQueryBody(ts, reqBody)
	}

	h1, body1 := postQuery(tsCached)
	if h1.Get("X-Cache") != "miss" || h1.Get("X-Generation") == "" {
		t.Fatalf("first query: X-Cache=%q X-Generation=%q, want a stamped miss",
			h1.Get("X-Cache"), h1.Get("X-Generation"))
	}
	h2, body2 := postQuery(tsCached)
	if h2.Get("X-Cache") != "hit" {
		t.Fatalf("repeat query: X-Cache=%q, want hit", h2.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit body differs from the computed body")
	}
	if h2.Get("X-Generation") != h1.Get("X-Generation") {
		t.Error("cache hit stamped a different generation")
	}

	// An uncached server answers byte-identically (and is always a miss).
	hp, bodyPlain := postQuery(tsPlain)
	if hp.Get("X-Cache") != "miss" {
		t.Errorf("uncached server: X-Cache=%q, want miss", hp.Get("X-Cache"))
	}
	if !bytes.Equal(bodyPlain, body1) {
		t.Error("cached and uncached servers serve different bodies")
	}
	// /query has one encoder whatever serves the body: over the whole query
	// sweep, series and scalars alike, the uncached server — a miss every
	// time — writes the bytes the cached server computes and then replays.
	for _, q := range paritySweep {
		req := `{"query": "` + q + `"}`
		_, want := postQueryBody(tsCached, req)
		if hc, replayed := postQueryBody(tsCached, req); hc.Get("X-Cache") != "hit" || !bytes.Equal(replayed, want) {
			t.Errorf("%s: cached server's repeat: X-Cache=%q, same bytes: %v", q, hc.Get("X-Cache"), bytes.Equal(replayed, want))
		}
		for i := 0; i < 2; i++ {
			hp, got := postQueryBody(tsPlain, req)
			if hp.Get("X-Cache") != "miss" {
				t.Errorf("%s: uncached server: X-Cache=%q, want miss", q, hp.Get("X-Cache"))
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: uncached server serves different bytes:\n%s\n---\n%s", q, got, want)
			}
		}
	}

	// Further ingestion advances the generation: the next query misses and
	// stamps the new generation.
	ingest(tsCached)
	h3, _ := postQuery(tsCached)
	if h3.Get("X-Cache") != "miss" {
		t.Errorf("post-ingest query: X-Cache=%q, want miss", h3.Get("X-Cache"))
	}
	if h3.Get("X-Generation") == h1.Get("X-Generation") {
		t.Error("post-ingest query stamped the stale generation")
	}

	// /healthz reports the gauges on the cached server only.
	var health struct {
		QueryCache *analysis.QueryCacheStats `json:"query_cache"`
	}
	if err := json.Unmarshal(mustGet(t, tsCached.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.QueryCache == nil {
		t.Fatal("healthz lacks query_cache gauges on a cached server")
	}
	if health.QueryCache.Hits < 1 || health.QueryCache.Misses < 2 || health.QueryCache.Entries < 1 {
		t.Errorf("query_cache gauges = %+v", *health.QueryCache)
	}
	health.QueryCache = nil
	if err := json.Unmarshal(mustGet(t, tsPlain.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.QueryCache != nil {
		t.Error("healthz reports query_cache gauges without a cache")
	}

	// A study with no aggregate still maps to 503 through the cached path.
	empty := NewServer(&core.Study{}, WithQueryCache(cache, "empty"))
	tsEmpty := httptest.NewServer(empty.Handler())
	defer tsEmpty.Close()
	resp, err := http.Post(tsEmpty.URL+"/query", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unrun study query status %d, want 503", resp.StatusCode)
	}
}

// TestQueryAttributionFamiliesServed runs the fp:/agent: column families end
// to end through the served query path: a live study ingests the shared TSV
// log (classifying each record at ingest), and every attribution query must
// answer byte-identically to the offline reference study built from the same
// log — on the first (miss) response AND the repeated (cache hit) response.
func TestQueryAttributionFamiliesServed(t *testing.T) {
	log, offline := sharedLog(t)

	cache := analysis.NewQueryCache(128, 1<<20)
	srv := NewServer(core.NewLiveStudy(), WithQueryCache(cache, "attrib"))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/ingest", "text/tab-separated-values", bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	queries := []string{
		"pct(agent:libraries / fp-conns)",
		"over(agent:* / fp-conns)",
		"count(fp:other)",
		"pct(fp:* / established)",
	}
	for _, src := range queries {
		want, err := offline.Query(src)
		if err != nil {
			t.Fatalf("%s offline: %v", src, err)
		}
		wantBody := encodeLikeServer(t, want)

		post := func() (http.Header, []byte) {
			t.Helper()
			body, _ := json.Marshal(map[string]string{"query": src})
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", src, resp.StatusCode, raw)
			}
			return resp.Header, raw
		}
		h1, body1 := post()
		if h1.Get("X-Cache") != "miss" {
			t.Fatalf("%s: first query X-Cache=%q, want miss", src, h1.Get("X-Cache"))
		}
		if !bytes.Equal(body1, wantBody) {
			t.Errorf("%s: served body diverges from the offline study.\nserved:  %s\noffline: %s",
				src, body1, wantBody)
		}
		h2, body2 := post()
		if h2.Get("X-Cache") != "hit" {
			t.Fatalf("%s: repeat query X-Cache=%q, want hit", src, h2.Get("X-Cache"))
		}
		if !bytes.Equal(body2, body1) {
			t.Errorf("%s: cache hit body differs from the miss body", src)
		}
	}
}
