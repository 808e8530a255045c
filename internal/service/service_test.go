package service

import (
	"bytes"
	"encoding/json"
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
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// sharedLog simulates a small study once and returns its records as a TSV
// log plus the offline study built from it — the parity reference.
var (
	logOnce    sync.Once
	logBytes   []byte
	offlineRef *core.Study
)

func sharedLog(t *testing.T) ([]byte, *core.Study) {
	t.Helper()
	logOnce.Do(func() {
		var buf bytes.Buffer
		opts := simulate.DefaultOptions(40)
		opts.End = timeline.M(2013, time.June)
		w := notary.NewLogWriter(&buf)
		err := simulate.New(opts).Run(w)
		if err == nil {
			err = w.Close()
		}
		if err != nil {
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

// ingestReply is what a POST /ingest answered: its status and header, and the
// records, generation and error of its JSON body.
type ingestReply struct {
	status     int
	header     http.Header
	Records    int    `json:"records"`
	Generation uint64 `json:"generation"`
	Error      string `json:"error"`
}

// postIngest POSTs a stream to url's /ingest and delivers the reply on the
// returned channel, so a test can hold the merge loop while the stream waits
// for it; a plain POST receives at once. A failed request is status 0 with
// the error. It stops no test, so goroutines call it too.
func postIngest(url, contentType string, body io.Reader) <-chan ingestReply {
	out := make(chan ingestReply, 1)
	go func() {
		resp, err := http.Post(url+"/ingest", contentType, body)
		if err != nil {
			out <- ingestReply{Error: err.Error()}
			return
		}
		defer resp.Body.Close()
		r := ingestReply{status: resp.StatusCode, header: resp.Header}
		_ = json.NewDecoder(resp.Body).Decode(&r)
		out <- r
	}()
	return out
}

// postTSV is postIngest of a TSV stream that must be answered 200.
func postTSV(t testing.TB, url string, body []byte) ingestReply {
	t.Helper()
	r := <-postIngest(url, ContentTypeTSV, bytes.NewReader(body))
	if r.status != http.StatusOK {
		t.Fatalf("POST %s/ingest: %d: %s", url, r.status, r.Error)
	}
	return r
}

// postQuery POSTs one expression to a /query endpoint and returns the
// reply's header and body, which must be a 200.
func postQuery(t testing.TB, url, expr string) (http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(map[string]string{"query": expr})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %q: %d %v: %s", url, expr, resp.StatusCode, err, raw)
	}
	return resp.Header, raw
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
	// Everything ingested lands in the teed log writer, and replays.
	t.Run("log-sink-tee", func(t *testing.T) {
		var replay core.Study
		if err := replay.LoadLog(&teed); err != nil {
			t.Fatal(err)
		}
		if got := replay.Aggregate().TotalRecords(); got != want {
			t.Errorf("drained tee holds %d records, want %d — Close flushed before the stream finished", got, want)
		}
	})
}

// TestQueryCacheEndToEnd pins the served cache behavior: X-Cache flips
// miss→hit with byte-identical bodies, cached and uncached servers answer
// identically, ingestion invalidates by generation, and /healthz reports
// the cache gauges only when a cache is attached.
func TestQueryCacheEndToEnd(t *testing.T) {
	log, offline := sharedLog(t)

	cache := analysis.NewQueryCache(128, 1<<20)
	cached := NewServer(core.NewLiveStudy(), WithQueryCache(cache, "notary"))
	tsCached := httptest.NewServer(cached.Handler())
	defer tsCached.Close()
	plain := NewServer(core.NewLiveStudy())
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	postTSV(t, tsCached.URL, log)
	postTSV(t, tsPlain.URL, log)

	const q = "pct(version:tls12 / established)"
	h1, body1 := postQuery(t, tsCached.URL+"/query", q)
	if h1.Get("X-Cache") != "miss" || h1.Get("X-Generation") == "" {
		t.Fatalf("first query: X-Cache=%q X-Generation=%q, want a stamped miss",
			h1.Get("X-Cache"), h1.Get("X-Generation"))
	}
	h2, body2 := postQuery(t, tsCached.URL+"/query", q)
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
	hp, bodyPlain := postQuery(t, tsPlain.URL+"/query", q)
	if hp.Get("X-Cache") != "miss" {
		t.Errorf("uncached server: X-Cache=%q, want miss", hp.Get("X-Cache"))
	}
	if !bytes.Equal(bodyPlain, body1) {
		t.Error("cached and uncached servers serve different bodies")
	}
	// /query has one encoder whatever serves the body: over the whole query
	// sweep, series and scalars alike, the uncached server — a miss every
	// time — writes the bytes the cached server computes and then replays.
	computed := map[string][]byte{}
	for _, q := range paritySweep {
		_, want := postQuery(t, tsCached.URL+"/query", q)
		computed[q] = want
		if hc, replayed := postQuery(t, tsCached.URL+"/query", q); hc.Get("X-Cache") != "hit" || !bytes.Equal(replayed, want) {
			t.Errorf("%s: cached server's repeat: X-Cache=%q, same bytes: %v", q, hc.Get("X-Cache"), bytes.Equal(replayed, want))
		}
		for i := 0; i < 2; i++ {
			hp, got := postQuery(t, tsPlain.URL+"/query", q)
			if hp.Get("X-Cache") != "miss" {
				t.Errorf("%s: uncached server: X-Cache=%q, want miss", q, hp.Get("X-Cache"))
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: uncached server serves different bytes:\n%s\n---\n%s", q, got, want)
			}
		}
	}
	// The fp:/agent: families, classified at ingest, answer like the offline
	// study built from the same log, on the miss and so on the hit.
	t.Run("attribution-families-served", func(t *testing.T) {
		for q, body := range computed {
			if !strings.Contains(q, "fp") {
				continue
			}
			want, err := offline.Query(q)
			if err != nil {
				t.Fatalf("%s offline: %v", q, err)
			}
			if wantBody := encodeLikeServer(t, want); !bytes.Equal(body, wantBody) {
				t.Errorf("%s: served body diverges from the offline study.\nserved:  %s\noffline: %s", q, body, wantBody)
			}
		}
	})

	// Further ingestion advances the generation: the next query misses and
	// stamps the new generation.
	postTSV(t, tsCached.URL, log)
	h3, _ := postQuery(t, tsCached.URL+"/query", q)
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
	resp, err := http.Post(tsEmpty.URL+"/query", "application/json", strings.NewReader(`{"query": "`+q+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unrun study query status %d, want 503", resp.StatusCode)
	}
}
