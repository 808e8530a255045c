package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
)

// decodeQueryRequest is the reference readQuery is held to: encoding/json's
// decoder over the first MiB of the body.
func decodeQueryRequest(body io.Reader) (string, error) {
	var req queryRequest
	err := json.NewDecoder(io.LimitReader(body, 1<<20)).Decode(&req)
	return req.Query, err
}

// FuzzQueryRequest holds readQuery to the decoder it stands in for: whatever
// the body, and whether it arrives whole, cut by a read error or a byte at a
// time, readQuery gives the text, or the refusal, that decodeQueryRequest
// gives. A body the one-scan path takes is one the decoder reads as its
// bytes. Bodies at and past the 1 MiB cap are checked before fuzzing rather
// than seeded, so the mutator does not spend its time on a 1 MiB input.
func FuzzQueryRequest(f *testing.F) {
	cut := errors.New("connection reset")
	check := func(t testing.TB, body []byte) {
		for _, r := range []struct {
			name string
			body func() io.Reader
		}{
			{"whole", func() io.Reader { return bytes.NewReader(body) }},
			{"cut", func() io.Reader { return io.MultiReader(bytes.NewReader(body), iotest.ErrReader(cut)) }},
			{"byte at a time", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) }},
		} {
			want, wantErr := decodeQueryRequest(r.body())
			got, err := readQuery(r.body())
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && got != want {
				t.Fatalf("%s %.200q: readQuery = %.200q, %v; the decoder gives %.200q, %v", r.name, body, got, err, want, wantErr)
			}
		}
		if text, ok := plainQuery(body); ok {
			var req queryRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil || string(text) != req.Query {
				t.Fatalf("%.200q: the scan took %.200q, the decoder gives %.200q, %v", body, text, req.Query, err)
			}
		}
	}
	fill := strings.Repeat("a", 1<<20-len(`{"query":""}`))
	for _, body := range []string{
		`{"query":"` + fill + `"}`,        // exactly the cap
		`{"query":"` + fill + `"}` + "\n", // the cap, then a byte past it
		`{"query":"` + fill + `a"}`,       // the text runs past the cap
	} {
		check(f, []byte(body))
	}
	for _, seed := range []string{
		`{"query":"pct(sum(kex:ecdhe, kex:tls13) / established)"}`, // the bench client's spelling
		`{"query": "pct(version:tls12 / established)"}`,            // README's
		`{"query":"A"}`,
		`{"query":"\""}`,
		`{"query":"a\tb"}`,
		"{\"query\":\"a\tb\"}",
		`{"query":"é"}`,
		"{\"query\":\"\xff\"}",
		`{"Query":"count(total)"}`,
		`{"query":"count(total)","query":"count(established)"}`,
		`{"query":null,"note":"count(total)"}`,
		`{"query":"count(total)"} trailing`,
		` {"query":"count(total)"}`,
		`{"query":"count(total)"`,
		`{}`,
		`{"query":""}`,
		`{"query": ""}`,
		`{"query":"}`,
		`null`,
		`7`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) { check(t, body) })
}

// newQueryServer is a server with a result cache over sharedLog's study.
func newQueryServer(t *testing.T) *Server {
	t.Helper()
	log, _ := sharedLog(t)
	srv := NewServer(core.NewLiveStudy(), WithQueryCache(analysis.NewQueryCache(128, 1<<20), "notary"))
	t.Cleanup(func() { srv.Close() })
	if _, err := srv.ingest(bytes.NewReader(log)); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestQueryHitHandlerAllocs pins what handleQuery allocates for a cache hit
// in the bench client's spelling: the query text, and the X-Generation and
// Content-Length values with their slices. Reading the body through
// json.NewDecoder and setting every header with Header().Set took 13.
func TestQueryHitHandlerAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	srv := newQueryServer(t)
	payload := []byte(`{"query":"pct(sum(kex:ecdhe, kex:tls13) / established)"}`)
	body := bytes.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, "/query", body)
	rec := httptest.NewRecorder()
	serve := func() {
		body.Reset(payload)
		rec.Body.Reset()
		srv.handleQuery(rec, req)
	}
	serve() // the miss that fills the cache
	want := bytes.Clone(rec.Body.Bytes())
	serve()
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("repeat query: %d, X-Cache %q, body %s; want a hit on %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes(), want)
	}
	// A collection, or a move to another P, would empty the body pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const bound = 5
	if n := testing.AllocsPerRun(100, serve); n > bound {
		t.Errorf("a /query hit allocates %v times in handleQuery, want at most %d", n, bound)
	}
}

// TestReplyFraming: over a real server, a /query hit and miss, a 400 for a
// bad body and for a bad query, /scalars, /figures and /healthz each carry a
// Content-Length equal to the body's length and no chunked transfer coding,
// and each body is the one served before Content-Length was set (its sha256
// is pinned).
func TestReplyFraming(t *testing.T) {
	ts := httptest.NewServer(newQueryServer(t).Handler())
	defer ts.Close()
	const q = `{"query":"pct(sum(kex:ecdhe, kex:tls13) / established)"}`
	for _, c := range []struct {
		name, method, path, body string
		status                   int
		cache, sha256            string
	}{
		{"miss", http.MethodPost, "/query", q, http.StatusOK, "miss", "049d8568ef0f2875f6b2ea971c778fe6ee7309340c84be146ae3720a2d33d22d"},
		{"hit", http.MethodPost, "/query", q, http.StatusOK, "hit", "049d8568ef0f2875f6b2ea971c778fe6ee7309340c84be146ae3720a2d33d22d"},
		{"bad body", http.MethodPost, "/query", `{"query": "count(total)"`, http.StatusBadRequest, "", "6c14002110f72c2d2bf361fa2dedfd78ef0bdf39fb8975f67eb25018f3a2983e"},
		{"bad query", http.MethodPost, "/query", `{"query":"pct(no-such-col / total)"}`, http.StatusBadRequest, "", "c57c3e50db4552e17344b24862f98594f1c611d1aab7c261a938ec6c98ddcc92"},
		{"scalars", http.MethodGet, "/scalars", "", http.StatusOK, "", "0f3b58e0bf66ae22529709bafc0074b3d26aacd2adf88ca73933d1935c788b69"},
		{"figures", http.MethodGet, "/figures", "", http.StatusOK, "", "a626223c1588e2830e03ccc2278555b292676e78d5f6062f079e3e622b08c770"},
		{"healthz", http.MethodGet, "/healthz", "", http.StatusOK, "", "109c6e3b9c5c643e28d8e534bdfc96983d191482956a97a9b047112ccbac7e7f"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(got)
		if resp.StatusCode != c.status || resp.Header.Get("X-Cache") != c.cache {
			t.Errorf("%s: %d, X-Cache %q; want %d, %q", c.name, resp.StatusCode, resp.Header.Get("X-Cache"), c.status, c.cache)
		}
		if resp.Header.Get("Content-Length") == "" || resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %q (%d), Transfer-Encoding %q; want the body's %d B, unchunked",
				c.name, resp.Header.Get("Content-Length"), resp.ContentLength, resp.TransferEncoding, len(got))
		}
		if hex.EncodeToString(sum[:]) != c.sha256 {
			t.Errorf("%s: the %d B body has sha256 %x, want %s", c.name, len(got), sum, c.sha256)
		}
	}
}
