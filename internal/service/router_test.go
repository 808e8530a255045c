package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
)

// queryResult is postQuery's reply, decoded.
func queryResult(t *testing.T, url, expr string) (analysis.QueryResult, http.Header) {
	t.Helper()
	header, raw := postQuery(t, url, expr)
	var res analysis.QueryResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decoding query result: %v\n%s", err, raw)
	}
	return res, header
}

// TestRouterTwoStudyQueryParity is the e2e acceptance check for the query
// surface: on a two-study router, POST /studies/{id}/query returns exactly
// the series computed by offline evaluation of the same expression against
// each study's own data — and the legacy root routes keep answering for the
// default study.
func TestRouterTwoStudyQueryParity(t *testing.T) {
	log, offline := sharedLog(t)

	rt := NewRouter()
	alpha := NewServer(core.NewLiveStudy(), WithFlushEvery(61))
	beta := NewServer(core.NewLiveStudy(), WithFlushEvery(89))
	if err := rt.Add("alpha", alpha); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add("beta", beta); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Feed the whole log to alpha and only the first half of its lines to
	// beta, so the two vantage points hold genuinely different aggregates.
	lines := bytes.SplitAfter(log, []byte{'\n'})
	var betaLog bytes.Buffer
	for i, l := range lines {
		if i%2 == 0 {
			betaLog.Write(l)
		}
	}
	for _, feed := range []struct {
		path string
		body []byte
	}{
		{"/studies/alpha", log},
		{"/studies/beta", betaLog.Bytes()},
	} {
		postTSV(t, ts.URL+feed.path, feed.body)
	}

	// Offline references: the same records through the offline path.
	betaOffline := &core.Study{}
	if err := betaOffline.LoadLog(bytes.NewReader(betaLog.Bytes())); err != nil {
		t.Fatal(err)
	}

	const expr = "pct(sum(kex:ecdhe, kex:tls13) / established)"
	for _, c := range []struct {
		id      string
		offline *core.Study
	}{
		{"alpha", offline},
		{"beta", betaOffline},
	} {
		want, err := c.offline.Query(expr)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := queryResult(t, ts.URL+"/studies/"+c.id+"/query", expr)
		if got.Kind != "series" || got.Query != want.Query {
			t.Fatalf("%s: result header %q/%q, want %q/series", c.id, got.Query, got.Kind, want.Query)
		}
		if !reflect.DeepEqual(got.Series.Points, want.Series.Points) {
			t.Errorf("%s: served query diverges from offline evaluation", c.id)
		}
	}

	// The two studies really answer differently (different record sets).
	a, _ := queryResult(t, ts.URL+"/studies/alpha/query", "count(total)")
	bq, _ := queryResult(t, ts.URL+"/studies/beta/query", "count(total)")
	if a.Value == bq.Value {
		t.Errorf("alpha and beta report the same record count %v", a.Value)
	}
	if want := float64(offline.Aggregate().TotalRecords()); a.Value != want {
		t.Errorf("alpha count(total) = %v, want %v", a.Value, want)
	}

	// Legacy root routes alias the default (first-added) study.
	rootRes, _ := queryResult(t, ts.URL+"/query", "count(total)")
	if rootRes.Value != a.Value {
		t.Errorf("root /query answered %v, default study holds %v", rootRes.Value, a.Value)
	}
	rootFig := mustGet(t, ts.URL+"/figure/versions")
	aliasFig := mustGet(t, ts.URL+"/studies/alpha/figure/versions")
	if !bytes.Equal(rootFig, aliasFig) {
		t.Error("root /figure/versions diverges from /studies/alpha/figure/versions")
	}

	// The listing reports both studies with live counts.
	var listing []struct {
		ID      string `json:"id"`
		Default bool   `json:"default"`
		Records int    `json:"records"`
	}
	if err := json.Unmarshal(mustGet(t, ts.URL+"/studies"), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != 2 || listing[0].ID != "alpha" || !listing[0].Default ||
		listing[1].ID != "beta" || listing[1].Default {
		t.Fatalf("listing = %+v", listing)
	}
	if listing[0].Records != offline.Aggregate().TotalRecords() ||
		listing[1].Records != betaOffline.Aggregate().TotalRecords() {
		t.Errorf("listing counts = %+v", listing)
	}

	// A wrong-method hit on an existing study root gets a 405 pointing at
	// the nested API — not a bogus "no study" 404.
	resp405, err := http.Post(ts.URL+"/studies/alpha", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp405.Body)
	resp405.Body.Close()
	if resp405.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /studies/alpha: status %d, want 405", resp405.StatusCode)
	}

	// Unknown study ids 404 with the valid ids in the body.
	resp, err := http.Get(ts.URL + "/studies/gamma/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var miss struct {
		Error string   `json:"error"`
		Valid []string `json:"valid"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&miss); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || len(miss.Valid) != 2 {
		t.Errorf("unknown study: status %d, body %+v", resp.StatusCode, miss)
	}
}

// TestQueryEndpointShapes pins the query endpoint's scalar results, Expr
// JSON bodies and error paths on a single server.
func TestQueryEndpointShapes(t *testing.T) {
	log, offline := sharedLog(t)
	srv := NewServer(core.NewLiveStudy())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postTSV(t, ts.URL, log)

	// Scalar via the text grammar.
	res, header := queryResult(t, ts.URL+"/query", "count(total)")
	if want := float64(offline.Aggregate().TotalRecords()); res.Kind != "scalar" || res.Value != want {
		t.Errorf("count(total) = %+v, want scalar %v", res, want)
	}
	wantGen := strconv.Itoa(offline.Aggregate().TotalRecords())
	if got := header.Get("X-Generation"); got != wantGen {
		t.Errorf("X-Generation = %q, want %q", got, wantGen)
	}

	// The same expression as an Expr JSON body evaluates identically.
	expr, err := analysis.ParseQuery("count(total)")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"expr": expr})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var exprRes analysis.QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&exprRes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if exprRes.Value != res.Value {
		t.Errorf("expr body answered %v, text body %v", exprRes.Value, res.Value)
	}

	// Malformed expressions are a 400 with the parse error.
	bad, err := json.Marshal(map[string]string{"query": "pct(no-such-col / total)"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status %d, want 400", resp.StatusCode)
	}
}

// TestGenerationHeaderAndFigureMiss pins the two polish satellites: every
// JSON endpoint stamps X-Generation, and a figure-name miss is a 404 whose
// body lists the valid catalog names. A figure is found by number and by
// name, in any case, and /metrics lists the whole catalog.
func TestGenerationHeaderAndFigureMiss(t *testing.T) {
	log, offline := sharedLog(t)
	srv := NewServer(core.NewLiveStudy())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if got := postTSV(t, ts.URL, log).header.Get("X-Generation"); got == "" || got == "0" {
		t.Errorf("ingest X-Generation = %q", got)
	}

	wantGen := strconv.Itoa(offline.Aggregate().TotalRecords())
	for _, path := range []string{"/figures", "/figure/versions", "/scalars", "/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Generation"); got != wantGen {
			t.Errorf("%s: X-Generation = %q, want %q", path, got, wantGen)
		}
	}

	versions := mustGet(t, ts.URL+"/figure/versions")
	if !bytes.Equal(mustGet(t, ts.URL+"/figure/VERSIONS"), versions) || !bytes.Equal(mustGet(t, ts.URL+"/figure/1"), versions) {
		t.Error("figure lookup by number, by name and by upper-case name diverge")
	}
	var specs []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(mustGet(t, ts.URL+"/metrics"), &specs); err != nil || len(specs) != len(analysis.Catalog()) {
		t.Errorf("metrics lists %d specs (err %v), catalog has %d", len(specs), err, len(analysis.Catalog()))
	}

	// Miss: 404 + valid-name list.
	t.Run("figure-not-found", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/figure/nope")
		if err != nil {
			t.Fatal(err)
		}
		var miss struct {
			Error string   `json:"error"`
			Valid []string `json:"valid"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&miss); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("figure miss status %d", resp.StatusCode)
		}
		if !reflect.DeepEqual(miss.Valid, analysis.CatalogNames()) || miss.Error == "" {
			t.Errorf("figure miss body = %+v, want the catalog names", miss)
		}
	})
}
