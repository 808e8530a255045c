package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/scanner"
	"tlsage/internal/timeline"
)

// scanReport hand-builds one campaign report — no TCP farm, so the e2e test
// exercises exactly the study/query plumbing, deterministically.
func scanReport(m timeline.Month, hosts, ssl3, answered, rc4, cbc, tdes, hbAck, rc4only, export, vuln int) *core.CampaignReport {
	return &core.CampaignReport{
		Date:  m.Mid(),
		Hosts: hosts,
		Probes: map[string]scanner.Summary{
			"ssl3only":   {Answered: ssl3},
			"chrome2015": {Answered: answered, ChoseRC4: rc4, ChoseCBC: cbc, Chose3DES: tdes, HeartbeatAck: hbAck},
			"rc4only":    {Answered: rc4only},
			"exportonly": {ChoseExport: export},
		},
		VulnerableHosts: vuln,
	}
}

// TestScanStudyOnRouter is the e2e acceptance check for hosted scan
// campaigns, the path `tlstrend scansweep -push` takes into `tlstrend serve
// -studies notary,scan`: a sweep's reports fold into core.ScanAggregate, go
// as one delta to POST /studies/scan/merge of a Router that also hosts a
// passive study, and POST /studies/scan/query answers the campaign metrics
// through the same Frame/Expr pipeline — each of core.ScanMetrics equal to
// the share of hosts the report's fields give.
func TestScanStudyOnRouter(t *testing.T) {
	months := []timeline.Month{
		timeline.M(2015, time.September),
		timeline.M(2016, time.June),
		timeline.M(2018, time.May),
	}
	reports := []*core.CampaignReport{
		scanReport(months[0], 200, 90, 180, 22, 108, 1, 68, 38, 56, 3),
		scanReport(months[1], 150, 55, 140, 12, 70, 1, 48, 21, 30, 1),
		scanReport(months[2], 180, 45, 175, 6, 63, 0, 61, 34, 2, 0),
	}
	agg := core.ScanAggregate(reports)

	rt := NewRouter()
	for _, id := range []string{"passive", "scan"} {
		if err := rt.Add(id, NewServer(core.NewLiveStudy())); err != nil {
			t.Fatal(err)
		}
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	ack, err := federation.PushDelta(ts.URL+"/studies/scan", &federation.Delta{Source: "campaign-2018", Agg: agg}, nil)
	if err != nil || ack.Records != agg.Generation() {
		t.Fatalf("campaign push applied %+v (err %v), want %d records", ack, err, agg.Generation())
	}

	// Every declared scan metric, as a query over the scan study's counters,
	// must equal the share of hosts computed here straight from the report's
	// fields. A metric added to core.ScanMetrics without a numerator here
	// fails.
	numerators := map[string]func(r *core.CampaignReport) int{
		"ssl3":   func(r *core.CampaignReport) int { return r.Probes["ssl3only"].Answered },
		"rc4sel": func(r *core.CampaignReport) int { return r.Probes["chrome2015"].ChoseRC4 },
		"rc4sup": func(r *core.CampaignReport) int { return r.Probes["rc4only"].Answered },
		"cbc": func(r *core.CampaignReport) int { // 3DES is a CBC suite too
			c := r.Probes["chrome2015"]
			return c.ChoseCBC + c.Chose3DES
		},
		"3des":   func(r *core.CampaignReport) int { return r.Probes["chrome2015"].Chose3DES },
		"hb":     func(r *core.CampaignReport) int { return r.Probes["chrome2015"].HeartbeatAck },
		"bleed":  func(r *core.CampaignReport) int { return r.VulnerableHosts },
		"export": func(r *core.CampaignReport) int { return r.Probes["exportonly"].ChoseExport },
	}
	pct := func(n, hosts int) float64 { return 100 * float64(n) / float64(hosts) }
	for _, m := range core.ScanMetrics {
		num, ok := numerators[m.Key]
		if !ok {
			t.Errorf("scan metric %q has no independent check", m.Key)
			continue
		}
		res, _ := queryResult(t, ts.URL+"/studies/scan/query", m.Query)
		if len(res.Series.Points) != len(months) {
			t.Fatalf("%q: %d points, want %d", m.Query, len(res.Series.Points), len(months))
		}
		for i, p := range res.Series.Points {
			if want := pct(num(reports[i]), reports[i].Hosts); p.Value != want {
				t.Errorf("%q month %v: got %v, want %v", m.Query, months[i], p.Value, want)
			}
		}
	}

	// Scalar shape over the mounted study: the Sep 2015 RC4 selection rate.
	res, _ := queryResult(t, ts.URL+"/studies/scan/query", "at(pct(class:rc4 / total), 2015-09)")
	if want := pct(22, 200); res.Value != want {
		t.Errorf("at() scalar: got %v, want %v", res.Value, want)
	}

	// The mounted study serves the standard healthz, including the fp: family
	// gauges (all zero here: scan campaigns carry no client fingerprints).
	resp, err := http.Get(ts.URL + "/studies/scan/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %v: %s", resp.StatusCode, err, raw)
	}
	var health struct {
		Records      int `json:"records"`
		Fingerprints *struct {
			Distinct   int     `json:"distinct"`
			TopK       int     `json:"top_k"`
			OtherShare float64 `json:"other_share"`
		} `json:"fingerprints"`
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatalf("healthz decode: %v\n%s", err, raw)
	}
	if health.Records != 200+150+180 {
		t.Errorf("healthz records = %d, want %d", health.Records, 200+150+180)
	}
	if health.Fingerprints == nil {
		t.Fatalf("healthz missing fingerprints gauges: %s", raw)
	}
	if health.Fingerprints.Distinct != 0 || health.Fingerprints.TopK <= 0 {
		t.Errorf("fingerprint gauges = %+v", *health.Fingerprints)
	}

	// The pushed campaign serves /scalars, /figures and every scan metric
	// byte for byte as a study built straight from the sweep's aggregate.
	t.Run("campaign-merge-parity", func(t *testing.T) {
		built := NewServer(core.NewStudyFromAggregate(agg))
		defer built.Close()
		builtTS := httptest.NewServer(built.Handler())
		defer builtTS.Close()
		queries := []string{"at(pct(class:rc4 / total), 2015-09)"}
		for _, m := range core.ScanMetrics {
			queries = append(queries, m.Query)
		}
		requireSameServed(t, ts.URL+"/studies/scan", builtTS.URL, "a study built from the sweep's aggregate", queries...)
		if got, want := mustGet(t, ts.URL+"/studies/scan/figures"), mustGet(t, builtTS.URL+"/figures"); !bytes.Equal(got, want) {
			t.Errorf("/figures differs from a study built from the sweep's aggregate:\n%s\n---\n%s", got, want)
		}
	})
}
