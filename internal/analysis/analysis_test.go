package analysis

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

var (
	testAggOnce   sync.Once
	testAgg       *notary.Aggregate
	testFrameOnce sync.Once
	testFrame     *Frame
)

// simulated runs the simulator into a fresh aggregate.
func simulated(t testing.TB, opts simulate.Options) *notary.Aggregate {
	t.Helper()
	agg := notary.NewAggregate()
	if err := simulate.New(opts).Run(agg); err != nil {
		t.Fatal(err)
	}
	return agg
}

func sharedAgg(t testing.TB) *notary.Aggregate {
	t.Helper()
	testAggOnce.Do(func() { testAgg = simulated(t, simulate.DefaultOptions(400)) })
	return testAgg
}

func sharedFrame(t testing.TB) *Frame {
	t.Helper()
	agg := sharedAgg(t)
	testFrameOnce.Do(func() { testFrame = NewFrame(agg) })
	return testFrame
}

// figByNum fetches one paper figure from the shared frame.
func figByNum(t testing.TB, n int) Figure {
	t.Helper()
	fig, ok := sharedFrame(t).FigureByNum(n)
	if !ok {
		t.Fatalf("no figure %d in catalog", n)
	}
	return fig
}

// seriesByName locates a figure's series.
func seriesByName(f Figure, name string) (*Series, bool) {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i], true
		}
	}
	return nil, false
}

func TestRenderTable(t *testing.T) {
	f := figByNum(t, 2)
	var buf bytes.Buffer
	if err := f.RenderTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "RC4") {
		t.Error("table rendering missing header")
	}
	if !strings.Contains(out, "2012-02") || !strings.Contains(out, "2018-04") {
		t.Error("table missing study endpoints")
	}
	// Event markers appear.
	if !strings.Contains(out, "Snowden") {
		t.Error("event annotation missing")
	}
	lines := strings.Count(out, "\n")
	if lines < 75 {
		t.Errorf("table has %d lines, want ≥75", lines)
	}
}

func TestRenderChart(t *testing.T) {
	f := figByNum(t, 6)
	var buf bytes.Buffer
	if err := f.RenderChart(&buf, 72, 14); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "A=RC4 advertised") {
		t.Errorf("chart missing legend:\n%s", out)
	}
	if strings.Count(out, "|") < 28 {
		t.Error("chart grid missing")
	}
	// Degenerate dimensions fall back to defaults.
	var buf2 bytes.Buffer
	if err := f.RenderChart(&buf2, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Empty figure renders a stub.
	empty := Figure{ID: "Figure X", Title: "empty"}
	var buf3 bytes.Buffer
	if err := empty.RenderChart(&buf3, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf3.String(), "no data") {
		t.Error("empty chart stub missing")
	}
}

// TestRenderEdgeCases renders figures the catalog never makes: a series
// missing a month prints "-" in its cell, a flat zero series scales to 1 %,
// a single month spans one column, and a negative value clamps to the
// chart's bottom row.
func TestRenderEdgeCases(t *testing.T) {
	jan, feb := timeline.M(2015, time.January), timeline.M(2015, time.February)
	f := Figure{ID: "Figure X", Title: "edges", Series: []Series{
		{Name: "both", Points: []Point{{Month: jan, Value: 1}, {Month: feb, Value: 2}}},
		{Name: "feb", Points: []Point{{Month: feb, Value: 3}}},
	}}
	var table bytes.Buffer
	if err := f.RenderTable(&table); err != nil {
		t.Fatal(err)
	}
	want := "Figure X — edges\n" +
		"month                  both                feb\n" +
		"2015-01               1.00%                  -\n" +
		"2015-02               2.00%              3.00%\n"
	if table.String() != want {
		t.Errorf("table:\n%s\nwant:\n%s", table.String(), want)
	}
	for _, c := range []struct {
		name   string
		points []Point
		want   string
	}{
		{"flat", []Point{{Month: jan}, {Month: feb}}, "Figure X — edges  (max 1.0%)\n" +
			"|                    |\n|                    |\n|                    |\n|                    |\n|A                  A|\n" +
			"2015-01      2015-02\nA=flat\n"},
		{"one-month", []Point{{Month: jan, Value: 4}}, "Figure X — edges  (max 4.0%)\n" +
			"|A                   |\n|                    |\n|                    |\n|                    |\n|                    |\n" +
			"2015-01      2015-01\nA=one-month\n"},
		{"negative", []Point{{Month: jan, Value: -5}, {Month: feb, Value: 5}}, "Figure X — edges  (max 5.0%)\n" +
			"|                   A|\n|                    |\n|                    |\n|                    |\n|A                   |\n" +
			"2015-01      2015-02\nA=negative\n"},
	} {
		fig := Figure{ID: "Figure X", Title: "edges", Series: []Series{{Name: c.name, Points: c.points}}}
		var chart bytes.Buffer
		if err := fig.RenderChart(&chart, 20, 5); err != nil {
			t.Fatal(err)
		}
		if chart.String() != c.want {
			t.Errorf("%s chart:\n%s\nwant:\n%s", c.name, chart.String(), c.want)
		}
	}
}

func TestPassiveScalars(t *testing.T) {
	scalars := PassiveScalarsFrame(sharedFrame(t))
	if len(scalars) < 14 {
		t.Fatalf("expected ≥14 scalars, got %d", len(scalars))
	}
	byID := map[string]Scalar{}
	for _, s := range scalars {
		if s.ID == "" || s.Name == "" {
			t.Errorf("malformed scalar %+v", s)
		}
		byID[s.ID] = s
	}
	// Spot-check the big shape wins at this sample size.
	if s := byID["S-F1b"]; s.Measured < 75 {
		t.Errorf("TLS1.2 2018 measured %0.1f", s.Measured)
	}
	if s := byID["S6a"]; s.Measured < 55 {
		t.Errorf("secp256r1 share measured %0.1f", s.Measured)
	}
	if s := byID["S7c"]; s.Measured < 8 {
		t.Errorf("TLS1.3 Apr 2018 support measured %0.1f", s.Measured)
	}
	if byID["S-F1a"].Deviation() != byID["S-F1a"].Deviation() {
		t.Error("NaN deviation")
	}
	var buf bytes.Buffer
	if err := RenderScalars(&buf, "Passive scalars", scalars); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S-F1a") {
		t.Error("scalar rendering incomplete")
	}
}

func TestFingerprintScalars(t *testing.T) {
	scalars := FingerprintScalars(sharedAgg(t))
	if len(scalars) != 3 {
		t.Fatalf("got %d fingerprint scalars", len(scalars))
	}
	// At this reduced sample size the single-day mass is smaller than the
	// paper's (median exactly 1 day shows up at study scale; see the
	// simulate tests); here assert the structural property only.
	var median, single Scalar
	for _, s := range scalars {
		switch s.ID {
		case "S5a":
			median = s
		case "S5b":
			single = s
		}
	}
	if single.Measured <= 0 {
		t.Error("no single-day fingerprints measured")
	}
	if median.Measured <= 0 {
		t.Error("median duration not measured")
	}
	if FingerprintScalars(notary.NewAggregate()) != nil {
		t.Error("empty aggregate should yield no scalars")
	}
}

func TestBuildTable2(t *testing.T) {
	agg, db := classifiedAgg(t)
	rep := BuildTable2Frame(NewFrame(agg), db)
	if rep.TotalFPs < 1500 {
		t.Errorf("DB size %d", rep.TotalFPs)
	}
	// Coverage: the paper attributes 69.23% of fingerprinted connections.
	if rep.TotalCoverage < 50 || rep.TotalCoverage > 85 {
		t.Errorf("coverage = %0.1f%%, want ≈69%%", rep.TotalCoverage)
	}
	if len(rep.Rows) < 8 {
		t.Fatalf("only %d class rows", len(rep.Rows))
	}
	// Libraries lead coverage (Table 2's ordering).
	if rep.Rows[0].Class != "Libraries" {
		t.Errorf("top class = %s, want Libraries", rep.Rows[0].Class)
	}
	var buf bytes.Buffer
	if err := rep.RenderTable2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Libraries") {
		t.Error("Table 2 rendering incomplete")
	}
}

// curveShare is c's share of curve-bearing connections over the whole
// window, stated the way the S6a–c scalars state it.
func curveShare(t *testing.T, f *Frame, c registry.CurveID) float64 {
	t.Helper()
	return mustCompile(t, "over(curve:"+fold(c.String())+" / curve:*)", f).EvalScalar()
}

func TestExtensionUptake(t *testing.T) {
	f, ok := sharedFrame(t).FigureByName("extensions")
	if !ok {
		t.Fatal("extensions figure missing from catalog")
	}
	if f.ID != "Figure E1" || len(f.Series) != 7 {
		t.Fatalf("figure: %s with %d series", f.ID, len(f.Series))
	}
	rie, _ := seriesByName(f, "renegotiation_info")
	etm, _ := seriesByName(f, "encrypt_then_mac")
	sv, _ := seriesByName(f, "supported_versions")
	hb, _ := seriesByName(f, "heartbeat")

	// RIE is near-universal across the study (the post-renegotiation-attack
	// response the paper mentions in §9).
	if v, _ := rie.Value(timeline.M(2016, time.June)); v < 80 {
		t.Errorf("renegotiation_info Jun 2016 = %0.1f%%", v)
	}
	// Encrypt-then-MAC saw "very limited take up" (§9).
	for _, p := range etm.Points {
		if p.Value > 5 {
			t.Errorf("encrypt_then_mac at %v = %0.1f%%, should stay tiny", p.Month, p.Value)
		}
	}
	// supported_versions only appears with the 2018 TLS 1.3 rollouts.
	if v, _ := sv.Value(timeline.M(2016, time.June)); v > 0.5 {
		t.Errorf("supported_versions in 2016 = %0.1f%%", v)
	}
	if v, _ := sv.Value(timeline.M(2018, time.April)); v <= 2 {
		t.Errorf("supported_versions Apr 2018 = %0.1f%%, should have taken off", v)
	}
	// Heartbeat advertisement rises with OpenSSL 1.0.1 and falls after 1.1.0.
	peak, _ := hb.Value(timeline.M(2015, time.June))
	late, _ := hb.Value(timeline.M(2018, time.March))
	if peak < 8 || late >= peak {
		t.Errorf("heartbeat advertisement %0.1f%% → %0.1f%% lacks rise-and-fall", peak, late)
	}
}

func TestAttackImpacts(t *testing.T) {
	impacts := AttackImpactsFrame(sharedFrame(t))
	// Every event impactMetrics names is on the timeline (an unknown one
	// would index events[-1]) and has its three sample months in the window.
	if len(impacts) != len(impactMetrics) {
		t.Fatalf("%d impacts, want one per impactMetrics row (%d)", len(impacts), len(impactMetrics))
	}
	// A frame without the sample months skips every event.
	if short := AttackImpactsFrame(NewFrame(notary.NewAggregate())); short != nil {
		t.Errorf("an empty frame's impacts: %+v, want none", short)
	}
	byEvent := map[string]AttackImpact{}
	for _, im := range impacts {
		byEvent[im.Event.Name] = im
	}
	// Snowden: forward secrecy rises strongly within a year (§7.4).
	if im, ok := byEvent[timeline.EventSnowden]; !ok || im.Delta12() < 8 {
		t.Errorf("Snowden FS delta = %+0.1f, want strong rise", im.Delta12())
	}
	// Lucky 13: no clear CBC decline within a year ("no clear change in
	// traffic", §7.4) — CBC may even rise as TLS 1.2 rolls out.
	if im, ok := byEvent[timeline.EventLucky13]; !ok || im.Delta12() < -10 {
		t.Errorf("Lucky13 CBC delta = %+0.1f, paper saw no immediate decline", im.Delta12())
	}
	// Sweet32: 3DES advertisement declines within a year.
	if im, ok := byEvent[timeline.EventSweet32]; !ok || im.Delta12() > -2 {
		t.Errorf("Sweet32 3DES delta = %+0.1f, want decline", im.Delta12())
	}
	// First RC4 attack: negotiation does respond within a year (server-side
	// moves first), but advertisement lingers (checked via RC4NoMore row).
	if im, ok := byEvent[timeline.EventRC4]; !ok || im.After12 >= im.Before+5 {
		t.Errorf("RC4 negotiated should not rise post-attack: %+v", im)
	}
	var buf bytes.Buffer
	if err := RenderImpacts(&buf, impacts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Snowden") {
		t.Error("impact rendering incomplete")
	}
}
