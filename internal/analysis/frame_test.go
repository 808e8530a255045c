package analysis

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// requireFigureEqual asserts got reproduces want exactly: same identity,
// same series in the same order, bit-identical point values, same events.
func requireFigureEqual(t *testing.T, want, got Figure) {
	t.Helper()
	if got.ID != want.ID || got.Title != want.Title {
		t.Fatalf("figure identity: got %q/%q, want %q/%q", got.ID, got.Title, want.ID, want.Title)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: %d series, want %d", want.ID, len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		ws, gs := want.Series[i], got.Series[i]
		if gs.Name != ws.Name {
			t.Fatalf("%s series %d: name %q, want %q", want.ID, i, gs.Name, ws.Name)
		}
		if len(gs.Points) != len(ws.Points) {
			t.Fatalf("%s %s: %d points, want %d", want.ID, ws.Name, len(gs.Points), len(ws.Points))
		}
		for j := range ws.Points {
			wp, gp := ws.Points[j], gs.Points[j]
			if gp.Month != wp.Month {
				t.Fatalf("%s %s point %d: month %v, want %v", want.ID, ws.Name, j, gp.Month, wp.Month)
			}
			if gp.Value != wp.Value {
				t.Fatalf("%s %s at %v: value %v, want %v (exact parity required)",
					want.ID, ws.Name, wp.Month, gp.Value, wp.Value)
			}
		}
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: events %v, want %v", want.ID, got.Events, want.Events)
	}
}

// TestFrameFigureParity is the golden parity test of the refactor: every
// catalog figure built from the Frame must exactly equal the seed's
// map-walking output on a fixed-seed study.
func TestFrameFigureParity(t *testing.T) {
	agg := sharedAgg(t)
	f := sharedFrame(t)

	legacy := legacyAllFigures(agg)
	frame := f.Figures()
	if len(frame) != len(legacy) {
		t.Fatalf("%d frame figures, want %d", len(frame), len(legacy))
	}
	for i := range legacy {
		requireFigureEqual(t, legacy[i], frame[i])
	}

	ext, ok := f.FigureByName("extensions")
	if !ok {
		t.Fatal("extensions figure missing")
	}
	requireFigureEqual(t, legacyExtensionUptake(agg), ext)

	t.Run("all-figures-build", func(t *testing.T) {
		if len(frame) != 10 {
			t.Fatalf("expected 10 figures, got %d", len(frame))
		}
		for _, fig := range frame {
			if fig.ID == "" || fig.Title == "" || len(fig.Series) == 0 {
				t.Errorf("figure %q malformed", fig.ID)
			}
			for _, s := range fig.Series {
				if len(s.Points) != 75 {
					t.Errorf("%s series %s has %d points, want 75", fig.ID, s.Name, len(s.Points))
				}
				for _, p := range s.Points {
					if p.Value < 0 || p.Value > 100 {
						t.Errorf("%s %s at %v: value %f out of range", fig.ID, s.Name, p.Month, p.Value)
					}
				}
			}
		}
	})
	// within checks one point of the paper's shape on a frame figure.
	within := func(t *testing.T, fig Figure, series string, m timeline.Month, lo, hi float64) {
		t.Helper()
		s, ok := seriesByName(fig, series)
		if !ok {
			t.Fatalf("%s: no %s series", fig.ID, series)
		}
		if v, _ := s.Value(m); v < lo || v > hi {
			t.Errorf("%s %s at %v = %0.1f, want in [%v, %v]", fig.ID, series, m, v, lo, hi)
		}
	}
	t.Run("figure1-series-shape", func(t *testing.T) {
		within(t, frame[0], "TLSv10", timeline.M(2012, time.April), 70, 100)
		within(t, frame[0], "TLSv10", timeline.M(2018, time.February), 0, 12)
		if len(frame[0].Events) == 0 {
			t.Error("Figure 1 should carry attack events")
		}
	})
	t.Run("figure8-series-consistency", func(t *testing.T) {
		within(t, frame[7], "RSA", timeline.M(2012, time.June), 40, 100)
		within(t, frame[7], "ECDHE", timeline.M(2018, time.March), 70, 100)
	})
}

// TestFrameScalarParity pins the scalar pipeline to the seed output.
func TestFrameScalarParity(t *testing.T) {
	agg := sharedAgg(t)
	f := sharedFrame(t)

	want := legacyPassiveScalars(agg)
	got := PassiveScalarsFrame(f)
	if len(got) != len(want) {
		t.Fatalf("%d scalars, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scalar %s: got %+v, want %+v", want[i].ID, got[i], want[i])
		}
	}

	// Every observed curve's share, asked the way the S6 scalars ask it.
	legacyShares := legacyCurveSharesOverall(agg)
	if n := len(familyColumns(f, famCurve)); len(legacyShares) != n {
		t.Errorf("frame carries %d curves, the map-walking output %d", n, len(legacyShares))
	}
	var sum, topShare float64
	var top registry.CurveID
	for _, s := range legacyShares {
		got := curveShare(t, f, s.Curve)
		if got != s.Share {
			t.Errorf("%v share = %v, diverges from the map-walking output %v", s.Curve, got, s.Share)
		}
		if sum += got; got > topShare {
			top, topShare = s.Curve, got
		}
	}
	variants := TLS13VariantSharesFrame(f)
	if !reflect.DeepEqual(variants, legacyTLS13VariantShares(agg)) {
		t.Error("TLS 1.3 variant shares diverge from the map-walking output")
	}

	t.Run("curve-shares-ordered", func(t *testing.T) {
		if sum < 99.9 || sum > 100.1 || top != registry.CurveSecp256r1 {
			t.Errorf("curve shares sum to %0.2f with %v on top, want 100 and secp256r1", sum, top)
		}
	})
	t.Run("tls13-variant-shares", func(t *testing.T) {
		sum := 0.0
		for i, v := range variants {
			sum += v.Share
			if i > 0 && variants[i-1].Share < v.Share {
				t.Error("variant shares not descending")
			}
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%d variant shares sum to %0.1f", len(variants), sum)
		}
	})
}

// monthSplitSink shards a record stream across two aggregates by month
// parity — the same month-granular partitioning the parallel simulation
// pipeline uses, so per-month counters never split across shards.
type monthSplitSink struct {
	a, b *notary.Aggregate
}

func (s *monthSplitSink) Observe(r *notary.Record) error {
	if timeline.MonthOf(r.Date).Index()%2 == 0 {
		s.a.Add(r)
	} else {
		s.b.Add(r)
	}
	return nil
}

func (s *monthSplitSink) Close() error { return nil }

// TestFrameMergeProperty: the frame of merged shard aggregates answers every
// column as the frame of the unsharded stream does.
func TestFrameMergeProperty(t *testing.T) {
	opts := simulate.DefaultOptions(150)
	opts.End = timeline.M(2013, time.December)
	opts.Workers = 1

	whole := notary.NewAggregate()
	split := &monthSplitSink{a: notary.NewAggregate(), b: notary.NewAggregate()}
	if err := simulate.New(opts).Run(notary.Tee(whole, split)); err != nil {
		t.Fatal(err)
	}

	// One month also holds a key touched with a zero delta: it is present,
	// so it owns a column (all zero), sharded or not.
	zeroMonth, zeroKey := whole.Months()[0], registry.ExtensionID(0xfeed)
	shard := split.a
	if zeroMonth.Index()%2 != 0 {
		shard = split.b
	}
	for _, a := range []*notary.Aggregate{whole, shard} {
		a.UpdateMonth(zeroMonth, 0, func(ms *notary.MonthStats) { ms.ByExtension.Add(zeroKey, 0) })
	}

	merged := notary.NewAggregate()
	merged.Merge(split.a)
	merged.Merge(split.b)

	fWhole, fMerged := NewFrame(whole), NewFrame(merged)
	requireSameFrame(t, fWhole, fMerged)
	col := fMerged.keyed(cellKey{fam: famExtension, num: uint16(zeroKey)})
	if len(col) != fMerged.Len() || slices.Max(col) != 0 {
		t.Fatalf("present-but-zero extension column = %v; want an all-zero column", col)
	}
}

func TestFrameRowAndSeriesIndex(t *testing.T) {
	f := sharedFrame(t)
	if f.Len() == 0 {
		t.Fatal("empty frame")
	}
	for i, m := range f.Months {
		if row, ok := f.Row(m); !ok || row != i {
			t.Fatalf("Row(%v) = %d,%v, want %d,true", m, row, ok, i)
		}
	}
	if _, ok := f.Row(timeline.M(1999, time.January)); ok {
		t.Error("row for unobserved month")
	}

	fig, _ := f.FigureByNum(1)
	s := fig.Series[0]
	if s.index == nil {
		t.Fatal("frame-built series carries no month index")
	}
	// The indexed lookup must agree with a linear scan over the points.
	linear := Series{Name: s.Name, Points: s.Points}
	for _, m := range f.Months {
		want, wantOK := linear.Value(m)
		got, gotOK := s.Value(m)
		if got != want || gotOK != wantOK {
			t.Fatalf("indexed Value(%v) = %v,%v, want %v,%v", m, got, gotOK, want, wantOK)
		}
	}
	for _, s := range []Series{s, linear} {
		if _, ok := s.Value(timeline.M(1999, time.January)); ok {
			t.Errorf("lookup (index %v) reported a missing month present", s.index != nil)
		}
	}
}

func TestCatalogLookups(t *testing.T) {
	specs := Catalog()
	if len(specs) != 12 {
		t.Fatalf("catalog has %d entries, want 12 (Figures 1-10 + E1 + E2)", len(specs))
	}
	names := map[string]bool{}
	for _, spec := range specs {
		if spec.ID == "" || spec.Name == "" || spec.Title == "" || len(spec.Metrics) == 0 {
			t.Errorf("malformed spec %+v", spec)
		}
		if names[spec.Name] {
			t.Errorf("duplicate catalog name %q", spec.Name)
		}
		names[spec.Name] = true
		byName, ok := SpecByName(spec.Name)
		if !ok || byName.ID != spec.ID {
			t.Errorf("SpecByName(%q) failed", spec.Name)
		}
	}
	for n := 1; n <= 10; n++ {
		spec, ok := SpecByNum(n)
		if !ok {
			t.Fatalf("no spec for figure %d", n)
		}
		if want := fmt.Sprintf("Figure %d", n); spec.ID != want {
			t.Errorf("SpecByNum(%d).ID = %q, want %q", n, spec.ID, want)
		}
	}
	if _, ok := SpecByNum(11); ok {
		t.Error("SpecByNum(11) should not resolve")
	}
	if _, ok := SpecByNum(0); ok {
		t.Error("SpecByNum(0) must not leak the extras")
	}
	if _, ok := SpecByName("no-such-figure"); ok {
		t.Error("SpecByName on unknown name should fail")
	}
}
