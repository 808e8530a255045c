package analysis

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// testFrames builds a spread of frames the differential tests run over: the
// shared full-window frame, a small frame with a different seed, a narrow
// window that excludes most at() months, and the empty frame.
func testFrames(t testing.TB) []*Frame {
	t.Helper()
	small := simulate.DefaultOptions(60)
	small.Seed = 99
	narrow := simulate.DefaultOptions(40)
	narrow.Start = timeline.M(2016, time.January)
	narrow.End = timeline.M(2016, time.June)
	frames := []*Frame{sharedFrame(t), NewFrame(notary.NewAggregate())}
	for _, o := range []simulate.Options{small, narrow} {
		frames = append(frames, NewFrame(simulated(t, o)))
	}
	return frames
}

// EvalSeries evaluates a series- or column-kind plan into its values, the
// evaluation's only allocation, as Eval does into points. Scalar-kind plans
// return nil (use EvalScalar). The tests read series through it.
func (p *Plan) EvalSeries() []float64 {
	if p.kind == KindScalar {
		return nil
	}
	out := make([]float64, p.frame.Len())
	for i := range out {
		out[i] = p.seriesAt(i)
	}
	return out
}

// assertSameResult requires two QueryResults to be bit-for-bit equal: same
// kind, same scalar value, same points.
func assertSameResult(t *testing.T, e *Expr, want, got QueryResult) {
	t.Helper()
	if want.Query != got.Query || want.Kind != got.Kind {
		t.Fatalf("%s: result header differs: (%q, %s) vs (%q, %s)",
			e, want.Query, want.Kind, got.Query, got.Kind)
	}
	if want.Value != got.Value {
		t.Fatalf("%s: scalar differs: %v vs %v", e, want.Value, got.Value)
	}
	if want.Series.Name != got.Series.Name ||
		!reflect.DeepEqual(want.Series.Points, got.Series.Points) {
		t.Fatalf("%s: series differs:\n%v\n%v", e, want.Series.Points, got.Series.Points)
	}
}

// TestCompileCatalogParity: every static expression in the package — all
// catalog metrics, impact metrics, passive scalars, the guarded scalar rows
// and Table 2's coverage — must evaluate identically through the compiled
// plan and the interpreter, on every test frame including the empty one.
func TestCompileCatalogParity(t *testing.T) {
	var exprs []*Expr
	for _, spec := range catalog {
		for _, m := range spec.Metrics {
			exprs = append(exprs, m.Expr)
		}
	}
	for _, im := range impactMetrics {
		exprs = append(exprs, im.expr)
	}
	for _, s := range passiveScalarSpecs {
		exprs = append(exprs, s.Expr)
	}
	exprs = append(exprs,
		exprNullNegotiated, exprAnonNegotiated,
		exprSecp256r1Share, exprSecp384r1Share, exprX25519Share, exprX25519Feb18,
		exprTable2TotalCoverage)
	for _, e := range table2ClassExprs {
		exprs = append(exprs, e.coverage, e.conns)
	}

	for _, f := range testFrames(t) {
		for _, e := range exprs {
			p, err := Compile(e, f)
			if err != nil {
				t.Fatalf("compile %s: %v", e, err)
			}
			assertSameResult(t, e, f.Query(e), p.Eval())
		}
	}
}

// TestCompileRandomParity: the differential property test — randomly
// generated valid expressions must compile and evaluate bit-for-bit equal to
// the interpreter across frames of different seeds, windows and emptiness.
func TestCompileRandomParity(t *testing.T) {
	frames := testFrames(t)
	rnd := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		e := randomExpr(rnd, Kind(rnd.Intn(3)), 3)
		for _, f := range frames {
			p, err := Compile(e, f)
			if err != nil {
				t.Fatalf("compile %s: %v", e, err)
			}
			assertSameResult(t, e, f.Query(e), p.Eval())
			if p.kind != e.Kind() || p.query != e.String() {
				t.Fatalf("%s: plan metadata (%s, %q)", e, p.kind, p.query)
			}
		}
	}
}

// TestParseRejectsWhatCompileTrusts: Compile trusts its input, so the
// parser, the only constructor of an Expr, must reject the trees that once
// reached Compile by hand — an unknown column, a one-operand pct, a month out
// of range — returning no tree and an error naming the query. A column named
// like another query's text (a key-impersonation attempt on the result
// cache) has no spelling at all: the text parses as that query.
func TestParseRejectsWhatCompileTrusts(t *testing.T) {
	for _, src := range []string{
		"no-such-column",
		"pct(total)",
		"at(total, 2018-13)",
	} {
		e, err := ParseQuery(src)
		if e != nil || err == nil || !strings.HasPrefix(err.Error(), "query "+strconv.Quote(src)+": ") {
			t.Errorf("ParseQuery(%q) = %v, %v; want no tree and an error naming the query", src, e, err)
		}
	}
	if e, err := ParseQuery("pct(total / total)"); err != nil || e.op != opPct {
		t.Errorf(`"pct(total / total)" parses to %v, %v; want the pct query`, e, err)
	}
}

// TestCompileNilFrame: Compile is the exported way to bind a parsed query to
// a frame, and refuses a nil frame instead of panicking on its first read.
// An out-of-range Kind prints its number.
func TestCompileNilFrame(t *testing.T) {
	e, err := ParseQuery("count(total)")
	if err != nil {
		t.Fatal(err)
	}
	if p, err := Compile(e, nil); p != nil || err == nil {
		t.Errorf("Compile on a nil frame = %v, %v; want no plan and an error", p, err)
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("Kind(9).String() = %q", got)
	}
}

// TestEvalFigureHandBuiltSpec: a spec outside the catalog compiles as a
// catalog spec does — equal to the interpreter — and a scalar metric panics
// naming the figure and the metric.
func TestEvalFigureHandBuiltSpec(t *testing.T) {
	f := sharedFrame(t)
	e, err := ParseQuery("pct(sum(version:tls11, version:tls12) / established)")
	if err != nil {
		t.Fatal(err)
	}
	fig := f.EvalFigure(FigureSpec{ID: "Figure X", Metrics: []MetricSpec{{Name: "modern", Expr: e}}})
	want, err := f.EvalSeries(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != len(want) {
		t.Fatalf("hand-built figure shape: %+v", fig.Series)
	}
	for i, p := range fig.Series[0].Points {
		if p.Value != want[i] || p.Month != f.Months[i] {
			t.Fatalf("row %d: %+v, want %v at %v", i, p, want[i], f.Months[i])
		}
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "analysis: figure Figure X metric scalar: ") {
			t.Errorf("scalar metric: panic %q, want the figure/metric prefix", msg)
		}
	}()
	f.EvalFigure(FigureSpec{ID: "Figure X", Metrics: []MetricSpec{{Name: "scalar", Expr: q("count(total)")}}})
}

// TestPlanEvalAllocs pins the compiled engine's allocation discipline:
// series evaluation allocates only its result slice, and scalar evaluation
// allocates nothing — including for sum() and wildcard selectors, which
// materialize at compile time. Eval, the evaluation a /query miss takes,
// keeps the same counts: one allocation (the points) for a series, none for
// a scalar.
func TestPlanEvalAllocs(t *testing.T) {
	f := sharedFrame(t)
	series := []string{
		"pct(version:tls12 / established)",
		"pct(sum(kex:ecdhe, kex:tls13) / established)",
		"pct(curve:x25519 / curve:*)",
		"position(aead)",
	}
	for _, src := range series {
		p := mustCompile(t, src, f)
		if n := testing.AllocsPerRun(200, func() { p.EvalSeries() }); n > 1 {
			t.Errorf("%s: EvalSeries %.1f allocs/run, want 1 (the result slice)", src, n)
		}
		if n := testing.AllocsPerRun(200, func() { p.Eval() }); n != 1 {
			t.Errorf("%s: Eval %.1f allocs/run, want 1 (the points)", src, n)
		}
	}
	scalars := []string{
		"at(pct(adv-tls13 / total), 2018-04)",
		"over(curve:x25519 / curve:*)",
		"mean(pct(sum(version:tls12, version:tls13) / established))",
		"count(total)",
	}
	for _, src := range scalars {
		p := mustCompile(t, src, f)
		if n := testing.AllocsPerRun(200, func() { p.EvalScalar() }); n != 0 {
			t.Errorf("%s: EvalScalar %.1f allocs/run, want 0", src, n)
		}
		if n := testing.AllocsPerRun(200, func() { p.Eval() }); n != 0 {
			t.Errorf("%s: Eval %.1f allocs/run, want 0", src, n)
		}
	}
}

// FuzzCompileEval extends FuzzParseQuery through the compiler: any input the
// parser accepts must compile, evaluate without panicking, and agree with
// the interpreter exactly.
func FuzzCompileEval(fz *testing.F) {
	for _, spec := range Catalog() {
		for _, m := range spec.Metrics {
			fz.Add(m.Expr.String())
		}
	}
	fz.Add("at(pct(adv-tls13 / total), 2018-04)")
	fz.Add("over(null-negotiated / established)")
	fz.Add("max(pct(curve:x25519 / curve:*))")
	fz.Add("count(sum(version:tls12, curve:*))")
	fz.Add("position(3des)")
	fz.Add("pct(fp:other / fp-conns)")
	fz.Add("pct(fp:0123456789ab / fp-conns)")
	fz.Add("over(agent:* / fp-conns)")
	fz.Add("count(sum(agent:libraries, agent:malware, fp:*))")
	small := simulate.DefaultOptions(30)
	agg := simulated(fz, small)
	// The third frame got where it is through Advance, not NewFrame.
	grown := simulated(fz, small)
	before := NewFrame(grown)
	grown.Merge(agg)
	frames := []*Frame{NewFrame(agg), NewFrame(notary.NewAggregate()), before.Advance(grown, agg.Months())}
	fz.Fuzz(func(t *testing.T, src string) {
		e, err := ParseQuery(src)
		if err != nil {
			return
		}
		for _, f := range frames {
			p, err := Compile(e, f)
			if err != nil {
				t.Fatalf("parsed query %q fails to compile: %v", src, err)
			}
			want, got := f.Query(e), p.Eval()
			if want.Kind != got.Kind || want.Value != got.Value ||
				!reflect.DeepEqual(want.Series.Points, got.Series.Points) {
				t.Fatalf("compiled and interpreted results differ for %q", src)
			}
		}
	})
}
