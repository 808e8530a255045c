package analysis

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/timeline"
)

// TestQueryScalarOps pins each scalar reduction against a hand computation
// over the shared frame.
func TestQueryScalarOps(t *testing.T) {
	f := sharedFrame(t)
	series := mustCompile(t, "pct(class:rc4 / established)", f).EvalSeries()
	sum, min, max := 0.0, series[0], series[0]
	for _, v := range series {
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	cases := []struct {
		src  string
		want float64
	}{
		{"mean(pct(class:rc4 / established))", sum / float64(len(series))},
		{"min(pct(class:rc4 / established))", min},
		{"max(pct(class:rc4 / established))", max},
		{"first(pct(class:rc4 / established))", series[0]},
		{"last(pct(class:rc4 / established))", series[len(series)-1]},
		{"count(established)", float64(sumCol(f.Column("established")))},
	}
	for _, c := range cases {
		res := mustQuery(t, f, c.src)
		if res.Kind != "scalar" || res.Value != c.want {
			t.Errorf("%s = %v (%s), want %v", c.src, res.Value, res.Kind, c.want)
		}
	}

	// at() on a month inside the window equals the series row; outside = 0.
	m := f.Months[f.Len()/2]
	res := mustQuery(t, f, "at(pct(class:rc4 / established), "+m.String()+")")
	if res.Value != series[f.Len()/2] {
		t.Errorf("at(%v) = %v, want %v", m, res.Value, series[f.Len()/2])
	}
	if res = mustQuery(t, f, "at(pct(class:rc4 / established), 1999-01)"); res.Value != 0 {
		t.Errorf("at(missing month) = %v, want 0", res.Value)
	}
}

// TestQueryWildcardColumn pins family wildcards: curve:* is the element-wise
// sum of every observed curve column.
func TestQueryWildcardColumn(t *testing.T) {
	f := sharedFrame(t)
	vals := mustCompile(t, "curve:*", f).EvalSeries()
	for i := 0; i < f.Len(); i++ {
		want := 0
		for _, c := range familyColumns(f, famCurve) {
			want += c[i]
		}
		if vals[i] != float64(want) {
			t.Fatalf("curve:* row %d = %v, want %d", i, vals[i], want)
		}
	}
}

// TestQueryCaseInsensitive: selectors, op names and aliases fold.
func TestQueryCaseInsensitive(t *testing.T) {
	f := sharedFrame(t)
	a := mustQuery(t, f, "pct(version:tls12 / established)")
	b := mustQuery(t, f, "PCT(Version:TLSv12\t/\nESTABLISHED)")
	c := mustQuery(t, f, "ratio(version:tls12 / established)")
	for _, other := range []QueryResult{b, c} {
		if !reflect.DeepEqual(a.Series.Points, other.Series.Points) {
			t.Fatal("case/alias variants evaluate differently")
		}
	}
	if c.Query != "pct(version:tls12 / established)" {
		t.Errorf("ratio alias canonicalizes to %q", c.Query)
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		"",
		"pct(version:tls12 / established",  // unbalanced
		"pct(version:tls12, established)",  // wrong separator
		"no-such-column",                   // unknown name
		"version:tls99",                    // unknown key
		"nosuchfamily:tls12",               // unknown family
		"at(established, 2018-13)",         // bad month
		"at(established)",                  // missing month
		"mean(at(established, 2018-02))",   // scalar where series expected
		"sum(pct(adv-rc4 / total), total)", // series where column expected
		"position(nosuchclass)",
		"pct(version:tls12 / established) trailing",
		"pct(established / no-such-column)", // bad denominator
		"at(no-such-column, 2018-02)",       // bad at operand
		"count(pct(adv-rc4 / total))",       // series where count wants a column
		"sum(total, no-such-column)",        // bad later sum operand
		"pct(total # established)",          // a byte outside the grammar
		"fp:0123abcd",                       // short fingerprint key
		"fp:0123456789ag",                   // non-hex fingerprint key
		"at(established, 20x8-02)",          // non-digit month
		"at(established, 18-02)",            // short month
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) accepted", src)
		}
	}
	if _, err := ParseQuery("pct(total # established)"); err == nil || !strings.Contains(err.Error(), `got "#"`) {
		t.Errorf("a byte outside the grammar: err %v, want it named", err)
	}
	// A scalar-kind plan has no series; the interpreter's EvalSeries rejects
	// scalar-kind expressions, its EvalScalar series-kind.
	f := sharedFrame(t)
	if mustCompile(t, "count(total)", f).EvalSeries() != nil {
		t.Error("a scalar plan evaluated to a series")
	}
	if _, err := f.EvalSeries(q("count(total)")); err == nil {
		t.Error("EvalSeries accepted a scalar expression")
	}
	if _, err := f.EvalScalar(q("pct(adv-rc4 / total)")); err == nil {
		t.Error("EvalScalar accepted a series expression")
	}
}

// randomExpr generates an expression tree of bounded depth, in the
// canonical form ParseQuery builds, for the round-trip and parity property
// tests.
func randomExpr(rnd *rand.Rand, wantKind Kind, depth int) *Expr {
	cols := []string{
		"total", "established", "fingerprints", "adv-rc4", "neg-aead",
		"kex-forward-secret", "version:tls12", "version:ssl3", "class:aead",
		"kex:ecdhe", "ext:heartbeat", "curve:x25519", "curve:*", "tls13:tls13-google",
		"version:*", "class:*", "kex:*", "ext:*", "tls13:*",
	}
	column := func() *Expr { return &Expr{op: opCol, col: cols[rnd.Intn(len(cols))]} }
	months := []timeline.Month{
		timeline.M(2012, time.February), timeline.M(2015, time.September),
		timeline.M(2018, time.April), timeline.M(1999, time.January),
	}
	classes := []string{"aead", "cbc", "rc4", "des", "3des"}
	switch wantKind {
	case KindColumn:
		if depth <= 0 || rnd.Intn(2) == 0 {
			return column()
		}
		n := 1 + rnd.Intn(3)
		args := make([]*Expr, n)
		for i := range args {
			args[i] = randomExpr(rnd, KindColumn, depth-1)
		}
		return &Expr{op: opSum, args: args}
	case KindSeries:
		switch rnd.Intn(3) {
		case 0:
			return &Expr{op: opPosition, class: classes[rnd.Intn(len(classes))]}
		case 1:
			return randomExpr(rnd, KindColumn, depth-1)
		default:
			return &Expr{op: opPct, args: []*Expr{
				randomExpr(rnd, KindColumn, depth-1),
				randomExpr(rnd, KindColumn, depth-1),
			}}
		}
	default:
		switch rnd.Intn(4) {
		case 0:
			return &Expr{op: opAt, month: months[rnd.Intn(len(months))],
				args: []*Expr{randomExpr(rnd, KindSeries, depth-1)}}
		case 1:
			return &Expr{op: opOver, args: []*Expr{
				randomExpr(rnd, KindColumn, depth-1),
				randomExpr(rnd, KindColumn, depth-1),
			}}
		case 2:
			return &Expr{op: opCount, args: []*Expr{randomExpr(rnd, KindColumn, depth-1)}}
		default:
			reds := []string{opMean, opMin, opMax, opFirst, opLast}
			return &Expr{op: reds[rnd.Intn(len(reds))],
				args: []*Expr{randomExpr(rnd, KindSeries, depth-1)}}
		}
	}
}

// TestExprTextRoundTripProperty: random expressions and the catalog's own
// come back from their text as the same tree, spelled canonically or in
// capitals, so every spelling of a query reaches one cache entry and one
// plan, and a client holding only a catalog metric's text computes
// exactly what Frame.EvalFigure computes.
func TestExprTextRoundTripProperty(t *testing.T) {
	roundTrip := func(t *testing.T, e *Expr) {
		t.Helper()
		for _, src := range []string{e.String(), strings.ToUpper(e.String())} {
			reparsed, err := ParseQuery(src)
			if err != nil {
				t.Fatalf("reparse %q: %v", src, err)
			}
			if !reflect.DeepEqual(reparsed, e) {
				t.Fatalf("text round trip changed the tree: %q -> %q", e, reparsed)
			}
		}
	}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		roundTrip(t, randomExpr(rnd, Kind(rnd.Intn(3)), 3))
	}
	// A key's alias is the same column: it parses to the canonical tree and
	// prints the canonical text, so both spellings share one cache entry.
	t.Run("aliases-print-the-canonical-text", func(t *testing.T) {
		for alias, canonical := range map[string]string{
			"PCT(Version:TLSv12 / ESTABLISHED)":        "pct(version:tls12 / established)",
			"pct(tls13:tlsv13-draft18 / established)":  "pct(tls13:tls13-draft18 / established)",
			"count(version:sslv3)":                     "count(version:ssl3)",
			"sum(version:TLSv13-Google, tls13:tlsv13)": "sum(version:tls13-google, tls13:tls13)",
		} {
			e, err := ParseQuery(alias)
			if err != nil {
				t.Fatalf("%q: %v", alias, err)
			}
			if e.String() != canonical {
				t.Errorf("%q prints %q, want %q", alias, e, canonical)
			}
			roundTrip(t, e)
		}
	})
	t.Run("catalog-expr-serialized-parity", func(t *testing.T) {
		for _, spec := range Catalog() {
			for _, m := range spec.Metrics {
				roundTrip(t, m.Expr)
			}
		}
	})
}

// FuzzParseQuery: the parser must never panic, and any accepted input's
// canonical text must parse back to the very same tree — the invariant the
// query cache's raw-text lookup relies on (an entry stored under a canonical
// text is the answer to that text).
func FuzzParseQuery(fz *testing.F) {
	for _, spec := range Catalog() {
		for _, m := range spec.Metrics {
			fz.Add(m.Expr.String())
		}
	}
	fz.Add("at(pct(adv-tls13 / total), 2018-04)")
	fz.Add("over(null-negotiated / established)")
	fz.Add("max(pct(curve:x25519 / curve:*))")
	fz.Add("position(3des)")
	fz.Add("sum(kex:ecdhe, kex:tls13")
	fz.Add("pct((()))//,")
	fz.Fuzz(func(t *testing.T, src string) {
		e, err := ParseQuery(src)
		if err != nil {
			return
		}
		canonical := e.String()
		again, err := ParseQuery(canonical)
		if err != nil {
			t.Fatalf("canonical form %q of %q fails to parse: %v", canonical, src, err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("%q and its canonical form %q parse to different trees", src, canonical)
		}
	})
}

// TestQueryEvalAllocs pins the interpreter's allocation discipline: a
// catalog-shaped query allocates its result slice and one gathered slice per
// column it reads, and a sum-based query adds exactly one scratch column — no
// per-month garbage.
func TestQueryEvalAllocs(t *testing.T) {
	f := sharedFrame(t)
	pct := q("pct(version:tls12 / established)")
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.EvalSeries(pct); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("pct query: %.1f allocs/run, want 3 (the result slice, two columns)", n)
	}
	sum := q("pct(sum(kex:ecdhe, kex:tls13) / established)")
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.EvalSeries(sum); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("sum query: %.1f allocs/run, want 5 (result + one scratch column + three columns)", n)
	}
	// Scalar reads allocate at most the intermediate series and its columns.
	at := q("at(pct(adv-tls13 / total), 2018-04)")
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.EvalScalar(at); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("at query: %.1f allocs/run, want 3", n)
	}
}

// TestConcurrentCatalogEval hammers the shared catalog specs from many
// goroutines (run under -race): printing and evaluation must never write to
// the shared expression trees, or concurrent /figures requests would race.
func TestConcurrentCatalogEval(t *testing.T) {
	f := sharedFrame(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if figs := f.Figures(); len(figs) != 10 {
					t.Error("figure count")
					return
				}
				for _, spec := range Catalog() {
					for _, m := range spec.Metrics {
						if m.Expr.String() == "" {
							t.Errorf("%s: metric %s prints no text", spec.Name, m.Name)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestColumnNames: the plain-column vocabulary is exactly the 32 names the
// query surface has always served, sorted; every slot of the name table —
// each notary.Counter and each derived column — has a name of its own; and
// every name resolves.
func TestColumnNames(t *testing.T) {
	want := []string{
		"adv-3des", "adv-aead", "adv-aes128-gcm", "adv-aes256-gcm", "adv-anon",
		"adv-ccm", "adv-chacha", "adv-des", "adv-export", "adv-null", "adv-rc4",
		"adv-tls13", "anon-negotiated", "established", "export-negotiated",
		"fingerprints", "fp-3des", "fp-aead", "fp-conns", "fp-des", "fp-rc4",
		"heartbeat-ack", "kex-forward-secret", "neg-aead", "neg-aes128-gcm",
		"neg-aes256-gcm", "neg-chacha", "null-negotiated", "offers-heartbeat",
		"sslv2-hellos", "total", "unoffered-choice",
	}
	names := ColumnNames()
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ColumnNames:\n got %q\nwant %q", names, want)
	}
	if int(notary.NumCounters) > numPlain {
		t.Fatalf("%d notary counters do not fit %d plain columns", notary.NumCounters, numPlain)
	}
	for i, n := range plainNames {
		if n == "" {
			t.Errorf("plain column %d has no query name", i)
		} else if plainIndex[n] != i {
			t.Errorf("plain columns %d and %d share the name %q", i, plainIndex[n], n)
		}
	}
	f := sharedFrame(t)
	for _, n := range names {
		mustQuery(t, f, n)
	}
	// Column reads only what a query could name: a name no query accepts is
	// no column, even where its key would look up a real cell (ext:bogus is
	// not extension 0).
	for _, n := range []string{"bogus", "nosuch:tls12", "ext:bogus", "fp:bogus"} {
		if c := f.Column(n); c != nil {
			t.Errorf("Column(%q) = %v, want nil", n, c)
		}
	}
}

// TestPositionClassSpellings: position() accepts every class: spelling. The
// five Figure 5 classes read the month's accumulators; stream and other are
// valid and identically zero.
func TestPositionClassSpellings(t *testing.T) {
	agg, f := sharedAgg(t), sharedFrame(t)
	tracked := 0
	for key, name := range classKeys {
		res := mustQuery(t, f, "position("+key+")")
		class, ok := notary.ParsePosClass(name)
		if ok {
			tracked++
		}
		for i, p := range res.Series.Points {
			want := 0.0
			if pos := agg.Stats(f.Months[i]).Pos[class]; ok && pos.Count != 0 {
				want = 100 * pos.Sum / float64(pos.Count)
			}
			if p.Value != want {
				t.Fatalf("position(%s) at %v = %v, want %v", key, p.Month, p.Value, want)
			}
		}
		if ok && mustQuery(t, f, "max(position("+key+"))").Value == 0 {
			t.Errorf("position(%s) is identically zero on the study — vacuous", key)
		}
	}
	if tracked != int(notary.NumPosClasses) {
		t.Errorf("classKeys spells %d of the %d position classes", tracked, notary.NumPosClasses)
	}
}
