package analysis

// The tree interpreter: the query engine's first evaluator and, since the
// plan compiler (plan.go) took over every production path, the reference the
// differential tests hold it to — TestCompileCatalogParity,
// TestCompileRandomParity and FuzzCompileEval require a compiled plan to
// answer bit-for-bit what this file computes. It re-walks the tree and
// re-resolves column selectors through the vocabulary maps on every
// evaluation, which is what makes it a useful oracle: it shares the
// vocabulary with the compiler and nothing else. It does not re-check the
// tree: ParseQuery, the only constructor of an Expr, has checked it.

import (
	"fmt"
	"strings"
	"testing"

	"tlsage/internal/notary"
)

// mustCompile parses and compiles src against f the way every production
// caller does: ParseQuery, then Compile.
func mustCompile(t testing.TB, src string, f *Frame) *Plan {
	t.Helper()
	e, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := Compile(e, f)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return p
}

// mustQuery answers src through the compiled plan and requires the
// interpreter to agree bit for bit, so a test of the grammar's semantics
// checks the evaluator production runs and the oracle in one call.
func mustQuery(t *testing.T, f *Frame, src string) QueryResult {
	t.Helper()
	e, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := Compile(e, f)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	got := p.Eval()
	assertSameResult(t, e, f.Query(e), got)
	return got
}

// --- evaluation ---

// evalColumn resolves a column-kind expression to a dense []int
// aligned with the frame's months; nil means all-zero. Only sum nodes and
// family wildcards allocate (one scratch column each).
func (f *Frame) evalColumn(e *Expr) []int {
	switch e.op {
	case opCol:
		name := e.col
		if i, ok := plainIndex[name]; ok {
			return f.Plain[i]
		}
		i := strings.IndexByte(name, ':')
		def := columnFamilies[name[:i]]
		if key := name[i+1:]; key != "*" {
			return def.column(f, key)
		}
		out := make([]int, f.Len())
		for _, c := range def.all(f) {
			for i, v := range c {
				out[i] += v
			}
		}
		return out
	case opSum:
		out := make([]int, f.Len())
		for _, a := range e.args {
			for i, v := range f.evalColumn(a) {
				out[i] += v
			}
		}
		return out
	}
	panic(fmt.Sprintf("analysis: evalColumn on %q node", e.op))
}

// evalSeries evaluates a series- or column-kind expression into
// one float64 per month. The returned slice is the only allocation for
// pct/position over plain columns.
func (f *Frame) evalSeries(e *Expr) []float64 {
	out := make([]float64, f.Len())
	switch e.op {
	case opPct:
		num, den := f.evalColumn(e.args[0]), f.evalColumn(e.args[1])
		for i := range out {
			out[i] = pctAt(num, den, i)
		}
	case opPosition:
		// stream and other are valid spellings Figure 5 does not track.
		if class, ok := notary.ParsePosClass(classKeys[e.class]); ok {
			sums, counts := f.Pos[class].Sum, f.Pos[class].Count
			for i := range out {
				if c := at(counts, i); c != 0 {
					out[i] = 100 * sums[i] / float64(c)
				}
			}
		}
	default: // column promotion: raw counts
		for i, v := range f.evalColumn(e) {
			out[i] = float64(v)
		}
	}
	return out
}

// evalScalar evaluates a scalar-kind expression.
func (f *Frame) evalScalar(e *Expr) float64 {
	switch e.op {
	case opAt:
		row, ok := f.Row(e.month)
		if !ok {
			return 0
		}
		return f.evalSeries(e.args[0])[row]
	case opOver:
		num, den := sumCol(f.evalColumn(e.args[0])), sumCol(f.evalColumn(e.args[1]))
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	case opCount:
		return float64(sumCol(f.evalColumn(e.args[0])))
	}
	vals := f.evalSeries(e.args[0])
	if len(vals) == 0 {
		return 0
	}
	switch e.op {
	case opMean:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	case opMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case opMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case opFirst:
		return vals[0]
	case opLast:
		return vals[len(vals)-1]
	}
	panic(fmt.Sprintf("analysis: evalScalar on %q node", e.op))
}

// EvalSeries evaluates e as a monthly series (columns evaluate to their raw
// counts). The result slice is the only per-month allocation for
// plain-column expressions.
func (f *Frame) EvalSeries(e *Expr) ([]float64, error) {
	if e.Kind() == KindScalar {
		return nil, fmt.Errorf("expression %s is a scalar, not a series", e)
	}
	return f.evalSeries(e), nil
}

// EvalScalar evaluates e as a single value.
func (f *Frame) EvalScalar(e *Expr) (float64, error) {
	if e.Kind() != KindScalar {
		return 0, fmt.Errorf("expression %s is a %s, not a scalar (wrap it in at/over/mean/...)", e, e.Kind())
	}
	return f.evalScalar(e), nil
}

// Query evaluates an expression of any kind against the frame. Series
// results share the frame's month index (Series.Value is O(1)).
func (f *Frame) Query(e *Expr) QueryResult {
	src := e.String()
	if e.Kind() == KindScalar {
		return QueryResult{Query: src, Kind: "scalar", Value: f.evalScalar(e)}
	}
	vals := f.evalSeries(e)
	pts := make([]Point, len(vals))
	for i, v := range vals {
		pts[i] = Point{Month: f.Months[i], Value: v}
	}
	return QueryResult{
		Query:  src,
		Kind:   "series",
		Series: Series{Name: src, Points: pts, index: f.index},
	}
}

// at reads column c at row i, treating a nil (never-observed) column as 0.
func at(c []int, i int) int {
	if c == nil {
		return 0
	}
	return c[i]
}

// pctAt returns 100·num/den at row i with the figure convention that an
// empty denominator yields 0. A negative row (month outside the frame) also
// yields 0, matching the old nil-MonthStats behaviour.
func pctAt(num, den []int, i int) float64 {
	if i < 0 || at(den, i) == 0 {
		return 0
	}
	return 100 * float64(at(num, i)) / float64(at(den, i))
}
