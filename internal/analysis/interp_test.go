package analysis

// The tree interpreter: the query engine's first evaluator and, since the
// plan compiler (plan.go) took over every production path, the reference the
// differential tests hold it to — TestCompileCatalogParity,
// TestCompileRandomParity and FuzzCompileEval require a compiled plan to
// answer bit-for-bit what this file computes. It re-walks the tree,
// re-validates it and re-resolves column selectors through the vocabulary
// maps on every evaluation, which is what makes it a useful oracle: it shares
// the vocabulary with the compiler and nothing else.

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
	want, err := f.Query(e)
	if err != nil {
		t.Fatalf("interpret %q: %v", src, err)
	}
	got := p.Eval()
	assertSameResult(t, e, want, got)
	return got
}

// --- evaluation ---

// evalColumn resolves a validated column-kind expression to a dense []int
// aligned with the frame's months; nil means all-zero. Only sum nodes and
// family wildcards allocate (one scratch column each).
func (f *Frame) evalColumn(e *Expr) []int {
	switch e.Op {
	case OpCol:
		// fold is a no-op (and alloc-free) for canonical selectors; it keeps
		// evaluation of a JSON-decoded, never-canonicalized tree working.
		name := fold(e.Col)
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
	case OpSum:
		out := make([]int, f.Len())
		for _, a := range e.Args {
			for i, v := range f.evalColumn(a) {
				out[i] += v
			}
		}
		return out
	}
	panic(fmt.Sprintf("analysis: evalColumn on %q node", e.Op))
}

// evalSeries evaluates a validated series- or column-kind expression into
// one float64 per month. The returned slice is the only allocation for
// pct/position over plain columns.
func (f *Frame) evalSeries(e *Expr) []float64 {
	out := make([]float64, f.Len())
	switch e.Op {
	case OpPct:
		num, den := f.evalColumn(e.Args[0]), f.evalColumn(e.Args[1])
		for i := range out {
			out[i] = pctAt(num, den, i)
		}
	case OpPosition:
		// stream and other are valid spellings Figure 5 does not track.
		if class, ok := notary.ParsePosClass(classKeys[fold(e.Class)]); ok {
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

// evalScalar evaluates a validated scalar-kind expression.
func (f *Frame) evalScalar(e *Expr) float64 {
	switch e.Op {
	case OpAt:
		m, _ := parseMonth(e.Month) // validated
		row, ok := f.Row(m)
		if !ok {
			return 0
		}
		return f.evalSeries(e.Args[0])[row]
	case OpOver:
		num, den := sumCol(f.evalColumn(e.Args[0])), sumCol(f.evalColumn(e.Args[1]))
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	case OpCount:
		return float64(sumCol(f.evalColumn(e.Args[0])))
	}
	vals := f.evalSeries(e.Args[0])
	if len(vals) == 0 {
		return 0
	}
	switch e.Op {
	case OpMean:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	case OpMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case OpMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case OpFirst:
		return vals[0]
	case OpLast:
		return vals[len(vals)-1]
	}
	panic(fmt.Sprintf("analysis: evalScalar on %q node", e.Op))
}

// EvalSeries validates e and evaluates it as a monthly series (columns
// evaluate to their raw counts). Beyond validation bookkeeping, the result
// slice is the only per-month allocation for plain-column expressions.
func (f *Frame) EvalSeries(e *Expr) ([]float64, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if e.Kind() == KindScalar {
		return nil, fmt.Errorf("expression %s is a scalar, not a series", e)
	}
	return f.evalSeries(e), nil
}

// EvalScalar validates e and evaluates it as a single value.
func (f *Frame) EvalScalar(e *Expr) (float64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	if e.Kind() != KindScalar {
		return 0, fmt.Errorf("expression %s is a %s, not a scalar (wrap it in at/over/mean/...)", e, e.Kind())
	}
	return f.evalScalar(e), nil
}

// Query validates and evaluates an expression of any kind against the frame.
// Series results share the frame's month index (Series.Value is O(1)).
func (f *Frame) Query(e *Expr) (QueryResult, error) {
	if err := e.Validate(); err != nil {
		return QueryResult{}, err
	}
	src := e.String()
	if e.Kind() == KindScalar {
		return QueryResult{Query: src, Kind: "scalar", Value: f.evalScalar(e)}, nil
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
	}, nil
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
