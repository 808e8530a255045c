package analysis

// The plan compiler: the query engine's one evaluator. A Plan resolves an
// expression's column selectors through the vocabulary maps exactly once,
// against one Frame's column layout, and leaves behind a flat program.
// Evaluation has one loop body, seriesAt, which computes the series at one
// row; EvalScalar and Eval loop over it.
//
// Compilation lowers an expression as follows:
//
//   - column selectors (named, family:key, family:* wildcards) are gathered
//     from the frame's rows into dense []int columns (Frame.Column) — wildcard
//     and sum nodes materialize their element-wise total — once at compile
//     time, so evaluation never allocates a scratch column;
//   - the series shapes become one of four kernels (zero, a column's raw
//     counts, pct(column / column) with the figure convention that an empty
//     denominator yields 0, and the Figure 5 position series);
//   - scalar reductions (at/over/count/mean/min/max/first/last) stream the
//     kernel's series value-by-value, so no intermediate slice is ever
//     materialized.
//
// A Plan is bound to the Frame it was compiled against (its kernels hold
// columns gathered from that frame), so holders re-Compile when the study's
// generation advances. Plans are immutable after Compile and safe for
// concurrent evaluation.
//
// Compiled evaluation is bit-for-bit identical to the tree interpreter it
// replaced, which lives on as the test oracle in interp_test.go —
// plan_test.go proves it differentially for the whole catalog and for
// randomly generated expressions, and FuzzCompileEval keeps it that way.

import (
	"fmt"

	"tlsage/internal/notary"
)

// planKernel selects what seriesAt computes.
type planKernel uint8

const (
	// kernelZero: the series is identically zero (a never-observed column,
	// a class position() accepts but Figure 5 does not track, or a ratio with
	// a missing operand).
	kernelZero planKernel = iota
	// kernelCol: raw counts of one resolved column (column→series promotion).
	kernelCol
	// kernelPct: the specialized pct(column / column) shape.
	kernelPct
	// kernelPosition: the Figure 5 relative-position series.
	kernelPosition
)

// reduceOp selects the scalar reduction applied to the kernel's series.
type reduceOp uint8

const (
	reduceNone reduceOp = iota // series-kind plan, no reduction
	reduceAt
	reduceOver
	reduceCount
	reduceMean
	reduceMin
	reduceMax
	reduceFirst
	reduceLast
)

// Plan is a compiled, frame-bound query program. Compile it once per
// (expression, frame) pair and evaluate it any number of times; evaluation
// performs no vocabulary lookups and no allocation beyond the result slice
// (none at all for scalars).
type Plan struct {
	frame *Frame
	kind  Kind
	query string // canonical text form, the cache key

	kernel planKernel
	col    []int // kernelCol
	num    []int // kernelPct numerator, reduceOver numerator
	den    []int // kernelPct denominator, reduceOver denominator

	posSum   []float64 // kernelPosition
	posCount []int     // kernelPosition

	reduce reduceOp
	row    int // reduceAt: resolved row index, -1 when outside the frame
}

// Compile lowers an expression into a flat plan bound to f's column layout.
// ParseQuery checked every node, so only a nil frame fails; compilation is
// the only place selector resolution happens, and the returned plan
// evaluates without ever consulting the column vocabulary again.
func Compile(e *Expr, f *Frame) (*Plan, error) {
	if f == nil {
		return nil, fmt.Errorf("analysis: Compile on nil frame")
	}
	return f.plan(e), nil
}

// plan is Compile on a frame that exists: the package's static expressions
// compile through it, with no error to handle.
func (f *Frame) plan(e *Expr) *Plan {
	p := &Plan{frame: f, kind: e.Kind(), query: e.String(), row: -1}
	switch p.kind {
	case KindColumn, KindSeries:
		p.compileSeries(e)
	default:
		p.compileScalar(e)
	}
	return p
}

// compileColumn gathers a column-kind expression into one dense []int
// aligned with the frame's months. Sum nodes and family wildcards
// materialize their total here, at compile time; nil means all-zero.
func (p *Plan) compileColumn(e *Expr) []int {
	f := p.frame
	switch e.op {
	case opCol:
		return f.Column(e.col)
	case opSum:
		out := make([]int, f.Len())
		for _, a := range e.args {
			if c := p.compileColumn(a); c != nil {
				for i, v := range c {
					out[i] += v
				}
			}
		}
		return out
	}
	panic(fmt.Sprintf("analysis: compileColumn on %q node", e.op))
}

// compileSeries lowers a series- or column-kind expression into the plan's
// kernel slots.
func (p *Plan) compileSeries(e *Expr) {
	switch e.op {
	case opPct:
		num := p.compileColumn(e.args[0])
		den := p.compileColumn(e.args[1])
		if num == nil || den == nil {
			// 100·0/den and n/0 both yield 0 under the figure convention.
			p.kernel = kernelZero
			return
		}
		p.kernel, p.num, p.den = kernelPct, num, den
	case opPosition:
		class, ok := notary.ParsePosClass(classKeys[e.class])
		if !ok { // stream, other: valid spellings Figure 5 does not track
			p.kernel = kernelZero
			return
		}
		p.posSum, p.posCount = p.frame.position(class)
		p.kernel = kernelPosition
	default: // column promotion: raw counts
		if col := p.compileColumn(e); col != nil {
			p.kernel, p.col = kernelCol, col
		} else {
			p.kernel = kernelZero
		}
	}
}

// compileScalar lowers a scalar-kind expression: the reductions that fold
// whole columns (over/count) keep the resolved columns, the series
// reductions keep the inner kernel and stream it at eval time.
func (p *Plan) compileScalar(e *Expr) {
	switch e.op {
	case opAt:
		p.reduce = reduceAt
		if row, ok := p.frame.Row(e.month); ok {
			p.row = row
		}
		p.compileSeries(e.args[0])
	case opOver:
		p.reduce = reduceOver
		p.num = p.compileColumn(e.args[0])
		p.den = p.compileColumn(e.args[1])
	case opCount:
		p.reduce = reduceCount
		p.col = p.compileColumn(e.args[0])
	default:
		switch e.op {
		case opMean:
			p.reduce = reduceMean
		case opMin:
			p.reduce = reduceMin
		case opMax:
			p.reduce = reduceMax
		case opFirst:
			p.reduce = reduceFirst
		case opLast:
			p.reduce = reduceLast
		}
		p.compileSeries(e.args[0])
	}
}

// seriesAt evaluates the plan's series at one row. It is the only place the
// kernels' arithmetic is written: the series evaluators collect it row by
// row and the scalar reductions stream it, so they never materialize it.
func (p *Plan) seriesAt(i int) float64 {
	switch p.kernel {
	case kernelCol:
		return float64(p.col[i])
	case kernelPct:
		if d := p.den[i]; d != 0 {
			return 100 * float64(p.num[i]) / float64(d)
		}
		return 0
	case kernelPosition:
		if c := p.posCount[i]; c != 0 {
			return 100 * p.posSum[i] / float64(c)
		}
		return 0
	}
	return 0
}

// EvalScalar evaluates a scalar-kind plan with zero allocations: the
// reduction streams seriesAt instead of materializing the series.
func (p *Plan) EvalScalar() float64 {
	switch p.reduce {
	case reduceAt:
		if p.row < 0 {
			return 0
		}
		return p.seriesAt(p.row)
	case reduceOver:
		num, den := sumCol(p.num), sumCol(p.den)
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	case reduceCount:
		return float64(sumCol(p.col))
	}
	n := p.frame.Len()
	if n == 0 {
		return 0
	}
	switch p.reduce {
	case reduceMean:
		s := 0.0
		for i := 0; i < n; i++ {
			s += p.seriesAt(i)
		}
		return s / float64(n)
	case reduceMin:
		m := p.seriesAt(0)
		for i := 1; i < n; i++ {
			if v := p.seriesAt(i); v < m {
				m = v
			}
		}
		return m
	case reduceMax:
		m := p.seriesAt(0)
		for i := 1; i < n; i++ {
			if v := p.seriesAt(i); v > m {
				m = v
			}
		}
		return m
	case reduceFirst:
		return p.seriesAt(0)
	case reduceLast:
		return p.seriesAt(n - 1)
	}
	panic(fmt.Sprintf("analysis: EvalScalar on series-kind plan %q", p.query))
}

// Eval evaluates the plan into the QueryResult the query surface serves.
func (p *Plan) Eval() QueryResult {
	if p.kind == KindScalar {
		return QueryResult{Query: p.query, Kind: "scalar", Value: p.EvalScalar()}
	}
	f := p.frame
	pts := make([]Point, f.Len())
	for i := range pts {
		pts[i] = Point{Month: f.Months[i], Value: p.seriesAt(i)}
	}
	return QueryResult{
		Query:  p.query,
		Kind:   "series",
		Series: Series{Name: p.query, Points: pts, index: f.index},
	}
}
