package analysis

import (
	"fmt"
	"strings"
)

// The compact query grammar, the one spelling of an Expr: the catalog, the
// CLI and POST /query all speak it. Case-insensitive; whitespace is free.
// EBNF:
//
//	expr     := call | column
//	call     := ratio | reduce | "sum" "(" expr {"," expr} ")"
//	          | "position" "(" class ")" | "at" "(" expr "," month ")"
//	ratio    := ("pct" | "ratio" | "over") "(" expr "/" expr ")"
//	reduce   := ("count" | "mean" | "min" | "max" | "first" | "last") "(" expr ")"
//	column   := name | family ":" (key | "*")
//	month    := YYYY "-" MM
//
// Examples:
//
//	pct(version:tls12 / established)
//	pct(sum(kex:ecdhe, kex:tls13) / established)
//	at(pct(adv-tls13 / total), 2018-04)
//	over(null-negotiated / established)
//	position(3des)
//	max(pct(curve:x25519 / curve:*))
//
// "ratio" parses as an alias of "pct"; the canonical rendering (Expr.String)
// always prints "pct".

// queryOps names the call operations the parser accepts, the ratio alias
// included.
var queryOps = map[string]string{
	"sum": opSum, "pct": opPct, "ratio": opPct, "over": opOver,
	"position": opPosition, "at": opAt, "count": opCount,
	"mean": opMean, "min": opMin, "max": opMax, "first": opFirst, "last": opLast,
}

// ParseQuery parses the compact text grammar into an expression. It is the
// only constructor of an Expr and checks each node as it builds it — the
// column at a bare word, the class in position, the month in at and the
// kind of every operand — so an expression it returns cannot fail to
// compile. Selectors are stored folded, so String prints the canonical text,
// and ParseQuery(e.String()) rebuilds e exactly.
func ParseQuery(src string) (*Expr, error) {
	p := &queryParser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", src, err)
	}
	if tok, _ := p.next(); tok != "" {
		return nil, fmt.Errorf("query %q: trailing %q", src, tok)
	}
	return e, nil
}

// queryParser is a tiny recursive-descent parser over four token shapes:
// words (column selectors, op names, month literals), "(", ")", "," and "/".
type queryParser struct {
	src string
	pos int
}

// isWordByte reports bytes that form word tokens: names, family:key
// selectors, wildcards and month literals.
func isWordByte(c byte) bool {
	return c == ':' || c == '*' || c == '-' || c == '_' || c == '.' ||
		'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// next returns the next token ("" at end of input) and its position.
func (p *queryParser) next() (string, int) {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.pos
	}
	start := p.pos
	c := p.src[p.pos]
	if c == '(' || c == ')' || c == ',' || c == '/' {
		p.pos++
		return p.src[start:p.pos], start
	}
	if !isWordByte(c) {
		p.pos++
		return p.src[start:p.pos], start
	}
	for p.pos < len(p.src) && isWordByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], start
}

// peek looks at the next token without consuming it.
func (p *queryParser) peek() string {
	save := p.pos
	tok, _ := p.next()
	p.pos = save
	return tok
}

func (p *queryParser) expect(want string) error {
	tok, at := p.next()
	if tok != want {
		return fmt.Errorf("expected %q at offset %d, got %q", want, at, tok)
	}
	return nil
}

func (p *queryParser) parseExpr() (*Expr, error) {
	tok, at := p.next()
	if tok == "" {
		return nil, fmt.Errorf("unexpected end of query")
	}
	if !isWordByte(tok[0]) {
		return nil, fmt.Errorf("unexpected %q at offset %d", tok, at)
	}
	op, isCall := queryOps[fold(tok)]
	if !isCall || p.peek() != "(" {
		col, err := checkColumn(tok)
		if err != nil {
			return nil, err
		}
		return &Expr{op: opCol, col: col}, nil
	}
	p.next() // consume "("
	e := &Expr{op: op}
	switch op {
	case opPct, opOver:
		num, err := p.arg(op, KindColumn)
		if err != nil {
			return nil, err
		}
		if err := p.expect("/"); err != nil {
			return nil, err
		}
		den, err := p.arg(op, KindColumn)
		if err != nil {
			return nil, err
		}
		e.args = []*Expr{num, den}
	case opSum:
		for {
			a, err := p.arg(op, KindColumn)
			if err != nil {
				return nil, err
			}
			e.args = append(e.args, a)
			if p.peek() != "," {
				break
			}
			p.next()
		}
	case opPosition:
		tok, at := p.next()
		e.class = fold(tok)
		if _, ok := classKeys[e.class]; !ok {
			return nil, fmt.Errorf("unknown suite class %q at offset %d", tok, at)
		}
	case opAt:
		a, err := p.arg(op, KindSeries)
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		tok, _ := p.next()
		m, err := parseMonth(tok)
		if err != nil {
			return nil, err
		}
		e.args, e.month = []*Expr{a}, m
	case opCount:
		a, err := p.arg(op, KindColumn)
		if err != nil {
			return nil, err
		}
		e.args = []*Expr{a}
	default: // the series reductions
		a, err := p.arg(op, KindSeries)
		if err != nil {
			return nil, err
		}
		e.args = []*Expr{a}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return e, nil
}

// arg parses one operand of op and checks that it is of kind k; a column
// passes where a series is wanted (it promotes to its raw counts).
func (p *queryParser) arg(op string, k Kind) (*Expr, error) {
	a, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if got := a.Kind(); got == k || k == KindSeries && got == KindColumn {
		return a, nil
	}
	return nil, fmt.Errorf("%s needs a %s argument, got %s (%s)", op, k, a.Kind(), a)
}

// String renders the expression in the canonical text grammar, selectors
// folded to lowercase; ParseQuery(e.String()) reproduces e exactly.
func (e *Expr) String() string {
	var b strings.Builder
	e.format(&b)
	return b.String()
}

func (e *Expr) format(b *strings.Builder) {
	switch e.op {
	case opCol:
		b.WriteString(e.col)
	case opPct, opOver:
		b.WriteString(e.op)
		b.WriteByte('(')
		e.args[0].format(b)
		b.WriteString(" / ")
		e.args[1].format(b)
		b.WriteByte(')')
	case opPosition:
		b.WriteString("position(")
		b.WriteString(e.class)
		b.WriteByte(')')
	case opAt:
		b.WriteString("at(")
		e.args[0].format(b)
		b.WriteString(", ")
		b.WriteString(e.month.String())
		b.WriteByte(')')
	default:
		b.WriteString(e.op)
		b.WriteByte('(')
		for i, a := range e.args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.format(b)
		}
		b.WriteByte(')')
	}
}
