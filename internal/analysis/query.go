package analysis

import (
	"fmt"
	"strings"
)

// The compact query grammar, the human-facing encoding of Expr (JSON is the
// machine-facing one). Case-insensitive; whitespace is free. EBNF:
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

// queryOps names the call operations the parser accepts (beyond the ratio
// alias) and their slash-separated vs comma-separated argument shape.
var queryOps = map[string]string{
	"sum": OpSum, "pct": OpPct, "ratio": OpPct, "over": OpOver,
	"position": OpPosition, "at": OpAt, "count": OpCount,
	"mean": OpMean, "min": OpMin, "max": OpMax, "first": OpFirst, "last": OpLast,
}

// ParseQuery parses the compact text grammar into a validated expression.
func ParseQuery(src string) (*Expr, error) {
	p := &queryParser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", src, err)
	}
	if tok, _ := p.next(); tok != "" {
		return nil, fmt.Errorf("query %q: trailing %q", src, tok)
	}
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("query %q: %w", src, err)
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
		// A bare word is a column selector; validation resolves it.
		return &Expr{Op: OpCol, Col: tok}, nil
	}
	p.next() // consume "("
	e := &Expr{Op: op}
	switch op {
	case OpPct, OpOver:
		num, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("/"); err != nil {
			return nil, err
		}
		den, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		e.Args = []*Expr{num, den}
	case OpSum:
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			e.Args = append(e.Args, a)
			if p.peek() != "," {
				break
			}
			p.next()
		}
	case OpPosition:
		tok, at := p.next()
		if tok == "" || !isWordByte(tok[0]) {
			return nil, fmt.Errorf("position needs a suite class at offset %d", at)
		}
		e.Class = tok
	case OpAt:
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		m, at := p.next()
		if m == "" {
			return nil, fmt.Errorf("at needs a YYYY-MM month at offset %d", at)
		}
		e.Args, e.Month = []*Expr{a}, m
	default: // single-argument reductions
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		e.Args = []*Expr{a}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return e, nil
}

// String renders the expression in the canonical text grammar, selectors
// folded to lowercase; for a validated expression, ParseQuery(e.String())
// reproduces e up to the case of its selectors.
func (e *Expr) String() string {
	var b strings.Builder
	e.format(&b)
	return b.String()
}

func (e *Expr) format(b *strings.Builder) {
	if e == nil {
		b.WriteString("<nil>")
		return
	}
	switch e.Op {
	case OpCol:
		b.WriteString(fold(e.Col))
	case OpPct, OpOver:
		b.WriteString(e.Op)
		b.WriteByte('(')
		if len(e.Args) == 2 {
			e.Args[0].format(b)
			b.WriteString(" / ")
			e.Args[1].format(b)
		}
		b.WriteByte(')')
	case OpPosition:
		b.WriteString("position(")
		b.WriteString(fold(e.Class))
		b.WriteByte(')')
	case OpAt:
		b.WriteString("at(")
		if len(e.Args) == 1 {
			e.Args[0].format(b)
		}
		b.WriteString(", ")
		b.WriteString(e.Month)
		b.WriteByte(')')
	default:
		b.WriteString(e.Op)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.format(b)
		}
		b.WriteByte(')')
	}
}
