package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"tlsage/internal/clientdb"
	"tlsage/internal/fingerprint"
	"tlsage/internal/notary"
	"tlsage/internal/timeline"
)

// Scalar is one named paper-vs-measured comparison.
type Scalar struct {
	ID       string  // experiment id, e.g. "S7a"
	Name     string  // human description
	Paper    float64 // the value printed in the paper
	Measured float64
	Unit     string // "%" or "days" or ""
}

// Deviation returns the absolute difference.
func (s Scalar) Deviation() float64 {
	d := s.Measured - s.Paper
	if d < 0 {
		return -d
	}
	return d
}

// passiveScalarSpecs declares the unconditional passive scalars as query
// expressions: a monthly pct read through at(), matching the figure
// convention that a missing month or empty denominator yields 0.
var passiveScalarSpecs = []struct {
	ID, Name string
	Paper    float64
	Expr     *Expr
}{
	{"S-F1a", "TLS 1.0 negotiated, Feb 2018", 2.8, q("at(pct(version:tls10 / established), 2018-02)")},
	{"S-F1b", "TLS 1.2 negotiated, Feb 2018", 90, q("at(pct(version:tls12 / established), 2018-02)")},
	{"S7a", "TLS 1.3 client support, Feb 2018", 0.5, q("at(pct(adv-tls13 / total), 2018-02)")},
	{"S7b", "TLS 1.3 client support, Mar 2018", 9.8, q("at(pct(adv-tls13 / total), 2018-03)")},
	{"S7c", "TLS 1.3 client support, Apr 2018", 23.6, q("at(pct(adv-tls13 / total), 2018-04)")},
	{"S7d", "TLS 1.3 negotiated, Apr 2018", 1.3, q("at(pct(version:tls13 / established), 2018-04)")},
	{"S3c", "heartbeat negotiated, 2018", 3.0, q("at(pct(heartbeat-ack / total), 2018-03)")},
	{"S-F3a", "3DES advertised, Mar 2018", 69, q("at(pct(adv-3des / total), 2018-03)")},
	{"S-F7a", "export advertised, 2012", 28.19, q("at(pct(adv-export / total), 2012-06)")},
	{"S-F7b", "export advertised, 2018", 1.03, q("at(pct(adv-export / total), 2018-03)")},
}

// The guarded scalar rows' expressions, parsed once at package init.
var (
	exprNullNegotiated = q("over(null-negotiated / established)")
	exprAnonNegotiated = q("over(anon-negotiated / established)")
	exprSecp256r1Share = q("over(curve:secp256r1 / curve:*)")
	exprSecp384r1Share = q("over(curve:secp384r1 / curve:*)")
	exprX25519Share    = q("over(curve:x25519 / curve:*)")
	exprX25519Feb18    = q("at(pct(curve:x25519 / curve:*), 2018-02)")
)

// scalarOf compiles a static scalar expression against the frame and
// evaluates it.
func (f *Frame) scalarOf(e *Expr) float64 { return f.plan(e).EvalScalar() }

// PassiveScalarsFrame extracts the passive scalars from a frame snapshot.
// Every value is the evaluation of a query-grammar expression,
// compiled against the frame where it is read; the few rows the seed
// emitted conditionally keep their presence guards.
func PassiveScalarsFrame(f *Frame) []Scalar {
	out := make([]Scalar, 0, len(passiveScalarSpecs)+6)
	for _, s := range passiveScalarSpecs {
		out = append(out, Scalar{s.ID, s.Name, s.Paper, f.scalarOf(s.Expr), "%"})
	}

	// Whole-dataset NULL and anonymous negotiation rates (§6.1, §6.2).
	if sumCol(f.Plain[notary.Established]) > 0 {
		out = append(out,
			Scalar{"S-61", "NULL negotiated, whole dataset", 2.84,
				f.scalarOf(exprNullNegotiated), "%"},
			Scalar{"S-62", "anonymous negotiated, whole dataset", 0.17,
				f.scalarOf(exprAnonNegotiated), "%"},
		)
	}

	// §6.3.3 curve shares: each named curve over the all-curve wildcard.
	out = append(out,
		Scalar{"S6a", "secp256r1 share, whole dataset", 84.4,
			f.scalarOf(exprSecp256r1Share), "%"},
		Scalar{"S6b", "secp384r1 share, whole dataset", 8.6,
			f.scalarOf(exprSecp384r1Share), "%"},
		Scalar{"S6c", "x25519 share, whole dataset", 6.7,
			f.scalarOf(exprX25519Share), "%"},
	)
	if feb18, ok := f.Row(timeline.M(2018, time.February)); ok {
		grand := 0
		for _, c := range f.Curve {
			grand += c[feb18]
		}
		if grand > 0 {
			out = append(out, Scalar{"S6d", "x25519 share, Feb 2018", 22.2,
				f.scalarOf(exprX25519Feb18), "%"})
		}
	}
	return out
}

// FingerprintScalars extracts the §4.1 lifetime scalars.
func FingerprintScalars(agg *notary.Aggregate) []Scalar {
	st := fingerprint.ComputeDurationStats(agg.FPDurations())
	if st.Total == 0 {
		return nil
	}
	singleShare := 100 * float64(st.SingleDay) / float64(st.Total)
	longShare := 100 * float64(st.LongLived) / float64(st.Total)
	return []Scalar{
		{"S5a", "median fingerprint duration", 1, st.MedianDays, "days"},
		{"S5b", "single-day fingerprints", 100 * 42188.0 / 69874.0, singleShare, "%"},
		{"S5c", "fingerprints seen >1200 days", 100 * 1203.0 / 69874.0, longShare, "%"},
	}
}

// RenderScalars writes a paper-vs-measured table.
func RenderScalars(w io.Writer, title string, scalars []Scalar) error {
	sorted := make([]Scalar, len(scalars))
	copy(sorted, scalars)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-8s %-42s %10s %10s %6s\n",
		title, "id", "metric", "paper", "measured", "unit")
	for _, s := range sorted {
		fmt.Fprintf(&b, "%-8s %-42s %10.2f %10.2f %6s\n",
			s.ID, s.Name, s.Paper, s.Measured, s.Unit)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Table2Report reproduces Table 2 against a traffic aggregate and the
// fingerprint database: per-class fingerprint counts from the DB and
// coverage (share of fingerprint-bearing connections attributed per class).
type Table2Report struct {
	Rows          []Table2Row
	TotalFPs      int
	TotalCoverage float64 // % of fingerprinted connections attributed
}

// Table2Row is one class row.
type Table2Row struct {
	Class    string
	NumFPs   int
	Coverage float64 // % of connections attributed to this class
}

// table2ClassExprs declares Table 2's per-class measurements as static query
// expressions over the agent: family, keyed by clientdb class name: coverage
// is the whole-window share of fingerprinted connections attributed to the
// class, conns the raw attributed volume (the row ranking key).
var table2ClassExprs = func() map[string]struct{ coverage, conns *Expr } {
	out := make(map[string]struct{ coverage, conns *Expr }, len(agentKeys))
	for slug, class := range agentKeys {
		out[class] = struct{ coverage, conns *Expr }{
			coverage: q("over(agent:" + slug + " / fp-conns)"),
			conns:    q("count(agent:" + slug + ")"),
		}
	}
	return out
}()

// exprTable2TotalCoverage is Table 2's "All" coverage: every attributed
// connection over every fingerprinted connection.
var exprTable2TotalCoverage = q("over(agent:* / fp-conns)")

// BuildTable2Frame reproduces Table 2 from a frame through the query surface:
// every coverage number is the evaluation of an agent:-family expression
// against the frame's attribution columns, which hold what the source
// aggregate's classifier attributed at ingest time — so the coverage is db's
// when that classifier is db. Rows rank by attributed volume with a name
// tie-break, so equal-volume classes (all of them, on an unclassified
// window) order deterministically.
func BuildTable2Frame(f *Frame, db *fingerprint.DB) Table2Report {
	rep := Table2Report{TotalFPs: db.Size(), TotalCoverage: f.scalarOf(exprTable2TotalCoverage)}
	counts := db.CountByClass()
	classes := make([]string, 0, len(counts))
	conns := make(map[string]float64, len(counts))
	for c := range counts {
		cls := string(c)
		classes = append(classes, cls)
		if e, ok := table2ClassExprs[cls]; ok {
			conns[cls] = f.scalarOf(e.conns)
		}
	}
	sort.Slice(classes, func(i, j int) bool {
		if conns[classes[i]] != conns[classes[j]] {
			return conns[classes[i]] > conns[classes[j]]
		}
		return classes[i] < classes[j]
	})
	for _, c := range classes {
		cov := 0.0
		if e, ok := table2ClassExprs[c]; ok {
			cov = f.scalarOf(e.coverage)
		}
		rep.Rows = append(rep.Rows, Table2Row{Class: c, NumFPs: counts[clientdb.Class(c)], Coverage: cov})
	}
	return rep
}

// RenderTable2 writes the Table 2 reproduction.
func (r Table2Report) RenderTable2(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — Fingerprint summary (DB size %d, coverage %.2f%% of fingerprinted connections)\n%-26s %8s %10s\n",
		r.TotalFPs, r.TotalCoverage, "class", "№ FPs", "coverage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %8d %9.2f%%\n", row.Class, row.NumFPs, row.Coverage)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
