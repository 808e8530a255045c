package analysis

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tlsage/internal/clientdb"
	"tlsage/internal/fingerprint"
	"tlsage/internal/notary"
	"tlsage/internal/simulate"
)

var (
	classifiedOnce sync.Once
	classifiedA    *notary.Aggregate
	classifiedDB   *fingerprint.DB
)

// classifiedAgg runs the simulator into a classifier-attached aggregate, the
// way core constructors build studies now — so the ByClientClass counters
// (and with them the agent: family) are populated by ingest-time attribution.
func classifiedAgg(t testing.TB) (*notary.Aggregate, *fingerprint.DB) {
	t.Helper()
	classifiedOnce.Do(func() {
		classifiedDB = fingerprint.BuildDefault()
		agg := notary.NewAggregate()
		agg.SetClassifier(classifiedDB)
		if err := simulate.New(simulate.DefaultOptions(200)).Run(agg); err != nil {
			panic(err)
		}
		classifiedA = agg
	})
	return classifiedA, classifiedDB
}

// BuildTable2 is Table 2's first builder and BuildTable2Frame's reference: it
// matches the database against every fingerprint-bearing record in the
// aggregate, recomputing by a walk of the per-month fingerprint tables the
// attribution the ingest-time ByClientClass counters record.
func BuildTable2(agg *notary.Aggregate, db *fingerprint.DB) Table2Report {
	classConns := map[string]int64{}
	var total, matched int64
	for _, m := range agg.Months() {
		for fp, caps := range agg.Stats(m).FPs {
			total += int64(caps.Count)
			if e, ok := db.Lookup(fingerprint.Fingerprint(fp)); ok {
				matched += int64(caps.Count)
				classConns[string(e.Class)] += int64(caps.Count)
			}
		}
	}
	rep := Table2Report{TotalFPs: db.Size()}
	if total > 0 {
		rep.TotalCoverage = 100 * float64(matched) / float64(total)
	}
	counts := db.CountByClass()
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, string(c))
	}
	// Rank by attributed volume with a name tie-break, so equal-volume
	// classes (all of them, on an unclassified window) order deterministically
	// and BuildTable2Frame can match byte-for-byte.
	sort.Slice(classes, func(i, j int) bool {
		if classConns[classes[i]] != classConns[classes[j]] {
			return classConns[classes[i]] > classConns[classes[j]]
		}
		return classes[i] < classes[j]
	})
	for _, c := range classes {
		cov := 0.0
		if total > 0 {
			cov = 100 * float64(classConns[c]) / float64(total)
		}
		rep.Rows = append(rep.Rows, Table2Row{Class: c, NumFPs: counts[clientdb.Class(c)], Coverage: cov})
	}
	return rep
}

// TestTable2FrameMatchesLegacy is the golden parity check for the declarative
// Table 2: BuildTable2Frame — every number an agent:-family expression over
// the frame — must render byte-for-byte what the legacy aggregate walk
// (BuildTable2) renders, on a study whose classifier is the same database.
func TestTable2FrameMatchesLegacy(t *testing.T) {
	agg, db := classifiedAgg(t)
	legacy := BuildTable2(agg, db)
	framed := BuildTable2Frame(NewFrame(agg), db)

	if legacy.TotalCoverage == 0 {
		t.Fatal("legacy Table 2 attributes nothing — vacuous parity check")
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := legacy.RenderTable2(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if err := framed.RenderTable2(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatalf("Table 2 diverges.\nlegacy:\n%s\nframe:\n%s", wantBuf.String(), gotBuf.String())
	}
}

// TestFPFamilyMatchesAggregate checks the fp: columns against a direct walk
// of the aggregate's per-month volume maps: fp-conns and fp:* both equal the
// exact per-month fingerprinted volume (the top-K cap folds, never drops),
// and each top-K column carries exactly its fingerprint's volume.
func TestFPFamilyMatchesAggregate(t *testing.T) {
	agg, _ := classifiedAgg(t)
	f := NewFrame(agg)

	months := agg.Months()
	wantConns := make([]int, len(months))
	totalVols := make(map[string]int)
	for i, m := range months {
		for fp, caps := range agg.Stats(m).FPs {
			wantConns[i] += caps.Count
			totalVols[fp] += caps.Count
		}
	}
	if sumCol(wantConns) == 0 {
		t.Fatal("aggregate has no fingerprint volume — vacuous")
	}
	if !reflect.DeepEqual(f.Plain[colFPConns], wantConns) {
		t.Errorf("fp-conns diverges from the FPs walk")
	}
	res := mustQuery(t, f, "fp:*")
	for i, p := range res.Series.Points {
		if p.Value != float64(wantConns[i]) {
			t.Errorf("fp:* month %v = %v, want %d", months[i], p.Value, wantConns[i])
		}
	}

	if len(f.FPNames) == 0 || len(f.FPNames) > TopKFingerprints {
		t.Fatalf("FPNames has %d entries, want 1..%d", len(f.FPNames), TopKFingerprints)
	}
	topTotal := 0
	for id, fp := range f.FPNames {
		if FPID(fp) != id {
			t.Errorf("FPNames id %q does not match FPID(%q)", id, fp)
		}
		if got := sumCol(f.FPCol[id]); got != totalVols[fp] {
			t.Errorf("fp:%s sums to %d, want %d (volume of %q)", id, got, totalVols[fp], fp)
		}
		topTotal += totalVols[fp]
	}
	if want := sumCol(wantConns) - topTotal; sumCol(f.FPCol[FPOtherKey]) != want {
		t.Errorf("fp:other sums to %d, want %d", sumCol(f.FPCol[FPOtherKey]), want)
	}

	distinct, topK, otherShare := f.FingerprintGauges()
	if distinct != len(totalVols) {
		t.Errorf("gauge distinct = %d, want %d", distinct, len(totalVols))
	}
	if topK != TopKFingerprints || otherShare < 0 || otherShare > 100 {
		t.Errorf("gauges topK=%d otherShare=%v", topK, otherShare)
	}
}

// TestAgentFamilyMatchesAggregate checks every agent: column against the
// aggregate's ByClientClass counters, slug by slug, and the wildcard against
// their total.
func TestAgentFamilyMatchesAggregate(t *testing.T) {
	agg, _ := classifiedAgg(t)
	f := NewFrame(agg)
	months := agg.Months()

	slugs := make(map[string]string, len(agentKeys))
	for slug, class := range agentKeys {
		slugs[class] = slug
	}
	attributed := 0
	for class, col := range f.Agent {
		slug, ok := slugs[class]
		if !ok {
			t.Fatalf("Agent column %q has no query slug", class)
		}
		res := mustQuery(t, f, "agent:"+slug)
		for i, p := range res.Series.Points {
			want := agg.Stats(months[i]).ByClientClass[class]
			if p.Value != float64(want) || col[i] != want {
				t.Errorf("agent:%s month %v = %v (col %d), want %d", slug, months[i], p.Value, col[i], want)
			}
			attributed += want
		}
	}
	if attributed == 0 {
		t.Fatal("no attributed volume — vacuous")
	}
	res := mustQuery(t, f, "count(agent:*)")
	if res.Value != float64(attributed) {
		t.Errorf("count(agent:*) = %v, want %d", res.Value, attributed)
	}
}

// BenchmarkFrameBuildFP measures the frame build on a classified aggregate —
// the fp:/agent: column materialization rides the same single pass.
func BenchmarkFrameBuildFP(b *testing.B) {
	agg, _ := classifiedAgg(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewFrame(agg)
	}
}

// BenchmarkQueryFP measures compiled evaluation over the new families.
func BenchmarkQueryFP(b *testing.B) {
	agg, _ := classifiedAgg(b)
	f := NewFrame(agg)
	plans := make([]*Plan, 0, 3)
	for _, src := range []string{
		"pct(agent:libraries / fp-conns)",
		"over(agent:* / fp-conns)",
		"count(fp:other)",
	} {
		plans = append(plans, mustCompile(b, src, f))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			if p.kind == KindScalar {
				_ = p.EvalScalar()
			} else {
				_ = p.EvalSeries()
			}
		}
	}
}
