package analysis

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"tlsage/internal/fingerprint"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// frameColumns is every column of f by name, each read through the frame's
// one gather: every ColumnNames entry and every vocabulary key of every
// family through Column, each family's wildcard, every keyed cell of the
// cell table (named by family and key, since no query can name a key outside
// the vocabulary), the fp: columns by FPID and FPOtherKey, and Figure 5's
// accumulators. A column the frame lacks is present here as nil.
func frameColumns(f *Frame) map[string]any {
	cols := map[string]any{}
	named := ColumnNames()
	for fam, keys := range map[string][]string{
		"version": slices.Collect(maps.Keys(versionKeys)), "class": slices.Collect(maps.Keys(classKeys)),
		"kex": slices.Collect(maps.Keys(kexKeys)), "ext": slices.Collect(maps.Keys(extKeys)),
		"curve": slices.Collect(maps.Keys(curveKeys)), "tls13": slices.Collect(maps.Keys(versionKeys)),
		"agent": slices.Collect(maps.Keys(agentKeys)), "fp": append(slices.Collect(maps.Keys(f.FPNames)), FPOtherKey),
	} {
		named = append(named, fam+":*")
		for _, k := range keys {
			named = append(named, fam+":"+k)
		}
	}
	for _, name := range named {
		cols[name] = f.Column(name)
	}
	for _, k := range f.cells.keys {
		cols[fmt.Sprintf("cell %d/%#x/%q", k.fam, k.num, k.str)] = f.keyed(k)
	}
	for c := range notary.NumPosClasses {
		sum, count := f.position(c)
		cols[fmt.Sprintf("position %v sum", c)], cols[fmt.Sprintf("position %v count", c)] = sum, count
	}
	return cols
}

// requireSameFrame asserts got answers exactly as want does: every column
// by name (frameColumns), FPNames, FingerprintGauges, Generation, Len and
// Row. How the rows are stored is deliberately not compared — an advanced
// frame shares rows with its predecessor, numbers its cells in the order
// keys arrived, and keeps its predecessor's fp: column order while the top-K
// set holds.
func requireSameFrame(t *testing.T, want, got *Frame) {
	t.Helper()
	wc, gc := frameColumns(want), frameColumns(got)
	for _, name := range slices.Sorted(maps.Keys(wc)) {
		if g, ok := gc[name]; !ok || !reflect.DeepEqual(wc[name], g) {
			t.Fatalf("column %s differs:\n got %v\nwant %v", name, g, wc[name])
		}
	}
	if len(gc) != len(wc) {
		t.Fatalf("got %d columns, want %d", len(gc), len(wc))
	}
	if !reflect.DeepEqual(want.FPNames, got.FPNames) {
		t.Fatalf("FPNames differ:\n got %v\nwant %v", got.FPNames, want.FPNames)
	}
	if want.Generation() != got.Generation() || want.Len() != got.Len() {
		t.Fatalf("generation/len: got %d/%d, want %d/%d", got.Generation(), got.Len(), want.Generation(), want.Len())
	}
	wd, wk, ws := want.FingerprintGauges()
	gd, gk, gs := got.FingerprintGauges()
	if wd != gd || wk != gk || ws != gs {
		t.Fatalf("FingerprintGauges: got %d/%d/%v, want %d/%d/%v", gd, gk, gs, wd, wk, ws)
	}
	for _, m := range append([]timeline.Month{timeline.M(1999, time.January)}, want.Months...) {
		wi, wok := want.Row(m)
		gi, gok := got.Row(m)
		if wi != gi || wok != gok {
			t.Fatalf("Row(%v): got %d,%v, want %d,%v", m, gi, gok, wi, wok)
		}
	}
}

// familyColumns gathers every keyed column of fam, by key.
func familyColumns(f *Frame, fam family) map[cellKey][]int {
	out := map[cellKey][]int{}
	for _, k := range f.cells.keys {
		if k.fam == fam {
			out[k] = f.keyed(k)
		}
	}
	return out
}

// advanceOrBuild is the caller's rule (core.Study.refresh): advance while
// the month axis holds, build anew when a month appeared. It always checks
// the result against NewFrame and reports whether it advanced.
func advanceOrBuild(t *testing.T, prev *Frame, agg *notary.Aggregate, touched []timeline.Month) (*Frame, bool) {
	t.Helper()
	want := NewFrame(agg)
	if agg.NumMonths() != prev.Len() {
		return want, false
	}
	got := prev.Advance(agg, touched)
	requireSameFrame(t, want, got)
	return got, true
}

var (
	advanceRecsOnce sync.Once
	advanceRecs     []*notary.Record
	advanceDB       *fingerprint.DB
)

// simulatedRecords is a whole-window simulated record set, in chronological
// order, and the classifier the aggregates under test use.
func simulatedRecords(t testing.TB) ([]*notary.Record, *fingerprint.DB) {
	t.Helper()
	advanceRecsOnce.Do(func() {
		advanceDB = fingerprint.BuildDefault()
		opts := simulate.DefaultOptions(60)
		opts.Workers = 1
		keep := notary.SinkFunc(func(r *notary.Record) error {
			advanceRecs = append(advanceRecs, r.Clone())
			return nil
		})
		if err := simulate.New(opts).Run(keep); err != nil {
			panic(err)
		}
	})
	return advanceRecs, advanceDB
}

func classified(db *fingerprint.DB) *notary.Aggregate {
	agg := notary.NewAggregate()
	agg.SetClassifier(db)
	return agg
}

// TestAdvanceEqualsNewFrame is the tentpole's property: apply a record set in
// random chunks — as Add, or as Merge of a classified shard — and after every
// chunk the frame advanced from the previous step's frame must equal the
// frame built from scratch. Frames chain, so a drift would compound. The
// chronological order opens months one by one (each one a full build) and
// touches one or two months per chunk; the shuffled orders open every month
// within the first chunks and then touch dozens of rows per chunk.
func TestAdvanceEqualsNewFrame(t *testing.T) {
	recs, db := simulatedRecords(t)
	for seed := int64(0); seed < 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		order := append([]*notary.Record(nil), recs...)
		if seed > 0 {
			rnd.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		agg := classified(db)
		f := NewFrame(agg)
		var advanced, built, topHeld, topMoved int
		for len(order) > 0 {
			n := 1 + rnd.Intn(300)
			if n > len(order) {
				n = len(order)
			}
			chunk := order[:n]
			order = order[n:]
			var touched []timeline.Month
			if rnd.Intn(2) == 0 {
				for _, r := range chunk {
					agg.Add(r)
					touched = append(touched, timeline.MonthOf(r.Date)) // duplicates are the caller's right
				}
			} else {
				shard := classified(db)
				for _, r := range chunk {
					shard.Add(r)
				}
				agg.Merge(shard)
				touched = shard.Months()
			}
			prev := f
			var ok bool
			if f, ok = advanceOrBuild(t, prev, agg, touched); !ok {
				built++
				continue
			}
			advanced++
			if len(f.fpTop) > 0 && len(prev.fpTop) > 0 && &f.fpTop[0] == &prev.fpTop[0] {
				topHeld++
			} else {
				topMoved++
			}
		}
		if advanced == 0 || built == 0 || topHeld == 0 || topMoved == 0 {
			t.Errorf("seed %d: advanced=%d built=%d topHeld=%d topMoved=%d — a path went unexercised",
				seed, advanced, built, topHeld, topMoved)
		}
		if seed == 0 {
			// The top-K ranking has a total order: two builds over one
			// aggregate carry identical fp:/agent: columns.
			t.Run("fp-columns-deterministic", func(t *testing.T) { requireSameFrame(t, NewFrame(agg), NewFrame(agg)) })
		}
	}
}

// fpRecord is a minimal record carrying fingerprint fp in month m.
func fpRecord(m timeline.Month, fp string) *notary.Record {
	return withFingerprint(&notary.Record{Date: m.Mid()}, fp)
}

// withFingerprint points r at its hello under fingerprint fp, advertising
// the extensions extra besides its own, and returns r.
func withFingerprint(r *notary.Record, fp string, extra ...registry.ExtensionID) *notary.Record {
	h := notary.Hello{Suites: r.Suites(), Extensions: append(slices.Clip(r.Extensions()), extra...), Curves: r.Curves(), PointFmts: r.PointFmts(),
		SupportedVersions: r.SupportedVersions(), Fingerprint: fp, Truth: r.Truth()}
	new(notary.HelloTable).Intern(r, &h)
	return r
}

// TestAdvanceTopKBoundary walks fingerprints across the top-K cap by hand:
// all volumes tied (the cap falls where the strings say), one fingerprint
// rising into the top, the displaced one climbing back to a tie at the cap,
// a brand-new fingerprint arriving below it, one arriving at the K-th place,
// and an untouched one tied with the K-th staying out.
func TestAdvanceTopKBoundary(t *testing.T) {
	m1, m2 := timeline.M(2015, time.March), timeline.M(2015, time.April)
	agg := notary.NewAggregate()
	name := func(i int) string { return fmt.Sprintf("fp-%02d", i) }
	for i := 0; i < TopKFingerprints+8; i++ {
		agg.Add(fpRecord(m1, name(i)))
		agg.Add(fpRecord(m2, name(i)))
	}
	f := NewFrame(agg)
	last, outsider := name(TopKFingerprints-1), name(TopKFingerprints+3)
	inTop := func(f *Frame, fp string) bool { return f.FPNames[FPID(fp)] == fp }
	if !inTop(f, last) || inTop(f, outsider) {
		t.Fatal("tie at the cap is not broken by fingerprint string")
	}
	step := func(m timeline.Month, fp string) {
		t.Helper()
		prev, twin := f, NewFrame(agg)
		agg.Add(fpRecord(m, fp))
		var ok bool
		if f, ok = advanceOrBuild(t, f, agg, []timeline.Month{m}); !ok {
			t.Fatal("axis moved")
		}
		requireSameFrame(t, twin, prev) // a new top K refills rows prev shares
	}
	step(m2, outsider) // rises above the tie: enters, the last string leaves
	if !inTop(f, outsider) || inTop(f, last) {
		t.Fatal("outsider did not displace the last fingerprint of the tie")
	}
	step(m1, last) // ties with outsider at the top; both now outrank the rest
	if !inTop(f, outsider) || !inTop(f, last) || inTop(f, name(TopKFingerprints-2)) {
		t.Fatal("displaced fingerprint did not climb back in")
	}
	step(m1, "fp-new") // a new fingerprint, volume 1, stays in fp:other
	if inTop(f, "fp-new") {
		t.Fatal("new low-volume fingerprint entered the top K")
	}
	if d, _, _ := f.FingerprintGauges(); d != TopKFingerprints+9 {
		t.Fatalf("distinct fingerprints = %d, want %d", d, TopKFingerprints+9)
	}

	// Advance ranks only the old top K and the touched months' fingerprints.
	// The K-th place can go to a fingerprint only the touched month has seen,
	// and a fingerprint the touched month lacks, tied with the K-th, stays
	// out. m3 holds none of the top K.
	m3 := m2.Next()
	agg = notary.NewAggregate()
	for i := 0; i < TopKFingerprints+2; i++ {
		agg.Add(fpRecord(m1, name(i)))
		agg.Add(fpRecord(m2, name(i)))
	}
	agg.Add(fpRecord(m3, "fp-zz"))
	f = NewFrame(agg)
	newcomer := name(TopKFingerprints-2) + "a" // sorts between the last two of the tie
	step(m2, newcomer)
	step(m2, newcomer) // volume 2: ties with the K-th and wins on the string
	if !inTop(f, newcomer) || inTop(f, last) || !inTop(f, name(TopKFingerprints-2)) {
		t.Fatal("a fingerprint seen only in the touched month did not take the K-th place")
	}
	step(m3, name(0)) // last, tied with the K-th, is in no touched month
	if inTop(f, last) || !inTop(f, newcomer) || !inTop(f, name(1)) {
		t.Fatal("an untouched fingerprint tied with the K-th entered the top K, or a top fingerprint the touched month lacks left it")
	}
}

// TestAdvanceEdgeShapes covers the aggregates the property walk does not
// reach: empty, recovered from a version-1 snapshot (fingerprint rows and
// lifetimes but no class attribution), and a delta touching every row.
func TestAdvanceEdgeShapes(t *testing.T) {
	recs, db := simulatedRecords(t)

	empty := notary.NewAggregate()
	requireSameFrame(t, NewFrame(empty), NewFrame(empty).Advance(empty, nil))

	// Version-1 shape: every month's fingerprint rows, which version 1 always
	// carried, and a ByClientClass map present but empty.
	v1 := classified(db)
	whole := classified(db)
	for _, r := range recs {
		v1.Add(r)
		whole.Add(r)
	}
	for _, m := range v1.Months() {
		v1.Stats(m).ByClientClass = make(map[string]int)
	}
	f, full := NewFrame(v1), NewFrame(whole)
	fpCols := func(f *Frame) map[string][]int {
		out := map[string][]int{FPOtherKey: f.Column("fp:" + FPOtherKey)}
		for id := range f.FPNames {
			out[id] = f.Column("fp:" + id)
		}
		return out
	}
	if len(f.FPNames) != TopKFingerprints || fpCols(f)[FPOtherKey] == nil || !reflect.DeepEqual(fpCols(f), fpCols(full)) ||
		!reflect.DeepEqual(f.FPNames, full.FPNames) || !reflect.DeepEqual(f.Column("fp-conns"), full.Column("fp-conns")) {
		t.Fatalf("v1-shaped aggregate's %d fp: columns and fp-conns are not the volumes its fingerprint rows carry", len(f.FPNames))
	}
	if n, all := len(familyColumns(f, famAgent)), len(familyColumns(full, famAgent)); n != 0 || all == 0 {
		t.Fatalf("v1-shaped aggregate has %d agent: columns (the attributed one %d), want none", n, all)
	}
	for _, r := range recs[len(recs)-50:] { // new records attribute as usual
		v1.Add(r)
	}
	last := timeline.MonthOf(recs[len(recs)-1].Date)
	f, ok := advanceOrBuild(t, f, v1, []timeline.Month{last, timeline.MonthOf(recs[len(recs)-50].Date)})
	if n := len(familyColumns(f, famAgent)); !ok || n == 0 {
		t.Fatalf("advanced=%v with %d agent: columns after classified records arrived", ok, n)
	}

	// A delta as large as the study: every one of the 75 rows is touched.
	agg := classified(db)
	agg.Merge(whole)
	f = NewFrame(agg)
	agg.Merge(whole)
	if f, ok = advanceOrBuild(t, f, agg, whole.Months()); !ok || f.Len() != 75 {
		t.Fatalf("advanced=%v over %d months, want an advance over 75", ok, f.Len())
	}
}

// TestAdvanceLeavesPredecessorAlone: Advance must not write the frame it
// advances from, because readers are still evaluating against it. twin is an
// independent build of the same aggregate state, so it answers as prev did
// before the advances (see TestFrameMergeProperty); the readers make any
// write a -race report as well.
func TestAdvanceLeavesPredecessorAlone(t *testing.T) {
	recs, db := simulatedRecords(t)
	agg := classified(db)
	half := len(recs) / 2
	for _, r := range recs[:half] {
		agg.Add(r)
	}
	prev, twin := NewFrame(agg), NewFrame(agg)

	queries := []string{"pct(version:tls12 / established)", "pct(fp:* / fp-conns)", "count(sum(agent:*, fp:other))", "position(rc4)"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, src := range queries {
		p := mustCompile(t, src, prev)
		want := p.Eval()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := p.Eval(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s changed under a reader while its frame was advanced from", want.Query)
					return
				}
			}
		}()
	}

	f := prev
	rnd := rand.New(rand.NewSource(1))
	rest := append([]*notary.Record(nil), recs[half:]...)
	// The second half of the window opens new months; keep to the first
	// half's axis so every step is an advance from prev's lineage, and put a
	// never-seen fingerprint and a never-seen extension, a key the cell table
	// lacks, in each.
	for step := 0; step < 40; step++ {
		r := rest[rnd.Intn(len(rest))].Clone()
		r.Date = recs[rnd.Intn(half)].Date
		withFingerprint(r, fmt.Sprintf("%s|step%d", r.Fingerprint(), step), registry.ExtensionID(0xfe00+step))
		agg.Add(r)
		var ok bool
		from := f
		if step%2 == 0 {
			from = prev // many successors of one predecessor
		}
		touched := []timeline.Month{timeline.MonthOf(r.Date)}
		if from == prev {
			touched = agg.Months() // prev is many writes behind: every month may have moved
		}
		if f, ok = advanceOrBuild(t, from, agg, touched); !ok {
			t.Fatal("axis moved")
		}
	}
	close(stop)
	wg.Wait()
	requireSameFrame(t, twin, prev)
}

// FuzzFrameFromSnapshot: whatever notary.DecodeSnapshot accepts — the rows of
// a month and the lifetime rows it ranks from need not agree — gives a frame
// whose fp: family sums to fp-conns in every row, and advancing that frame
// over every month changes nothing.
func FuzzFrameFromSnapshot(fz *testing.F) {
	for _, name := range []string{"snapshot_v1.bin", "snapshot_v2.bin"} {
		b, err := os.ReadFile("../notary/testdata/" + name)
		if err != nil {
			fz.Fatal(err)
		}
		fz.Add(b)
	}
	// Month rows that disagree with the lifetime rows: a fingerprint no
	// lifetime row knows, one whose month row is gone, one counted twice over.
	m := timeline.M(2015, time.March)
	odd := notary.NewAggregate()
	for i := 0; i < TopKFingerprints+4; i++ {
		odd.Add(fpRecord(m, fmt.Sprintf("fp-%02d", i)))
		odd.Add(fpRecord(m.Next(), fmt.Sprintf("fp-%02d", i)))
	}
	odd.UpdateMonth(m, 0, func(ms *notary.MonthStats) {
		ms.FPs["fp-ghost"] = &notary.FPCaps{Count: 5}
		delete(ms.FPs, "fp-01")
		ms.FPs["fp-02"].Count += 7
	})
	fz.Add(notary.EncodeSnapshot(nil, odd))

	fz.Fuzz(func(t *testing.T, data []byte) {
		agg, err := notary.DecodeSnapshot(data)
		if err != nil {
			return
		}
		f := NewFrame(agg)
		conns, other := f.Column("fp-conns"), f.Column("fp:"+FPOtherKey)
		for i, m := range f.Months {
			sum := 0
			if other != nil {
				sum = other[i]
			}
			for id := range f.FPNames {
				sum += f.Column("fp:" + id)[i]
			}
			if sum != conns[i] {
				t.Fatalf("%v: fp:* sums to %d, fp-conns is %d", m, sum, conns[i])
			}
		}
		requireSameFrame(t, f, f.Advance(agg, agg.Months()))
	})
}
