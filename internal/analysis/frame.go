package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// TopKFingerprints caps how many per-fingerprint columns a frame carries.
// Real windows see tens of thousands of distinct fingerprints with a heavy
// head (§4); materializing a dense column per fingerprint would dwarf every
// other family, so the frame keeps the K highest-volume fingerprints and
// folds the tail into the FPOtherKey bucket. fp:* therefore still sums to
// the exact fingerprinted-connection total.
const TopKFingerprints = 32

// FPOtherKey is the fp: column absorbing every fingerprint outside the
// top K, keeping the family's wildcard sum exact.
const FPOtherKey = "other"

// FPID derives the stable 12-hex-digit column key for a fingerprint string.
// Raw fingerprints contain '|' and ',', which the query grammar rejects, so
// the fp: family is keyed by this FNV-1a-derived ID instead; Frame.FPNames
// maps IDs back to full strings for presentation.
func FPID(fp string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(fp); i++ {
		h ^= uint64(fp[i])
		h *= prime64
	}
	return fmt.Sprintf("%012x", h&(1<<48-1))
}

// Frame is a columnar, immutable snapshot of a notary.Aggregate: a sorted
// month axis plus one dense per-month column for every counter the analysis
// layer queries. It is the substrate every figure, scalar and impact metric
// evaluates against — instead of ten figure constructors each re-walking the
// per-month maps, the maps are walked once here and the queries become slice
// scans. NewFrame builds one in a single pass over the aggregate; Advance
// derives the next one from its predecessor by re-reading only the months a
// write touched.
//
// The unkeyed columns — notary's plain counters and the frame's own derived
// totals — live in one array, Plain, and the Figure 5 accumulators in Pos;
// both are fixed by the notary schema and always allocated. Keyed
// columns (versions, classes, key exchanges, curves, extensions, TLS 1.3
// variants) live in maps from key to a dense []int aligned with Months; a
// key absent from the map means the counter was zero everywhere.
// Derived columns that used to be recomputed per series — the negotiated
// suite-class totals of Figure 9 and the forward-secret key-exchange total —
// are classified once at build time.
//
// A Frame is never written after its constructor returns: it is data, and
// the plans compiled against it belong to their callers. So it is safe to
// share across goroutines and to cache: Generation records the aggregate
// generation it snapshotted, letting holders detect staleness while the
// aggregate keeps ingesting (the live-service read path).
type Frame struct {
	// Months is the sorted month axis; every column below has len(Months).
	Months []timeline.Month
	// index maps a month to its row, shared with every Series the frame
	// builds so Series.Value is O(1).
	index map[timeline.Month]int
	// generation is the aggregate generation this frame snapshotted.
	generation uint64

	// Plain holds every unkeyed int column: the notary schema's counters,
	// indexed by notary.Counter, then the frame's own derived columns (the
	// col* constants below). plainNames gives each its query name.
	Plain [numPlain][]int

	// Negotiated parameters, one dense column per observed key.
	Version      map[registry.Version][]int
	Class        map[string][]int
	Kex          map[registry.KeyExchange][]int
	Curve        map[registry.CurveID][]int
	Extension    map[registry.ExtensionID][]int
	TLS13Variant map[registry.Version][]int

	// Figure 5 relative-position accumulators, per suite class: the month's
	// summed positions and the number of client lists they were summed over.
	Pos [notary.NumPosClasses]struct {
		Sum   []float64
		Count []int
	}

	// Fingerprint attribution (§4 / Table 2). FPCol carries one dense volume
	// column per top-K fingerprint — ranked by whole-window volume, keyed by
	// FPID — plus the FPOtherKey bucket absorbing everything past the cap, so
	// the family stays dense no matter how many distinct fingerprints the
	// window saw. FPNames maps each top-K FPID back to its full fingerprint
	// string.
	// Agent holds attributed volume per client class (from the aggregate's
	// classifier), keyed by the clientdb class name.
	FPCol   map[string][]int
	FPNames map[string]string
	Agent   map[string][]int

	// fpTop lists the fingerprints that own FPCol's columns, in rank order,
	// and fpDistinct counts the aggregate's lifetime rows they were ranked
	// from. fpFloor is the whole-window volume of the K-th of them (zero
	// while there are fewer): volumes only grow, so a fingerprint below it
	// cannot be in a successor's top K.
	fpTop      []fpColumn
	fpDistinct int
	fpFloor    int64
}

// The frame's derived plain columns, indexed after the notary schema's
// counters in Frame.Plain.
const (
	// Fingerprint capability counts (Figure 4): distinct fingerprints per
	// month and how many of them advertise each class.
	colFingerprints = int(notary.NumCounters) + iota
	colFPRC4
	colFPDES
	colFP3DES
	colFPAEAD
	// colFPConns is the per-month volume of fingerprint-bearing connections,
	// the fp: family's denominator.
	colFPConns
	// Build-time suite classification (Figure 9): negotiated connections per
	// AEAD family, classified through the registry's suite-class table.
	colNegAEAD
	colNegGCM128
	colNegGCM256
	colNegChaCha
	// colKexForwardSecret sums the forward-secret key exchanges (§6.3.1).
	colKexForwardSecret

	numPlain
)

// plainNames is the query name of every plain column. The literal is keyed,
// so a counter added to the schema without a name here is a visible gap (and
// fails TestColumnNames).
var plainNames = [numPlain]string{
	notary.Total:            "total",
	notary.Established:      "established",
	notary.AdvRC4:           "adv-rc4",
	notary.AdvDES:           "adv-des",
	notary.Adv3DES:          "adv-3des",
	notary.AdvAEAD:          "adv-aead",
	notary.AdvExport:        "adv-export",
	notary.AdvAnon:          "adv-anon",
	notary.AdvNULL:          "adv-null",
	notary.AdvAESGCM128:     "adv-aes128-gcm",
	notary.AdvAESGCM256:     "adv-aes256-gcm",
	notary.AdvChaCha:        "adv-chacha",
	notary.AdvCCM:           "adv-ccm",
	notary.AdvTLS13:         "adv-tls13",
	notary.OffersHeartbeatN: "offers-heartbeat",
	notary.HeartbeatAckN:    "heartbeat-ack",
	notary.NULLNegotiated:   "null-negotiated",
	notary.AnonNegotiated:   "anon-negotiated",
	notary.ExportNegotiated: "export-negotiated",
	notary.UnofferedChoice:  "unoffered-choice",
	notary.SSLv2Hellos:      "sslv2-hellos",
	colFingerprints:         "fingerprints",
	colFPRC4:                "fp-rc4",
	colFPDES:                "fp-des",
	colFP3DES:               "fp-3des",
	colFPAEAD:               "fp-aead",
	colFPConns:              "fp-conns",
	colNegAEAD:              "neg-aead",
	colNegGCM128:            "neg-aes128-gcm",
	colNegGCM256:            "neg-aes256-gcm",
	colNegChaCha:            "neg-chacha",
	colKexForwardSecret:     "kex-forward-secret",
}

// slab carves len-n int columns out of one zeroed allocation, so building a
// frame costs one column allocation instead of one per column. Past its
// capacity (a key the build did not budget for) it allocates singly.
type slab struct {
	buf []int
	n   int
}

func newSlab(cols, n int) *slab { return &slab{buf: make([]int, cols*n), n: n} }

func (s *slab) take() []int {
	if len(s.buf) < s.n {
		return make([]int, s.n)
	}
	c := s.buf[:s.n:s.n]
	s.buf = s.buf[s.n:]
	return c
}

func (s *slab) copyOf(src []int) []int {
	c := s.take()
	copy(c, src)
	return c
}

// col returns the dense column for key k in m, taking it from sl on first use.
func col[K comparable](m map[K][]int, k K, sl *slab) []int {
	c, ok := m[k]
	if !ok {
		c = sl.take()
		m[k] = c
	}
	return c
}

// cloneCols copies a keyed column family into columns taken from sl.
func cloneCols[K comparable](src map[K][]int, sl *slab) map[K][]int {
	dst := make(map[K][]int, len(src))
	for k, c := range src {
		dst[k] = sl.copyOf(c)
	}
	return dst
}

// fpColumn is one top-K fingerprint's column: the fingerprint, the
// whole-window volume it was ranked by, and its FPID key in FPCol and FPNames.
type fpColumn struct {
	fp  string
	vol int64
	key string
}

// NewFrame snapshots agg into a columnar frame in one chronological pass:
// every row filled, no predecessor to copy from. Advance is the other
// constructor; both fill rows through fillRow and build the fp: family
// through buildFPColumns.
func NewFrame(agg *notary.Aggregate) *Frame {
	n := agg.NumMonths()
	f := &Frame{
		Months:     make([]timeline.Month, 0, n),
		index:      make(map[timeline.Month]int, n),
		generation: agg.Generation(),

		Version:      make(map[registry.Version][]int),
		Class:        make(map[string][]int),
		Kex:          make(map[registry.KeyExchange][]int),
		Curve:        make(map[registry.CurveID][]int),
		Extension:    make(map[registry.ExtensionID][]int),
		TLS13Variant: make(map[registry.Version][]int),
		Agent:        make(map[string][]int),
	}
	sl := newSlab(numPlain+len(f.Pos)+TopKFingerprints+1, n)
	for c := range f.Plain {
		f.Plain[c] = sl.take()
	}
	for c := range f.Pos {
		f.Pos[c].Sum, f.Pos[c].Count = make([]float64, n), sl.take()
	}
	agg.EachMonth(func(ms *notary.MonthStats) {
		i := len(f.Months)
		f.Months = append(f.Months, ms.Month)
		f.index[ms.Month] = i
		f.fillRow(i, ms, sl)
	})
	f.buildFPColumns(agg, nil, nil, sl)
	return f
}

// Advance returns the frame of agg given that f is the frame of an earlier
// state of the same aggregate and that, since then, agg only grew — by Add
// and Merge — in the months listed in touched, all of which are already on
// f's axis. The result equals NewFrame(agg) in every exported column, in
// FPNames, FingerprintGauges, Generation and Row, at the cost of copying the
// columns and re-reading the touched months instead of walking every month's
// maps: after a 256-record shard at the benchmark's 150,000-record scale an
// advance costs ≈ 40 µs where NewFrame costs ≈ 0.35 ms
// (core.frame_rebuild_us, analysis.new_frame_us). f itself is not written, so
// readers may keep evaluating against it; the two frames share what cannot
// differ between them (the month axis and, while the top-K set holds, its
// column list and names).
//
// The caller decides whether these preconditions hold and calls NewFrame
// when they do not (core.Study.refresh is that caller). A month missing
// from touched leaves its row stale; a touched month outside the axis panics.
//
// The fp: family stays exact because both constructors rank it from the one
// whole-window source, the aggregate's lifetime rows: the top K are
// re-selected under the same (volume desc, fingerprint asc) rule, and the
// columns are patched in the touched rows when the top-K set held, or rebuilt
// from every month's rows when it did not.
//
// A design that looks simpler does not work: a mutation counter on
// notary.Aggregate or MonthStats to find the touched months makes two
// aggregates of equal content unequal under reflect.DeepEqual, which the
// merge property, the snapshot and delta round trips, the goldens and the
// pusher's exactly-once tests all rely on — so the writer (core.Study)
// names the months instead.
func (f *Frame) Advance(agg *notary.Aggregate, touched []timeline.Month) *Frame {
	n := len(f.Months)
	next := &Frame{
		Months:     f.Months,
		index:      f.index,
		generation: agg.Generation(),
	}
	sl := newSlab(numPlain+len(f.Pos)+len(f.Version)+len(f.Class)+len(f.Kex)+len(f.Curve)+
		len(f.Extension)+len(f.TLS13Variant)+len(f.Agent)+TopKFingerprints+1, n)
	for c := range f.Plain {
		next.Plain[c] = sl.copyOf(f.Plain[c])
	}
	for c := range f.Pos {
		next.Pos[c].Sum, next.Pos[c].Count = slices.Clone(f.Pos[c].Sum), sl.copyOf(f.Pos[c].Count)
	}
	next.Version = cloneCols(f.Version, sl)
	next.Class = cloneCols(f.Class, sl)
	next.Kex = cloneCols(f.Kex, sl)
	next.Curve = cloneCols(f.Curve, sl)
	next.Extension = cloneCols(f.Extension, sl)
	next.TLS13Variant = cloneCols(f.TLS13Variant, sl)
	next.Agent = cloneCols(f.Agent, sl)

	rows := make([]int, 0, len(touched))
	for _, m := range touched {
		i, ok := f.index[m]
		if !ok {
			panic("analysis: Advance: touched month " + m.String() + " is not on the frame's axis")
		}
		if slices.Contains(rows, i) {
			continue
		}
		rows = append(rows, i)
		next.fillRow(i, agg.Stats(m), sl)
	}
	next.buildFPColumns(agg, f, rows, sl)
	return next
}

// fillRow writes row i of every column except the fp: family from one
// month's stats. A cell is only written for a key the month has, so a
// refilled row relies on keys never leaving a month (Add and Merge only add).
func (f *Frame) fillRow(i int, ms *notary.MonthStats, sl *slab) {
	for c, v := range ms.N {
		f.Plain[c][i] = v
	}
	for c, p := range ms.Pos {
		f.Pos[c].Sum[i], f.Pos[c].Count[i] = p.Sum, p.Count
	}
	for v, c := range ms.ByVersion.All() {
		col(f.Version, v, sl)[i] = c
	}
	for cl, c := range ms.ByClass {
		col(f.Class, cl, sl)[i] = c
	}
	forwardSecret := 0
	for k, c := range ms.ByKex.All() {
		col(f.Kex, k, sl)[i] = c
		if k.ForwardSecret() {
			forwardSecret += c
		}
	}
	f.Plain[colKexForwardSecret][i] = forwardSecret
	for cv, c := range ms.ByCurve.All() {
		col(f.Curve, cv, sl)[i] = c
	}
	for e, c := range ms.ByExtension.All() {
		col(f.Extension, e, sl)[i] = c
	}
	for v, c := range ms.TLS13Variant.All() {
		col(f.TLS13Variant, v, sl)[i] = c
	}

	for class, c := range ms.ByClientClass {
		col(f.Agent, class, sl)[i] = c
	}

	var conns, rc4, des, tdes, aead int
	for _, caps := range ms.FPs {
		conns += caps.Count
		if caps.Classes.Has(registry.ClassRC4) {
			rc4++
		}
		if caps.Classes.Has(registry.ClassDES) {
			des++
		}
		if caps.Classes.Has(registry.Class3DES) {
			tdes++
		}
		if caps.Classes.Has(registry.ClassAEAD) {
			aead++
		}
	}
	f.Plain[colFingerprints][i], f.Plain[colFPConns][i] = len(ms.FPs), conns
	f.Plain[colFPRC4][i], f.Plain[colFPDES][i], f.Plain[colFP3DES][i], f.Plain[colFPAEAD][i] = rc4, des, tdes, aead

	// Figure 9: negotiated connections per AEAD family.
	var negAEAD, gcm128, gcm256, chacha int
	for id, c := range ms.BySuite.All() {
		bits := registry.SuiteClassBits(id)
		if bits.Has(registry.ClassAEAD) {
			negAEAD += c
		}
		if bits.Has(registry.ClassGCM128) {
			gcm128 += c
		}
		if bits.Has(registry.ClassGCM256) {
			gcm256 += c
		}
		if bits.Has(registry.ClassChaCha) {
			chacha += c
		}
	}
	f.Plain[colNegAEAD][i], f.Plain[colNegGCM128][i], f.Plain[colNegGCM256][i], f.Plain[colNegChaCha][i] = negAEAD, gcm128, gcm256, chacha
}

// compareRank is the fp: family's ranking rule: higher whole-window volume
// first, ties broken by fingerprint string so the column set is fully
// deterministic.
func compareRank(a, b fpColumn) int {
	if c := cmp.Compare(b.vol, a.vol); c != 0 {
		return c
	}
	return strings.Compare(a.fp, b.fp)
}

// topFingerprints selects the TopKFingerprints highest-ranked fingerprints of
// agg, in rank order, in one pass over its lifetime rows that keeps only the
// current top K. It does not rank a fingerprint below floor, which spares an
// advancing frame the window's long tail.
func topFingerprints(agg *notary.Aggregate, floor int64) []fpColumn {
	top := make([]fpColumn, 0, TopKFingerprints+1)
	for fp, vol := range agg.FingerprintVolumes() {
		e := fpColumn{fp: fp, vol: vol}
		if vol < floor || len(top) == TopKFingerprints && compareRank(e, top[len(top)-1]) > 0 {
			continue
		}
		at, _ := slices.BinarySearchFunc(top, e, compareRank)
		top = slices.Insert(top, at, e)
		if len(top) > TopKFingerprints {
			top = top[:TopKFingerprints]
		}
	}
	return top
}

// buildFPColumns materializes the fp: family: agg's top K fingerprints get
// their own dense columns keyed by FPID, filled from each month's rows, and
// the rest of a month's fp-conns folds into the FPOtherKey bucket, which
// exists once some month has a rest. When f advances from prev and the top-K
// set held, prev's columns are copied and only rows — the rows fillRow just
// wrote — are refilled; otherwise (no prev, or a fingerprint crossed the cap)
// the family is built over every row.
func (f *Frame) buildFPColumns(agg *notary.Aggregate, prev *Frame, rows []int, sl *slab) {
	var floor int64
	if prev != nil {
		floor = prev.fpFloor
	}
	top := topFingerprints(agg, floor)
	f.fpDistinct = agg.NumFingerprints()
	if len(top) == TopKFingerprints {
		f.fpFloor = top[len(top)-1].vol
	}
	held := prev != nil && len(top) == len(prev.fpTop)
	for r := 0; held && r < len(top); r++ {
		held = slices.ContainsFunc(prev.fpTop, func(c fpColumn) bool { return c.fp == top[r].fp })
	}
	if held {
		f.fpTop, f.FPNames = prev.fpTop, prev.FPNames
		f.FPCol = cloneCols(prev.FPCol, sl)
		for _, c := range f.FPCol {
			for _, i := range rows {
				c[i] = 0
			}
		}
	} else {
		f.fpTop = top
		f.FPNames = make(map[string]string, len(top))
		f.FPCol = make(map[string][]int, len(top)+1)
		for r := range top {
			top[r].key = FPID(top[r].fp)
			f.FPNames[top[r].key] = top[r].fp
		}
		rows = make([]int, len(f.Months))
		for i := range rows {
			rows[i] = i
		}
	}
	cols := make([][]int, len(f.fpTop))
	for s, tc := range f.fpTop {
		cols[s] = col(f.FPCol, tc.key, sl)
	}
	other := f.FPCol[FPOtherKey]
	for _, i := range rows {
		fps, rest := agg.Stats(f.Months[i]).FPs, f.Plain[colFPConns][i]
		for s, tc := range f.fpTop {
			if caps := fps[tc.fp]; caps != nil {
				cols[s][i] += caps.Count
				rest -= caps.Count
			}
		}
		if other == nil && rest != 0 {
			other = col(f.FPCol, FPOtherKey, sl)
		}
		if other != nil {
			other[i] = rest
		}
	}
}

// FingerprintGauges reports the fp: family's shape for observability:
// distinct fingerprints in the window, the column cap, and the share of
// fingerprinted volume folded into the FPOtherKey bucket (percent).
func (f *Frame) FingerprintGauges() (distinct, topK int, otherShare float64) {
	if total := sumCol(f.Plain[colFPConns]); total > 0 {
		otherShare = 100 * float64(sumCol(f.FPCol[FPOtherKey])) / float64(total)
	}
	return f.fpDistinct, TopKFingerprints, otherShare
}

// Len returns the number of months on the frame's axis.
func (f *Frame) Len() int { return len(f.Months) }

// Generation returns the aggregate generation this frame snapshotted;
// compare against Aggregate.Generation to detect staleness.
func (f *Frame) Generation() uint64 { return f.generation }

// Row returns the row index of month m, ok=false when the month is outside
// the frame.
func (f *Frame) Row(m timeline.Month) (int, bool) {
	i, ok := f.index[m]
	return i, ok
}

// sumCol returns the sum of a column, 0 for nil.
func sumCol(c []int) int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}
