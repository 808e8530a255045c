package analysis

import (
	"cmp"
	"fmt"
	"maps"
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
// month axis and one row per month holding every counter the analysis layer
// queries. It is the substrate every figure, scalar and impact metric
// evaluates against — instead of ten figure constructors each re-walking the
// per-month maps, the maps are walked once per month here, and a query
// gathers the columns it reads into dense slices aligned with Months
// (Column). NewFrame builds one in a single pass over the aggregate; Advance
// derives the next one from its predecessor by re-reading only the months a
// write touched.
//
// A row holds the unkeyed counters — notary's plain counters and the frame's
// own derived totals — Figure 5's position accumulators, and one cell per
// keyed column (versions, classes, key exchanges, curves, extensions, TLS 1.3
// variants, client classes). The frame's cell table gives every (family, key)
// some month observed its cell; a key that no month has gets no column, and a
// row shorter than the table reads 0 past its end. Derived columns that used
// to be recomputed per series — the negotiated suite-class totals of Figure 9
// and the forward-secret key-exchange total — are classified once, when the
// row is made.
//
// A Frame and its rows are never written after the constructor that makes
// them returns: they are data, and the plans compiled against them belong to
// their callers. So a frame is safe to share across goroutines and to cache,
// and a successor shares with its predecessor every row and the cell table it
// has no reason to change. Generation records the aggregate generation it
// snapshotted, letting holders detect staleness while the aggregate keeps
// ingesting (the live-service read path).
type Frame struct {
	// Months is the sorted month axis; row i is month Months[i].
	Months []timeline.Month
	// index maps a month to its row, shared with every Series the frame
	// builds so Series.Value is O(1).
	index map[timeline.Month]int
	// generation is the aggregate generation this frame snapshotted.
	generation uint64

	// rows holds the month rows, row i for month Months[i].
	rows []*frameRow
	// cells is the keyed columns' table.
	cells *cellTable

	// Fingerprint attribution (§4 / Table 2). The fp: family has one volume
	// column per top-K fingerprint — ranked by whole-window volume, keyed by
	// FPID — plus the FPOtherKey bucket absorbing everything past the cap, so
	// the family stays dense no matter how many distinct fingerprints the
	// window saw. FPNames maps each top-K FPID back to its full fingerprint
	// string.
	FPNames map[string]string

	// fpTop lists the fingerprints that own the fp: columns, in the order of
	// a row's fp cells (FPOtherKey's cell comes last), and fpOther reports
	// whether FPOtherKey has a column: whether some month has a rest.
	// fpDistinct counts the aggregate's lifetime rows, and fpFloor is the
	// whole-window volume of the K-th ranked fingerprint (zero while there
	// are fewer): volumes only grow, so a fingerprint below it cannot be in a
	// successor's top K.
	fpTop      []fpColumn
	fpOther    bool
	fpDistinct int
	fpFloor    int64
}

// frameRow is one month's cells. Like its frame it is never written after
// the constructor that makes it returns, so successive frames share it.
type frameRow struct {
	// plain holds the unkeyed counters, indexed like plainNames.
	plain [numPlain]int
	pos   [notary.NumPosClasses]struct {
		Sum   float64
		Count int
	}
	// cells holds the keyed columns, indexed by the frame's cell table.
	cells []int
	// fp holds the fp: family, in the order of the frame's fpTop, then
	// FPOtherKey's cell.
	fp []int
}

// cell reads keyed cell c: 0 past the row's end, for a key only later
// months brought.
func (r *frameRow) cell(c int) int {
	if c < len(r.cells) {
		return r.cells[c]
	}
	return 0
}

// The frame's derived plain columns, indexed after the notary schema's
// counters in a row's plain cells.
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

// family is a keyed column family of the cell table; columnFamilies maps
// the query grammar's family names onto it (the fp: family has its own
// cells).
type family uint8

const (
	famVersion family = iota
	famClass
	famKex
	famCurve
	famExtension
	famTLS13
	famAgent
)

// cellKey names one keyed column: a numeric key (version, key exchange,
// curve, extension, variant) in num, a string key (suite or client class) in
// str.
type cellKey struct {
	fam family
	num uint16
	str string
}

// cellTable gives every keyed column of a frame its cell in the rows, and
// lists the keys in cell order.
type cellTable struct {
	cell map[cellKey]int
	keys []cellKey
}

// add gives k the next cell and returns it.
func (t *cellTable) add(k cellKey) int {
	c := len(t.keys)
	t.cell[k] = c
	t.keys = append(t.keys, k)
	return c
}

// fpColumn is one top-K fingerprint: the fingerprint, the whole-window
// volume it was ranked by, and its FPID key in FPNames, empty while Advance
// ranks a fingerprint its predecessor's top K lacks.
type fpColumn struct {
	fp  string
	vol int64
	key string
}

// NewFrame snapshots agg into a columnar frame in one chronological pass:
// every row made, no predecessor to share with. Advance is the other
// constructor; both make rows through fillRow and the fp: family through
// fillFP.
func NewFrame(agg *notary.Aggregate) *Frame {
	n := agg.NumMonths()
	f := &Frame{
		Months:     make([]timeline.Month, 0, n),
		index:      make(map[timeline.Month]int, n),
		generation: agg.Generation(),
		rows:       make([]*frameRow, n),
		cells:      &cellTable{cell: make(map[cellKey]int)},
	}
	rows := make([]frameRow, n)
	agg.EachMonth(func(ms *notary.MonthStats) {
		i := len(f.Months)
		f.Months = append(f.Months, ms.Month)
		f.index[ms.Month] = i
		f.rows[i] = &rows[i]
		f.fillRow(&rows[i], ms, nil)
	})
	f.fillFP(agg, nil, nil)
	return f
}

// Advance returns the frame of agg given that f is the frame of an earlier
// state of the same aggregate and that, since then, agg only grew — by Add
// and Merge — in the months listed in touched, all of which are already on
// f's axis. The result answers every column (Column), FPNames,
// FingerprintGauges, Generation and Row as NewFrame(agg) does, at the cost of
// the touched months: it makes their rows anew, copies the row pointers (one
// per month) and shares every other row, the month axis and, unless a touched
// month brings a key f lacks, the cell table. After a 256-record shard at the
// benchmark's 150,000-record scale an advance costs ≈ 10–15 µs where NewFrame
// costs ≈ 0.3 ms (core.frame_rebuild_us, analysis.new_frame_us; 2-core box).
// f itself is not written, so readers may keep evaluating against it.
//
// The caller decides whether these preconditions hold and calls NewFrame
// when they do not (core.Study.refresh is that caller). A month missing
// from touched leaves its row stale; a touched month outside the axis panics.
//
// The fp: family stays exact without walking the window's long tail:
// lifetime volumes only grow, and only the fingerprints of the touched months
// grew, so the top K under the (volume desc, fingerprint asc) rule are the
// top K of f's top K and those fingerprints, at their current volumes. While
// that set holds, only the touched rows get fp: cells; when it changes,
// every row does, as NewFrame fills them. That takes an aggregate whose
// lifetime rows grow with its month rows, as Add and Merge keep them; a
// merged aggregate whose lifetime rows name a fingerprint none of its months
// carry may rank it late, until the next NewFrame.
//
// A design that looks simpler does not work: a mutation counter on
// notary.Aggregate or MonthStats to find the touched months makes two
// aggregates of equal content unequal under reflect.DeepEqual, which the
// merge property, the snapshot and delta round trips, the goldens and the
// pusher's exactly-once tests all rely on — so the writer (core.Study)
// names the months instead.
func (f *Frame) Advance(agg *notary.Aggregate, touched []timeline.Month) *Frame {
	next := &Frame{
		Months:     f.Months,
		index:      f.index,
		generation: agg.Generation(),
		rows:       slices.Clone(f.rows),
		cells:      f.cells,
	}
	fresh := make([]int, 0, len(touched))
	for _, m := range touched {
		i, ok := f.index[m]
		if !ok {
			panic("analysis: Advance: touched month " + m.String() + " is not on the frame's axis")
		}
		if next.rows[i] != f.rows[i] { // listed twice: its row is made
			continue
		}
		fresh = append(fresh, i)
		next.rows[i] = new(frameRow)
		next.fillRow(next.rows[i], agg.Stats(m), f)
	}
	next.fillFP(agg, f, fresh)
	return next
}

// fillRow fills the zero row r with every cell but the fp: family's from
// one month's stats, through put for the keyed cells.
func (f *Frame) fillRow(r *frameRow, ms *notary.MonthStats, prev *Frame) {
	r.cells = make([]int, len(f.cells.keys))
	copy(r.plain[:], ms.N[:])
	r.pos = ms.Pos
	for v, c := range ms.ByVersion.All() {
		f.put(r, cellKey{fam: famVersion, num: uint16(v)}, c, prev)
	}
	for cl, c := range ms.ByClass {
		f.put(r, cellKey{fam: famClass, str: cl}, c, prev)
	}
	forwardSecret := 0
	for k, c := range ms.ByKex.All() {
		f.put(r, cellKey{fam: famKex, num: uint16(k)}, c, prev)
		if k.ForwardSecret() {
			forwardSecret += c
		}
	}
	r.plain[colKexForwardSecret] = forwardSecret
	for cv, c := range ms.ByCurve.All() {
		f.put(r, cellKey{fam: famCurve, num: uint16(cv)}, c, prev)
	}
	for e, c := range ms.ByExtension.All() {
		f.put(r, cellKey{fam: famExtension, num: uint16(e)}, c, prev)
	}
	for v, c := range ms.TLS13Variant.All() {
		f.put(r, cellKey{fam: famTLS13, num: uint16(v)}, c, prev)
	}
	for class, c := range ms.ByClientClass {
		f.put(r, cellKey{fam: famAgent, str: class}, c, prev)
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
	r.plain[colFingerprints], r.plain[colFPConns] = len(ms.FPs), conns
	r.plain[colFPRC4], r.plain[colFPDES], r.plain[colFP3DES], r.plain[colFPAEAD] = rc4, des, tdes, aead

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
	r.plain[colNegAEAD], r.plain[colNegGCM128], r.plain[colNegGCM256], r.plain[colNegChaCha] = negAEAD, gcm128, gcm256, chacha
}

// put writes v to r's cell for k. A key the frame lacks gets the next cell,
// added to a copy of the table while the frame still shares it with prev,
// so prev's table never changes.
func (f *Frame) put(r *frameRow, k cellKey, v int, prev *Frame) {
	c, ok := f.cells.cell[k]
	if !ok {
		if prev != nil && f.cells == prev.cells {
			t := *f.cells
			t.cell, t.keys = maps.Clone(t.cell), slices.Clone(t.keys)
			f.cells = &t
		}
		c = f.cells.add(k)
		r.cells = append(r.cells, make([]int, c+1-len(r.cells))...)
	}
	r.cells[c] = v
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

// rank inserts e into top, the highest-ranked fingerprints met so far in
// rank order, keeping TopKFingerprints of them and each fingerprint once.
func rank(top []fpColumn, e fpColumn) []fpColumn {
	if len(top) == TopKFingerprints && compareRank(e, top[len(top)-1]) > 0 {
		return top
	}
	at, dup := slices.BinarySearchFunc(top, e, compareRank)
	if dup {
		return top
	}
	top = slices.Insert(top, at, e)
	return top[:min(len(top), TopKFingerprints)]
}

// fillFP ranks agg's top K fingerprints and fills the fp: cells of the rows
// that need them. With no prev it ranks every lifetime row and fills every
// row. Advancing from prev it ranks prev's top K and the fingerprints of the
// fresh rows' months (see Advance); while the top-K set holds it keeps
// prev's column order and names and fills only the fresh rows, and when the
// set changes it fills every row, a row shared with prev through a copy.
func (f *Frame) fillFP(agg *notary.Aggregate, prev *Frame, fresh []int) {
	var buf [TopKFingerprints + 1]fpColumn
	top := buf[:0]
	if prev == nil {
		for fp, vol := range agg.FingerprintVolumes() {
			top = rank(top, fpColumn{fp: fp, vol: vol})
		}
	} else {
		for _, c := range prev.fpTop {
			vol, _ := agg.FingerprintVolume(c.fp)
			top = rank(top, fpColumn{fp: c.fp, vol: vol, key: c.key})
		}
		for _, i := range fresh {
			for fp := range agg.Stats(f.Months[i]).FPs {
				if vol, ok := agg.FingerprintVolume(fp); ok && vol >= prev.fpFloor {
					top = rank(top, fpColumn{fp: fp, vol: vol})
				}
			}
		}
	}
	f.fpDistinct = agg.NumFingerprints()
	if len(top) == TopKFingerprints {
		f.fpFloor = top[len(top)-1].vol
	}

	if prev != nil && len(top) == len(prev.fpTop) && !slices.ContainsFunc(top, func(c fpColumn) bool { return c.key == "" }) {
		f.fpTop, f.FPNames, f.fpOther = prev.fpTop, prev.FPNames, prev.fpOther
		cells := make([]int, len(fresh)*(len(f.fpTop)+1))
		for _, i := range fresh {
			cells = f.fillFPRow(f.rows[i], agg.Stats(f.Months[i]).FPs, cells)
		}
		return
	}
	f.fpTop = slices.Clone(top)
	f.FPNames = make(map[string]string, len(top))
	for s := range f.fpTop {
		if f.fpTop[s].key == "" {
			f.fpTop[s].key = FPID(f.fpTop[s].fp)
		}
		f.FPNames[f.fpTop[s].key] = f.fpTop[s].fp
	}
	cells := make([]int, len(f.Months)*(len(f.fpTop)+1))
	for i, m := range f.Months {
		r := f.rows[i]
		if r.fp != nil { // made by an earlier frame: this one gets a copy
			cp := *r
			r = &cp
			f.rows[i] = r
		}
		cells = f.fillFPRow(r, agg.Stats(m).FPs, cells)
	}
}

// fillFPRow fills r's fp: cells, taken from the front of cells, from its
// month's fingerprint rows: each top-K fingerprint's volume, then the rest of
// the month's fp-conns for FPOtherKey. It returns what is left of cells.
func (f *Frame) fillFPRow(r *frameRow, fps map[string]*notary.FPCaps, cells []int) []int {
	k := len(f.fpTop)
	r.fp, cells = cells[:k+1:k+1], cells[k+1:]
	rest := r.plain[colFPConns]
	for s, tc := range f.fpTop {
		if caps := fps[tc.fp]; caps != nil {
			r.fp[s] = caps.Count
			rest -= caps.Count
		}
	}
	r.fp[k] = rest
	f.fpOther = f.fpOther || rest != 0
	return cells
}

// gather is the frame's one column read: at's value in every row, in a fresh
// slice aligned with Months. Every column a plan, figure or scalar reads
// comes through it, so nothing outside this file knows how rows are laid out.
func gather[T int | float64](f *Frame, at func(*frameRow) T) []T {
	out := make([]T, len(f.rows))
	for i, r := range f.rows {
		out[i] = at(r)
	}
	return out
}

// Column gathers the column a selector names, as ParseQuery canonicalizes
// it — a plain column, family:key or family:* — into a fresh slice aligned
// with Months. It returns nil for a key no month observed and for a name that
// is no column; a wildcard, the family's element-wise sum, is never nil.
func (f *Frame) Column(name string) []int {
	if c, ok := plainIndex[name]; ok {
		return f.plain(c)
	}
	fam, key, _ := strings.Cut(name, ":")
	def, ok := columnFamilies[fam]
	if !ok {
		return nil
	}
	if key == "*" {
		return def.all(f)
	}
	if _, ok := def.resolve(key); !ok {
		return nil
	}
	return def.column(f, key)
}

// plain gathers plain column c.
func (f *Frame) plain(c int) []int {
	return gather(f, func(r *frameRow) int { return r.plain[c] })
}

// keyed gathers the keyed column k, nil when no month has k.
func (f *Frame) keyed(k cellKey) []int {
	c, ok := f.cells.cell[k]
	if !ok {
		return nil
	}
	return gather(f, func(r *frameRow) int { return r.cell(c) })
}

// family gathers the element-wise sum of every keyed column of fam.
func (f *Frame) family(fam family) []int {
	cs := make([]int, 0, len(f.cells.keys))
	for c, k := range f.cells.keys {
		if k.fam == fam {
			cs = append(cs, c)
		}
	}
	return gather(f, func(r *frameRow) int {
		n := 0
		for _, c := range cs {
			n += r.cell(c)
		}
		return n
	})
}

// fp gathers the fp: column keyed by an FPID or FPOtherKey, nil when the
// frame has no such column.
func (f *Frame) fp(key string) []int {
	s := slices.IndexFunc(f.fpTop, func(c fpColumn) bool { return c.key == key })
	if key == FPOtherKey && f.fpOther {
		s = len(f.fpTop)
	}
	if s < 0 {
		return nil
	}
	return gather(f, func(r *frameRow) int { return r.fp[s] })
}

// position gathers Figure 5's accumulators of class c: each month's summed
// positions and the number of client lists they were summed over.
func (f *Frame) position(c notary.PosClass) ([]float64, []int) {
	return gather(f, func(r *frameRow) float64 { return r.pos[c].Sum }),
		gather(f, func(r *frameRow) int { return r.pos[c].Count })
}

// FingerprintGauges reports the fp: family's shape for observability:
// distinct fingerprints in the window, the column cap, and the share of
// fingerprinted volume folded into the FPOtherKey bucket (percent).
func (f *Frame) FingerprintGauges() (distinct, topK int, otherShare float64) {
	if total := sumCol(f.plain(colFPConns)); total > 0 {
		otherShare = 100 * float64(sumCol(f.fp(FPOtherKey))) / float64(total)
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
