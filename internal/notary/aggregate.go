package notary

import (
	"iter"
	"sort"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// MonthStats accumulates everything the paper's figures need for one
// calendar month. All percentage series in the figure renderers derive from
// these counters.
//
// The plain counters and Figure 5's position accumulators are fixed arrays
// indexed by the schema's enums (schema.go). The six counters keyed by a
// wire code point (ByVersion, ByKex, BySuite, ByCurve, TLS13Variant,
// ByExtension) are dense Counts tables; the string-keyed ones are maps.
// In a table or map a key is "present" once anything has touched it, even
// with a zero delta: a present key is written to snapshots and deltas and
// gets a column in the analysis frame, an absent one does not.
type MonthStats struct {
	Month timeline.Month

	// N holds the plain counters, indexed by Counter (see schema.go).
	N [NumCounters]int

	// Negotiated parameters (established connections only).
	ByVersion Counts[registry.Version]     // dense; canonical versions
	ByClass   map[string]int               // AEAD / CBC / RC4 / other
	ByKex     Counts[registry.KeyExchange] // dense
	BySuite   Counts[uint16]               // dense
	ByCurve   Counts[registry.CurveID]     // dense

	// TLS13Variant counts the TLS 1.3 draft/variant each AdvTLS13 hello
	// advertised. Dense.
	TLS13Variant Counts[registry.Version]

	// Pos holds Figure 5's accumulators per suite class: the relative
	// position (0..1) of the class's first suite in each client list, summed,
	// and the number of lists that carried the class. Each term is at most 1,
	// so Sum <= Count always; a class is present once Count > 0.
	Pos [NumPosClasses]struct {
		Sum   float64
		Count int
	}

	// ByExtension counts connections advertising each extension (GREASE
	// stripped) — the §9 deployment-tracking data (renegotiation_info,
	// encrypt_then_mac, ...). Dense.
	ByExtension Counts[registry.ExtensionID]

	// FPs holds one row per fingerprint seen in the month: its capability
	// classes (Figure 4) and its connections (§4 attribution, the volume the
	// fp: query family reads).
	FPs map[string]*FPCaps

	// Connections per attributed client class (Table 2), keyed by the
	// clientdb class name. Only filled when the owning aggregate has a
	// Classifier; unattributed fingerprints count nowhere.
	ByClientClass map[string]int
}

// FPCaps is one fingerprint's row in a month: the suite classes its cipher
// list contains — of the seven the snapshot format has a flag bit for
// (fpWireClasses) — and its connections.
type FPCaps struct {
	Classes registry.ClassBits
	Count   int
}

// newMonthStats allocates the counter maps; the Counts fields start empty.
func newMonthStats(m timeline.Month) *MonthStats {
	return &MonthStats{
		Month:         m,
		ByClass:       make(map[string]int),
		FPs:           make(map[string]*FPCaps),
		ByClientClass: make(map[string]int),
	}
}

// Classifier attributes a fingerprint to a client class (Table 2). It is an
// interface — not a concrete DB — because internal/fingerprint already
// imports notary; the fingerprint.DB satisfies it from the other side of the
// dependency edge.
//
// The method must be pure with respect to aggregate content: two aggregates
// built from the same records under the same classifier must be equal, so
// Merge never re-classifies.
type Classifier interface {
	// ClassOf returns the client-class name for a fingerprint string, or
	// ok=false when the fingerprint is not in the database.
	ClassOf(fp string) (class string, ok bool)
}

// Aggregate is a streaming monthly aggregator: feed it Records in any order
// and read per-month statistics back.
type Aggregate struct {
	months map[timeline.Month]*MonthStats
	// spare holds the months Reset emptied, for month to reuse.
	spare []*MonthStats
	// fps holds one row per fingerprint ever seen: its §4.1 lifetime and the
	// classifier's verdict on it, so Add hashes the fingerprint once here
	// instead of once per fact.
	fps map[string]*fpLife
	// classifier attributes fingerprints to client classes at Add time. It
	// is configuration, not content: Merge ignores the donor's classifier,
	// and equality of aggregate *content* is unaffected by it (ByClientClass
	// counters are content; the classifier that produced them is not
	// serialized).
	classifier Classifier
	// generation counts ingested records: Add increments it and Merge folds
	// the donor's count in. Snapshot consumers compare it to detect
	// staleness without hashing the maps; because it tracks content rather
	// than call counts, aggregates with equal content built by any sharding
	// of the same stream also have equal generations (the merge property
	// tests rely on that).
	generation uint64
}

// fpLife is one fingerprint's row in Aggregate.fps.
type fpLife struct {
	first, last timeline.Date
	conns       int64
	// class and attributed memoise classifier.ClassOf for this fingerprint
	// (Classifier is pure, so the verdict cannot change under one
	// classifier). They always reflect the aggregate's current classifier —
	// unattributed while there is none — so equal content under the same
	// classifier stays reflect.DeepEqual however the rows came to be.
	class      string
	attributed bool
}

// NewAggregate returns an empty aggregator.
func NewAggregate() *Aggregate {
	return &Aggregate{
		months: make(map[timeline.Month]*MonthStats),
		fps:    make(map[string]*fpLife),
	}
}

// SetClassifier installs (or clears, with nil) the fingerprint→class
// attribution used by Add. Install it before ingesting: records added while
// no classifier is set are never re-attributed. Fingerprints the aggregate
// already knows (from a decoded snapshot, say) are re-resolved here, so
// records of theirs added from now on are attributed.
func (a *Aggregate) SetClassifier(c Classifier) {
	a.classifier = c
	for fp, life := range a.fps {
		life.classify(c, fp)
	}
}

func (l *fpLife) classify(c Classifier, fp string) {
	l.class, l.attributed = "", false
	if c != nil {
		l.class, l.attributed = c.ClassOf(fp)
	}
}

// newLife adds the row of a fingerprint the aggregate has not met, with no
// connections yet, resolving its class at this first sight.
func (a *Aggregate) newLife(fp string, first, last timeline.Date) *fpLife {
	l := &fpLife{first: first, last: last}
	l.classify(a.classifier, fp)
	a.fps[fp] = l
	return l
}

// life returns fp's lifetime row widened to cover first through last, adding
// the row of a fingerprint the aggregate has not met.
func (a *Aggregate) life(fp string, first, last timeline.Date) *fpLife {
	l := a.fps[fp]
	if l == nil {
		return a.newLife(fp, first, last)
	}
	if last.After(l.last) {
		l.last = last
	}
	if l.first.After(first) {
		l.first = first
	}
	return l
}

// Classifier returns the installed classifier, nil when attribution is off.
func (a *Aggregate) Classifier() Classifier { return a.classifier }

// Observe ingests one record, making *Aggregate a Sink. Add keeps nothing of
// the record itself, so its producer may refill it as soon as the call
// returns.
func (a *Aggregate) Observe(r *Record) error {
	a.Add(r)
	return nil
}

// Close is a no-op: an aggregate buffers nothing.
func (a *Aggregate) Close() error { return nil }

// month returns month m's stats, creating them on first sight.
func (a *Aggregate) month(m timeline.Month) *MonthStats {
	ms, ok := a.months[m]
	if !ok {
		if n := len(a.spare); n > 0 {
			ms, a.spare = a.spare[n-1], a.spare[:n-1]
			ms.Month = m
		} else {
			ms = newMonthStats(m)
		}
		a.months[m] = ms
	}
	return ms
}

// Reset empties a in place for the records to come, keeping its classifier
// and what its months grew — their maps, Counts pages and MonthStats, up to
// maxKeptMonths of them: a collector empties each shard once it has merged
// and builds the next one in it. An emptied aggregate reads, merges and
// encodes as a fresh one does, but it is not reflect.DeepEqual to one: its
// tables keep zeroed pages and it keeps its spare months. An aggregate it is
// merged into stays reflect.DeepEqual to one fresh shards were merged into,
// because Counts.merge skips a page with nothing present.
func (a *Aggregate) Reset() {
	for _, ms := range a.months {
		if len(a.spare) >= maxKeptMonths {
			break
		}
		clear(ms.N[:])
		clear(ms.Pos[:])
		ms.ByVersion.reset()
		ms.ByKex.reset()
		ms.BySuite.reset()
		ms.ByCurve.reset()
		ms.TLS13Variant.reset()
		ms.ByExtension.reset()
		clear(ms.ByClass)
		clear(ms.FPs)
		clear(ms.ByClientClass)
		a.spare = append(a.spare, ms)
	}
	clear(a.months)
	clear(a.fps)
	a.generation = 0
}

// Add ingests one record: what must be added record by record (tally), then
// its hello and its outcome, each folded with a count of one. A ShardBuilder
// does the first per record and the two folds once per (month, hello) and
// (month, outcome) cell, through the same three bodies.
func (a *Aggregate) Add(r *Record) {
	ms := a.month(timeline.MonthOf(r.Date))
	row := r.row()
	a.tally(ms, &row.shape)
	a.foldHello(ms, &row.shape, row.Fingerprint, r.Date, r.Date, 1)
	ms.foldOutcome(outcomeOf(r), 1)
}

// tally advances the generation by the record and adds Figure 5's position
// terms of its hello sh to ms, its month. The terms are floats, so they are
// added record by record, in arrival order whoever calls, over the classes the
// hello has a term for in ascending order; everything else a record counts is
// an integer, folded per cell.
func (a *Aggregate) tally(ms *MonthStats, sh *helloShape) {
	a.generation++
	for _, p := range sh.pos[:sh.npos] {
		ms.Pos[p.class].Sum += p.term
	}
}

// foldHello counts n records of month ms that offered the hello sh under
// fingerprint fp, the earliest dated first and the latest last. The first
// hello folded for a fingerprint in a month decides its FPCaps.Classes.
func (a *Aggregate) foldHello(ms *MonthStats, sh *helloShape, fp string, first, last timeline.Date, n int) {
	for _, ac := range advCounters {
		if sh.bits.Has(ac.bit) {
			ms.N[ac.c] += n
		}
	}
	if sh.variant != 0 {
		ms.N[AdvTLS13] += n
		ms.TLS13Variant.Add(sh.variant, n)
	}
	ms.ByExtension.addEach(sh.exts, n)
	for _, p := range sh.pos[:sh.npos] {
		ms.Pos[p.class].Count += n
	}
	if fp == "" {
		return
	}
	caps, ok := ms.FPs[fp]
	if !ok {
		caps = &FPCaps{Classes: sh.bits & fpClassMask}
		ms.FPs[fp] = caps
	}
	caps.Count += n
	life := a.life(fp, first, last)
	life.conns += int64(n)
	if life.attributed {
		ms.ByClientClass[life.class] += n
	}
}

// outcome is a record's negotiated side packed into one key: the flags its
// counters read and, for an established connection, the version, the curve
// and the suite it negotiated. The records of a month with one outcome count
// alike, so a ShardBuilder counts them per (month, outcome) cell and folds
// each cell once. The version is kept as it came and made canonical by the
// fold, once per cell.
type outcome uint64

const (
	outEstablished outcome = 1 << (48 + iota)
	outSSLv2
	outOffersHB
	outHBAck
	outUnoffered
)

// outcomeCounters pairs each flag of an outcome with the counter it bumps.
var outcomeCounters = [...]struct {
	bit outcome
	c   Counter
}{
	{outEstablished, Established},
	{outSSLv2, SSLv2Hellos},
	{outOffersHB, OffersHeartbeatN},
	{outHBAck, HeartbeatAckN},
	{outUnoffered, UnofferedChoice},
}

// outcomeOf returns r's outcome. A connection that was not established
// negotiated nothing, so its outcome holds its framing and heartbeat offer only.
func outcomeOf(r *Record) outcome {
	var k outcome
	if r.SSLv2Hello {
		k = outSSLv2
	}
	if r.OffersHeartbeat {
		k |= outOffersHB
	}
	if !r.Established {
		return k
	}
	k |= outEstablished | outcome(r.Version)<<32 | outcome(r.Curve)<<16 | outcome(r.Suite)
	if r.HeartbeatAck {
		k |= outHBAck
	}
	if r.SuiteUnoffer {
		k |= outUnoffered
	}
	return k
}

// foldOutcome counts n records of month ms with outcome k.
func (ms *MonthStats) foldOutcome(k outcome, n int) {
	ms.N[Total] += n
	for _, oc := range outcomeCounters {
		if k&oc.bit != 0 {
			ms.N[oc.c] += n
		}
	}
	if k&outEstablished == 0 {
		return
	}
	ms.ByVersion.Add(registry.Version(k>>32).Canonical(), n)
	if curve := registry.CurveID(k >> 16); curve != 0 {
		ms.ByCurve.Add(curve, n)
	}
	ms.foldSuite(uint16(k), n)
}

// foldSuite counts n established connections that negotiated suite.
func (ms *MonthStats) foldSuite(suite uint16, n int) {
	s, ok := registry.SuiteByID(suite)
	if !ok {
		return
	}
	ms.ByClass[s.TrafficClass()] += n
	ms.ByKex.Add(s.Kex, n)
	ms.BySuite.Add(suite, n)
	if s.IsNULLCipher() {
		ms.N[NULLNegotiated] += n
	}
	if s.IsAnon() {
		ms.N[AnonNegotiated] += n
	}
	if s.IsExport() {
		ms.N[ExportNegotiated] += n
	}
}

// merge folds o's counters into ms. Both must describe the same month.
func (ms *MonthStats) merge(o *MonthStats) {
	for c, v := range o.N {
		ms.N[c] += v
	}
	for c, p := range o.Pos {
		ms.Pos[c].Sum += p.Sum
		ms.Pos[c].Count += p.Count
	}
	ms.ByVersion.merge(&o.ByVersion)
	for k, v := range o.ByClass {
		ms.ByClass[k] += v
	}
	ms.ByKex.merge(&o.ByKex)
	ms.BySuite.merge(&o.BySuite)
	ms.ByCurve.merge(&o.ByCurve)
	ms.TLS13Variant.merge(&o.TLS13Variant)
	ms.ByExtension.merge(&o.ByExtension)
	for k, v := range o.ByClientClass {
		ms.ByClientClass[k] += v
	}
	for fp, oc := range o.FPs {
		c, ok := ms.FPs[fp]
		if !ok {
			cp := *oc
			ms.FPs[fp] = &cp
			continue
		}
		c.Count += oc.Count
		// A fingerprint hashes the cipher list, so capability classes agree
		// across shards; OR keeps merge closed under hand-built inputs.
		c.Classes |= oc.Classes
	}
}

// Merge folds other into a, so that merging aggregates built from any
// partition of a record stream yields the same content as feeding the whole
// stream to one Aggregate. It is the combine step of the sharded simulation
// pipeline. other is not modified, but the receiving aggregate deep-copies
// everything it keeps, so other may be discarded or reused freely.
func (a *Aggregate) Merge(other *Aggregate) {
	a.generation += other.generation
	for m, oms := range other.months {
		a.month(m).merge(oms)
	}
	for fp, ol := range other.fps {
		a.life(fp, ol.first, ol.last).conns += ol.conns
	}
}

// Months returns the observed months in chronological order.
func (a *Aggregate) Months() []timeline.Month {
	out := make([]timeline.Month, 0, len(a.months))
	for m := range a.months {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Stats returns the stats for month m, or nil when unobserved.
func (a *Aggregate) Stats(m timeline.Month) *MonthStats { return a.months[m] }

// NumMonths returns the number of observed months.
func (a *Aggregate) NumMonths() int { return len(a.months) }

// Generation returns a counter that changes whenever records are ingested
// (directly via Add or folded in via Merge). A snapshot built from the
// aggregate can record the generation it saw and later detect that the
// aggregate has moved on — the cheap staleness check the columnar analysis
// frame and any future live-service mode rely on.
func (a *Aggregate) Generation() uint64 { return a.generation }

// EachMonth calls fn once per observed month in chronological order. It is
// the snapshot-iteration API: a consumer can materialise every counter in
// one pass without touching the aggregate's internal month map.
func (a *Aggregate) EachMonth(fn func(*MonthStats)) {
	for _, m := range a.Months() {
		fn(a.months[m])
	}
}

// UpdateMonth applies fn to month m's stats, creating the month if it was
// never observed, and advances the generation by records — the number of
// underlying observations fn represents. It exists for studies whose data
// arrives pre-aggregated (active scan campaigns report per-date summary
// counters, not individual records) so they can populate an Aggregate and
// ride the same Frame/query machinery as record streams.
func (a *Aggregate) UpdateMonth(m timeline.Month, records uint64, fn func(*MonthStats)) {
	fn(a.month(m))
	a.generation += records
}

// TotalRecords sums Total over all months.
func (a *Aggregate) TotalRecords() int {
	n := 0
	for _, ms := range a.months {
		n += ms.N[Total]
	}
	return n
}

// NumFingerprints returns the number of distinct fingerprints ever seen.
func (a *Aggregate) NumFingerprints() int { return len(a.fps) }

// FingerprintVolumes iterates every fingerprint ever seen with its
// whole-window connections, in no particular order.
func (a *Aggregate) FingerprintVolumes() iter.Seq2[string, int64] {
	return func(yield func(string, int64) bool) {
		for fp, life := range a.fps {
			if !yield(fp, life.conns) {
				return
			}
		}
	}
}

// FingerprintVolume returns fp's whole-window connections, ok=false when the
// aggregate has never seen fp.
func (a *Aggregate) FingerprintVolume(fp string) (int64, bool) {
	if life := a.fps[fp]; life != nil {
		return life.conns, true
	}
	return 0, false
}

// FPDuration describes one fingerprint's observed lifetime (§4.1).
type FPDuration struct {
	Fingerprint string
	First, Last timeline.Date
	Days        int // inclusive duration: 1 for a single-day fingerprint
	Connections int64
}

// FPDurations returns lifetime stats for every fingerprint seen.
func (a *Aggregate) FPDurations() []FPDuration {
	out := make([]FPDuration, 0, len(a.fps))
	for fp, life := range a.fps {
		out = append(out, FPDuration{
			Fingerprint: fp,
			First:       life.first,
			Last:        life.last,
			Days:        life.last.DaysSince(life.first) + 1,
			Connections: life.conns,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}
