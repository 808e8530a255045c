package notary

import "tlsage/internal/timeline"

// ShardBuilder accumulates records into a private Aggregate — the shard a
// stream builds before a merge — paying for what repeats across records once
// per distinct value, not once per record: a 4,096-record shard of the
// benchmark's simulated corpus holds 240 distinct (month, hello) pairs and 104
// (month, outcome) ones on average. Every fold into a private shard goes
// through one: a served stream's, each ReadLogParallel worker's (the one of
// -workers 1 too), recovery's replay of the log past its snapshot, an edge's
// replay of its unshipped log tail, and core.Study.Run's. For each record it
// does what is the record's own (Aggregate.tally) and counts the record in
// its (month, hello row) cell and its (month, outcome) cell; Flush folds each
// cell once, its count times, through the bodies Add runs with a count of one
// (foldHello, foldOutcome). Those counters are integers, so the product is
// the sum; Figure 5's position sums are floats, which is why tally adds them
// record by record, in arrival order, and a Flush is reflect.DeepEqual to Add
// over the same records, Pos[c].Sum bit for bit.
//
// A record finds its hello cell by its row's ordinal (helloRow.id), and its
// outcome cell by a hash of the outcome and the month's ordinal in the
// builder (outcomeSlot), each through a direct-mapped slot that is believed
// only while the cell it names is the record's row, or outcome, in the
// record's month. A miss opens a new cell, even for a pair that has one:
// every fold is additive, so two cells of a pair count what one would, and a
// pair's first hello cell keeps its first-seen place. A stream whose rows,
// outcomes or months thrash a slot only folds sooner, at maxPendingCells
// cells of either kind.
//
// A ShardBuilder serves one stream at a time: it is not safe for concurrent
// use, and nothing of the shard may be read before Flush.
type ShardBuilder struct {
	newShard func() *Aggregate
	agg      *Aggregate // the shard under construction; nil until a record needs it
	months   map[timeline.Month]*builderMonth
	last     *builderMonth // the previous record's month: a stream's dates run together
	cells    []helloCell   // pending, in first-seen order
	outcomes []outcomeCell // pending, in first-seen order
	// slots holds, at a row's slot, 1 + the index in cells of the cell last
	// opened for a row there; 0 when no pending cell has the slot.
	slots [maxHelloRows]int32
	// outcomeSlots is slots for outcomes, at outcomeSlot.
	outcomeSlots [1 << outcomeSlotBits]int32
}

// builderMonth is a month the builder has met.
type builderMonth struct {
	month timeline.Month
	ord   uint64      // the month's ordinal in the builder, for outcomeSlot
	ms    *MonthStats // the shard's month; nil until this shard touches it
}

// helloCell counts the records of one month that came through one hello row,
// and keeps the first and last of their days in that month. It holds the row:
// a decoder table emptied mid-shard lets go of its rows, a cell does not.
type helloCell struct {
	bm          *builderMonth
	row         *helloRow
	n           int
	first, last int
}

// outcomeCell counts the records of one month with one outcome.
type outcomeCell struct {
	bm  *builderMonth
	key outcome
	n   int
}

// outcomeSlotBits sizes outcomeSlots: ten times the outcome cells a shard of
// the benchmark's corpus opens, so that two of them seldom share a slot.
const outcomeSlotBits = 10

// outcomeSlot is the slot of month bm's outcome k: a hash of the key with the
// month's ordinal in the bits above the key's flags. It multiplies twice, so
// that one outcome's slots in two months differ by no constant.
func outcomeSlot(bm *builderMonth, k outcome) int {
	x := (uint64(k) ^ bm.ord<<53) * 0x9e3779b97f4a7c15
	return int((x ^ x>>29) * 0xbf58476d1ce4e5b9 >> (64 - outcomeSlotBits))
}

const (
	// maxPendingCells bounds the cells of each kind a builder keeps, and so
	// the rows it pins, whatever its owner's flush cadence: at this many
	// cells of either kind all of them are folded into the shard early. A
	// whole-log builder (ReadLogParallel's) would otherwise hold a cell per
	// fingerprint row of its aggregate.
	maxPendingCells = 1 << 12
	// maxKeptMonths bounds the per-month state carried from one flush to the
	// next (a study spans 75 months; a feeder may spray dates), by a builder
	// and by an emptied aggregate alike.
	maxKeptMonths = 1 << 8
)

// NewShardBuilder returns an empty builder. newShard makes each shard — an
// empty aggregate configured like the one the shards are merged into (see
// core.Study.NewShard) — and is called once per Flush, when the shard's first
// record arrives.
func NewShardBuilder(newShard func() *Aggregate) *ShardBuilder {
	return &ShardBuilder{newShard: newShard, months: make(map[timeline.Month]*builderMonth)}
}

func (b *ShardBuilder) shard() *Aggregate {
	if b.agg == nil {
		b.agg = b.newShard()
	}
	return b.agg
}

// month returns the builder's state for month m, bound to the shard's stats.
func (b *ShardBuilder) month(m timeline.Month) *builderMonth {
	if bm := b.last; bm != nil && bm.month == m {
		return bm
	}
	bm := b.months[m]
	if bm == nil {
		bm = &builderMonth{month: m, ord: uint64(len(b.months))}
		b.months[m] = bm
	}
	if bm.ms == nil {
		bm.ms = b.shard().month(m)
	}
	b.last = bm
	return bm
}

// Observe implements Sink.
func (b *ShardBuilder) Observe(r *Record) error {
	b.Add(r)
	return nil
}

// Add counts one record into the shard. Like Aggregate.Add it keeps nothing
// of r but its hello row, which is immutable.
func (b *ShardBuilder) Add(r *Record) {
	row := r.row()
	bm := b.month(timeline.MonthOf(r.Date))
	b.agg.tally(bm.ms, &row.shape)
	b.countHello(bm, row, r.Date.Day)
	b.countOutcome(bm, outcomeOf(r))
}

// countHello counts a record of month bm on hello row, dated day, in its cell.
func (b *ShardBuilder) countHello(bm *builderMonth, row *helloRow, day int) {
	slot := &b.slots[row.slot()]
	if i := *slot - 1; i < 0 || b.cells[i].row != row || b.cells[i].bm != bm {
		if len(b.cells) >= maxPendingCells {
			b.foldCells()
		}
		b.cells = append(b.cells, helloCell{bm: bm, row: row, first: day, last: day})
		*slot = int32(len(b.cells))
	}
	c := &b.cells[*slot-1]
	c.n++
	c.first, c.last = min(c.first, day), max(c.last, day)
}

// countOutcome counts a record of month bm with outcome k in its cell.
func (b *ShardBuilder) countOutcome(bm *builderMonth, k outcome) {
	slot := &b.outcomeSlots[outcomeSlot(bm, k)]
	if i := *slot - 1; i < 0 || b.outcomes[i].key != k || b.outcomes[i].bm != bm {
		if len(b.outcomes) >= maxPendingCells {
			b.foldCells()
		}
		b.outcomes = append(b.outcomes, outcomeCell{bm: bm, key: k})
		*slot = int32(len(b.outcomes))
	}
	b.outcomes[*slot-1].n++
}

// Close implements Sink. It is a no-op: the owner takes the shard with Flush.
func (b *ShardBuilder) Close() error { return nil }

// foldCells folds the pending cells into the shard, oldest first, and forgets
// them and their slots.
func (b *ShardBuilder) foldCells() {
	for _, c := range b.cells {
		m := c.bm.month
		first, last := timeline.Date{Year: m.Year, Month: m.M, Day: c.first}, timeline.Date{Year: m.Year, Month: m.M, Day: c.last}
		b.agg.foldHello(c.bm.ms, &c.row.shape, c.row.Fingerprint, first, last, c.n)
		b.slots[c.row.slot()] = 0
	}
	clear(b.cells) // let go of the rows
	b.cells = b.cells[:0]
	for _, c := range b.outcomes {
		c.bm.ms.foldOutcome(c.key, c.n)
		b.outcomeSlots[outcomeSlot(c.bm, c.key)] = 0
	}
	b.outcomes = b.outcomes[:0]
}

// Flush completes the shard — every record observed since the last Flush —
// and returns it, the caller's to merge and keep; with no record it is an
// empty shard. The builder is then empty and ready for the stream's next
// shard, or the next stream's, with the capacity of its cells kept.
func (b *ShardBuilder) Flush() *Aggregate {
	agg := b.shard()
	b.foldCells()
	for _, bm := range b.months {
		bm.ms = nil
	}
	if len(b.months) > maxKeptMonths {
		clear(b.months)
	}
	b.agg, b.last = nil, nil
	return agg
}
