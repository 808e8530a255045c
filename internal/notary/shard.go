package notary

import "tlsage/internal/timeline"

// ShardBuilder accumulates records into a private Aggregate — the shard a
// stream builds before a merge — paying for a hello's shape once per distinct
// hello, not once per record: a 4,096-record shard of a simulated stream
// holds under two hundred distinct (month, hello) pairs and a few dozen
// (month, suite) ones. For each record it does what is the record's own
// (Aggregate.tally) and counts the record in its (month, hello row) cell and
// its month's raw-suite table; Flush folds each cell's
// shape and each suite times its count through the bodies Add runs with a
// count of one (foldHello, foldSuite). Those counters are integers, so the
// product is the sum; Figure 5's position sums are floats, which is why tally
// adds them record by record, in arrival order, and a Flush is
// reflect.DeepEqual to Add over the same records, Pos[c].Sum bit for bit.
//
// A record finds its cell by its row's ordinal (helloRow.id), through a
// direct-mapped slot that is believed only while the cell it names is the
// record's row in the record's month. A miss opens a new cell, even for a
// (month, row) pair that has one: every fold is additive, so two cells of a
// pair count what one would, and the pair's first cell keeps its first-seen
// place. A stream whose rows or months thrash a slot only folds sooner, at
// maxPendingCells.
//
// A ShardBuilder serves one stream at a time: it is not safe for concurrent
// use, and nothing of the shard may be read before Flush.
type ShardBuilder struct {
	newShard func() *Aggregate
	agg      *Aggregate // the shard under construction; nil until a record needs it
	months   map[timeline.Month]*builderMonth
	last     *builderMonth // the previous record's month: a stream's dates run together
	cells    []helloCell   // pending, in first-seen order
	// slots holds, at a row's slot, 1 + the index in cells of the cell last
	// opened for a row there; 0 when no pending cell has the slot.
	slots [maxHelloRows]int32
}

// builderMonth is what a builder keeps per month beside the shard's stats.
type builderMonth struct {
	month timeline.Month
	ms    *MonthStats // the shard's month; nil until this shard touches it
	// suites counts established connections per negotiated suite as it came,
	// pending foldSuite.
	suites Counts[uint16]
}

// helloCell counts the records of one month that came through one hello row.
// It holds the row: a decoder table emptied mid-shard lets go of its rows, a
// cell does not.
type helloCell struct {
	bm          *builderMonth
	row         *helloRow
	n           int
	first, last timeline.Date
}

const (
	// maxPendingCells bounds the rows a builder pins, whatever its owner's
	// flush cadence: at this many cells they are folded into the shard early.
	// A whole-log builder (ReadLogParallel's) would otherwise hold a cell per
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
		bm = &builderMonth{month: m}
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
	b.agg.tally(bm.ms, r, &row.shape)
	if r.Established {
		bm.suites.Add(r.Suite, 1)
	}
	slot := &b.slots[row.slot()]
	if i := *slot - 1; i < 0 || b.cells[i].row != row || b.cells[i].bm != bm {
		if len(b.cells) >= maxPendingCells {
			b.foldCells()
		}
		b.cells = append(b.cells, helloCell{bm: bm, row: row, first: r.Date, last: r.Date})
		*slot = int32(len(b.cells))
	}
	c := &b.cells[*slot-1]
	c.n++
	if r.Date.After(c.last) {
		c.last = r.Date
	}
	if c.first.After(r.Date) {
		c.first = r.Date
	}
}

// Close implements Sink. It is a no-op: the owner takes the shard with Flush.
func (b *ShardBuilder) Close() error { return nil }

// foldCells folds the pending cells into the shard, oldest first, and forgets
// them and their slots.
func (b *ShardBuilder) foldCells() {
	for _, c := range b.cells {
		b.agg.foldHello(c.bm.ms, &c.row.shape, c.row.Fingerprint, c.first, c.last, c.n)
		b.slots[c.row.slot()] = 0
	}
	clear(b.cells) // let go of the rows
	b.cells = b.cells[:0]
}

// Flush completes the shard — every record observed since the last Flush —
// and returns it, the caller's to merge and keep; with no record it is an
// empty shard. The builder is then empty and ready for the stream's next
// shard, or the next stream's, with the capacity of its cells and suite pages
// kept.
func (b *ShardBuilder) Flush() *Aggregate {
	agg := b.shard()
	b.foldCells()
	for _, bm := range b.months {
		if bm.ms == nil {
			continue
		}
		for suite, n := range bm.suites.All() {
			bm.ms.foldSuite(suite, n)
		}
		bm.suites.reset()
		bm.ms = nil
	}
	if len(b.months) > maxKeptMonths {
		clear(b.months)
	}
	b.agg, b.last = nil, nil
	return agg
}
