package notary

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Tests of the ShardBuilder beyond what the differential harness gives every
// seed and fuzz input (decode_diff_test.go folds each stream through a builder
// too): the orders the first-seen rule depends on, dates, a decoder table
// emptied under a builder's cells, the builder's own early fold, flush
// cadences, and what a warm pool spares a stream.

// oversize returns r with a cipher list too long for a hello table to keep:
// the decoders hand it to sinks on a row of its own. Its list is all RC4.
func oversize(r *Record) *Record {
	return editHello(r, func(h *Hello) {
		h.Suites = make([]uint16, maxHelloSpan)
		for i := range h.Suites {
			h.Suites[i] = 0x0005
		}
	})
}

// builderSeeds are streams whose aggregate depends on what a builder defers.
func builderSeeds() map[string][]*Record {
	// One fingerprint over two lists with different class bits: AEAD among
	// others on a row the table keeps, RC4 alone on a row it does not.
	row, bare := sampleRecord(), oversize(sampleRecord())
	// One hello on descending dates, over a month boundary and back.
	var dated []*Record
	for _, d := range []timeline.Date{
		timeline.D(2015, time.June, 20), timeline.D(2015, time.June, 10), timeline.D(2015, time.June, 3),
		timeline.D(2015, time.July, 1), timeline.D(2015, time.June, 30), timeline.D(2015, time.May, 31),
		timeline.D(2015, time.July, 2), timeline.D(2015, time.June, 1),
	} {
		r := sampleRecord()
		r.Date = d
		dated = append(dated, r)
	}
	return map[string][]*Record{
		"one fingerprint, two class sets, the kept row first":   {row, row, bare, row},
		"one fingerprint, two class sets, the unkept row first": {bare, row, bare, row, row},
		"descending dates and a month boundary inside a shard":  dated,
	}
}

func TestBuilderSeedsMatchReference(t *testing.T) {
	for name, recs := range builderSeeds() {
		t.Run(name, func(t *testing.T) {
			diffReadBatches(t, encodeBatch(recs))
			diffReadLog(t, tsvLog(recs))
		})
	}
	// The first two are only worth their names if the order shows.
	seeds := builderSeeds()
	classes := func(recs []*Record) registry.ClassBits {
		b := NewShardBuilder(classified)
		if _, _, err := ReadBatches(bytes.NewReader(encodeBatch(recs)), b); err != nil {
			t.Fatal(err)
		}
		return b.Flush().Stats(timeline.MonthOf(recs[0].Date)).FPs[recs[0].Fingerprint()].Classes
	}
	first := classes(seeds["one fingerprint, two class sets, the kept row first"])
	second := classes(seeds["one fingerprint, two class sets, the unkept row first"])
	if first == second || !first.Has(registry.ClassAEAD) || second.Has(registry.ClassAEAD) {
		t.Errorf("vacuous: FPCaps.Classes %b with the kept row first, %b with the unkept one first", first, second)
	}
}

// A builder nobody flushes folds its cells itself at maxPendingCells, and a
// stream that keeps making new cells of one kind — more hellos than the
// bound, over two months, or more outcomes, every suite a different one on
// one hello — still comes out as Add has it. The outcome stream's months come
// in two runs, so it keeps two hello cells: its outcome cells alone reach the
// bound.
func TestBuilderFoldsEarlyAtItsCellBound(t *testing.T) {
	const n = maxPendingCells + 300
	hellos, outcomes := distinctHellos(n), make([]*Record, n)
	for i := range n {
		if i%2 == 1 {
			hellos[i].Date = timeline.D(2015, time.July, 1+i%28)
		}
		outcomes[i] = sampleRecord()
		outcomes[i].Suite = uint16(i)
		if i >= n/2 {
			outcomes[i].Date = timeline.D(2015, time.July, 1+i%28)
		}
	}
	for name, c := range map[string]struct {
		recs        []*Record
		grows, stay func(*ShardBuilder) int
	}{
		"hello cells":   {hellos, func(b *ShardBuilder) int { return len(b.cells) }, func(b *ShardBuilder) int { return len(b.outcomes) }},
		"outcome cells": {outcomes, func(b *ShardBuilder) int { return len(b.outcomes) }, func(b *ShardBuilder) int { return len(b.cells) }},
	} {
		recs := append(c.recs, c.recs[:600]...)
		want, b := classified(), NewShardBuilder(classified)
		most, other := 0, 0
		for _, r := range recs {
			want.Add(r)
		}
		_, _, err := ReadBatches(bytes.NewReader(encodeBatch(recs)), Tee(b, SinkFunc(func(*Record) error {
			most, other = max(most, c.grows(b)), max(other, c.stay(b))
			return nil
		})))
		if err != nil {
			t.Fatal(err)
		}
		if most != maxPendingCells || other != 2 {
			t.Errorf("%s: the builder held %d of them and %d of the other kind at most, want %d and 2", name, most, other, maxPendingCells)
		}
		requireSameAggregate(t, name+": a builder folding early", b.Flush(), want)
	}
}

// A builder that met more than maxKeptMonths months forgets them at Flush, and
// its next shard, whose months it numbers afresh, is still Add's. The shard,
// emptied, keeps maxKeptMonths of its months for the records to come.
func TestBuilderForgetsMonthsPastItsBound(t *testing.T) {
	var recs []*Record
	for m := range maxKeptMonths + 10 {
		r := sampleRecord()
		r.Date = timeline.D(2000+m/12, time.Month(1+m%12), 1+m%28)
		recs = append(recs, r)
	}
	b := NewShardBuilder(classified)
	for round := range 2 {
		want := classified()
		for _, r := range recs {
			want.Add(r)
			b.Add(r)
		}
		shard := b.Flush()
		requireSameAggregate(t, fmt.Sprintf("shard %d", round), shard, want)
		if shard.Reset(); len(b.months) != 0 || len(shard.spare) != maxKeptMonths {
			t.Fatalf("shard %d: the builder kept %d months, the emptied shard %d, past their bound of %d", round, len(b.months), len(shard.spare), maxKeptMonths)
		}
		slices.Reverse(recs)
	}
}

// Outcomes whose slots collide, record by record: a slot keeps naming the
// other outcome's cell, or the other month's, every such lookup misses and
// opens a duplicate cell, and the shard is still Add's, bit for bit. The
// first order needs the builder to check a cell's outcome, the second its
// month. A builder numbers its months as they come: June is 0, July 1.
func TestBuilderOutcomeSlotThrash(t *testing.T) {
	june, july := &builderMonth{ord: 0}, &builderMonth{ord: 1}
	withSuite := func(suite uint16, d timeline.Date) *Record {
		r := sampleRecord()
		r.Suite, r.Date = suite, d
		return r
	}
	at := func(bm *builderMonth, suite uint16) int {
		return outcomeSlot(bm, outcomeOf(withSuite(suite, timeline.Date{})))
	}
	var twoOutcomes, twoMonths []*Record
	for s := uint16(1); s != 0 && (twoOutcomes == nil || twoMonths == nil); s++ {
		if twoOutcomes == nil && at(june, s) == at(june, 0) {
			twoOutcomes = []*Record{withSuite(0, timeline.D(2015, time.June, 3)), withSuite(s, timeline.D(2015, time.June, 4))}
		}
		if twoMonths == nil && at(june, s) == at(july, s) {
			twoMonths = []*Record{withSuite(s, timeline.D(2015, time.June, 3)), withSuite(s, timeline.D(2015, time.July, 4))}
		}
	}
	for name, pair := range map[string][]*Record{"two outcomes in one month": twoOutcomes, "one outcome over two months": twoMonths} {
		t.Run(name, func(t *testing.T) {
			if pair == nil {
				t.Fatal("vacuous: no suite collides")
			}
			want, b := classified(), NewShardBuilder(classified)
			for i := 0; i < 300; i++ {
				want.Add(pair[i%2])
				b.Add(pair[i%2])
			}
			if len(b.outcomes) != 300 {
				t.Fatalf("vacuous: %d outcome cells pending for 300 records of two", len(b.outcomes))
			}
			requireSameAggregate(t, name, b.Flush(), want)
		})
	}
}

// dyadicRecords are random records whose position terms add exactly in any
// order: every GREASE-stripped cipher list has 2, 3, 5, 9 or 17 suites, so a
// term is a multiple of 1/16. Every ninth is too long for a table row.
func dyadicRecords(seed int64, n int) []*Record {
	recs := buildBatchRecords(seed, n)
	for i, r := range recs {
		var suites []uint16
		for _, s := range r.Suites() {
			if !registry.IsGREASE(s) {
				suites = append(suites, s)
			}
		}
		for _, keep := range []int{17, 9, 5, 3, 2} {
			if len(suites) >= keep {
				suites = suites[:keep]
				break
			}
		}
		editHello(r, func(h *Hello) { h.Suites = suites })
		if i%9 == 0 {
			oversize(r)
		}
	}
	return recs
}

// One stream flushed every 1, 7 and 4,096 records: each cadence's shards,
// merged, are the shards Add makes at that cadence, merged — and, the terms
// being exact, all three are the one aggregate of the whole stream, content
// and generation. So are the shards of a builder that builds every shard in
// one aggregate, emptied after each merge, as a collector does: what Reset
// keeps never reaches the aggregate merged into.
func TestBuilderFlushCadences(t *testing.T) {
	recs := dyadicRecords(101, 9000)
	stream := encodeBatch(recs)
	whole := classified()
	for _, r := range recs {
		whole.Add(r)
	}
	for _, every := range []int{1, 7, 4096} {
		built, added, recycled := classified(), classified(), classified()
		b, shard := NewShardBuilder(classified), classified()
		reused := classified()
		rb := NewShardBuilder(func() *Aggregate { return reused })
		n := 0
		flush := func() {
			built.Merge(b.Flush())
			added.Merge(shard)
			recycled.Merge(rb.Flush())
			reused.Reset()
		}
		_, _, err := ReadBatches(bytes.NewReader(stream), SinkFunc(func(r *Record) error {
			b.Add(r)
			shard.Add(r)
			rb.Add(r)
			if n++; n%every == 0 {
				flush()
				shard = classified()
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		flush()
		requireSameAggregate(t, fmt.Sprintf("flush every %d: builder shards against Add shards", every), built, added)
		requireSameAggregate(t, fmt.Sprintf("flush every %d: merged shards against the whole stream", every), built, whole)
		requireSameAggregate(t, fmt.Sprintf("flush every %d: shards of one emptied aggregate against the whole stream", every), recycled, whole)
		if len(reused.spare) == 0 {
			t.Errorf("flush every %d: vacuous: the emptied aggregate kept no month", every)
		}
		if built.Generation() != uint64(len(recs)) {
			t.Errorf("flush every %d: generation %d, want %d", every, built.Generation(), len(recs))
		}
	}
}

// A second stream through a warm pool allocates no frame body and no scanner
// window: what it allocates is bounded in bytes, far under either buffer. The
// pin goes through the entry points that take the table, as the allocation
// pins of hello_test.go do.
func TestStreamBuffersAllocBound(t *testing.T) {
	recs := buildBatchRecords(61, 512)
	for name, c := range map[string]struct {
		stream []byte
		read   func(*bytes.Reader, *decodeTables) error
	}{
		"tlsb": {encodeBatch(recs), func(rd *bytes.Reader, tab *decodeTables) error {
			_, _, err := readBatches(rd, nullSink(), tab)
			return err
		}},
		"tsv": {tsvLog(recs), func(rd *bytes.Reader, tab *decodeTables) error {
			_, _, err := readLogTail(rd, 0, nullSink(), tab)
			return err
		}},
	} {
		tab, rd := newDecodeTables(), bytes.NewReader(nil)
		run := func() {
			rd.Reset(c.stream)
			if err := c.read(rd, tab); err != nil {
				t.Fatal(err)
			}
		}
		run()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perStream := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: a %d-byte stream through a warm table allocates %d bytes", name, len(c.stream), perStream)
		if perStream > 8<<10 {
			t.Errorf("%s: a stream through a warm table allocates %d bytes, want at most 8 KiB: a stream buffer is not the table's", name, perStream)
		}
	}
}

// Records on rows of two decoder tables, whose ordinals collide slot for
// slot, with months alternating record by record: a slot keeps naming a cell
// of the other table's row or of the other month, every such lookup misses
// and opens a duplicate cell, and the shard is still Add's, bit for bit. The
// first order needs the builder to check a cell's month, the second its row.
func TestBuilderSlotThrash(t *testing.T) {
	hellos := distinctHellos(300)
	mine, theirs := onRows(t, newDecodeTables(), hellos[:150]), onRows(t, newDecodeTables(), hellos[150:])
	for i := range mine {
		if mine[i].hello.slot() != theirs[i].hello.slot() {
			t.Fatalf("vacuous: rows %d of the two tables have slots %d and %d", i, mine[i].hello.slot(), theirs[i].hello.slot())
		}
	}
	next := func(i int) int { return (i + 1) % len(mine) }
	for name, order := range map[string]func(i int) []*Record{
		"one row over two months": func(i int) []*Record { return []*Record{mine[i], mine[i], theirs[i], theirs[i]} },
		"two rows in one month":   func(i int) []*Record { return []*Record{mine[i], theirs[next(i)], theirs[i], mine[next(i)]} },
	} {
		t.Run(name, func(t *testing.T) {
			var recs []*Record
			for round := 0; round < 3; round++ {
				for i := range mine {
					for _, r := range order(i) {
						on := *r // still on its row
						if len(recs)%2 == 1 {
							on.Date = timeline.D(2015, time.July, 1+i%28)
						}
						recs = append(recs, &on)
					}
				}
			}
			want, b := classified(), NewShardBuilder(classified)
			for _, r := range recs {
				want.Add(r)
				b.Add(r)
			}
			if pairs := 2 * len(hellos); len(b.cells) <= pairs {
				t.Fatalf("vacuous: %d cells pending for %d (month, row) pairs", len(b.cells), pairs)
			}
			requireSameAggregate(t, name, b.Flush(), want)
		})
	}
}

// A warm builder over a shard its owner empties and hands back keeps its
// months, cells and slots from one shard to the next, so once it has built a
// shard of a stream, every Add of the next allocates nothing; only Flush's
// folds may.
func TestShardBuilderAllocsAreSteadyState(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's build allocates on its own")
	}
	recs := benchIngestRecordSet()
	shard := classified()
	b := NewShardBuilder(func() *Aggregate { return shard })
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range recs {
			b.Add(r)
		}
		runtime.ReadMemStats(&after)
		if cells := len(b.cells) + len(b.outcomes); cells == 0 || cells >= maxPendingCells {
			t.Fatalf("vacuous: %d cells pending", cells)
		}
		if n := after.Mallocs - before.Mallocs; round > 0 && n != 0 {
			t.Errorf("round %d: %d records through a warm builder allocate %d times, want 0", round, len(recs), n)
		}
		if b.Flush() != shard {
			t.Fatal("the builder did not build in the recycled shard")
		}
		shard.Reset()
	}
}
