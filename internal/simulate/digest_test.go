package simulate

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tlsage/internal/fingerprint"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// corpusDigests pins the record stream itself: the sha256 of the TSV lines
// of a 100-connections-a-month run over the whole study window, by seed, and
// of the same records as TLSB frames of 512 records. The figure goldens only
// see aggregates, so a change that moves one record's lists, fingerprint or
// outcome without moving a printed percentage shows here first; the frames
// also see what the lines cannot, such as a hello defined in a frame twice.
// Re-pin only for a change that means to alter the simulated dataset.
var corpusDigests = []corpusPin{
	{1, "2a4204997c8fce2d5e4723fb1ab75e030916a736ba8b4237c68d909774c3ec9e",
		"fb8daf68084617b62bc3b2828a04a00f9685967b2be8607509b7f5fd674244f5"},
	{2, "b534474cc57b82828b6820adda4a6cb549115d9d7ba91f6bf1e4e141505ccc88",
		"9ab12ec02c3ffff58c04ea6547601ba35c6ee12b2860bd67e90d0f2130125000"},
}

type corpusPin struct {
	seed        int64
	tsv, frames string
}

// corpusRun is what corpusDigest saw of one run: both digests, and the runs
// of equal months in arrival order with their record counts.
type corpusRun struct {
	tsv, frames string
	months      []timeline.Month
	counts      []int
}

// corpusDigest runs a simulation through run into both renderings: every
// record as a TSV line, and as a BatchWriter frame of 512 records.
func corpusDigest(t *testing.T, run func(notary.Sink) error) corpusRun {
	t.Helper()
	tsv, frames := sha256.New(), sha256.New()
	bw := notary.NewBatchWriter(frames, 512)
	var line []byte
	var got corpusRun
	n := 0
	lines := notary.SinkFunc(func(r *notary.Record) error {
		line = r.AppendTSV(line[:0])
		tsv.Write(line)
		n++
		if m := timeline.MonthOf(r.Date); len(got.months) == 0 || got.months[len(got.months)-1] != m {
			got.months = append(got.months, m)
			got.counts = append(got.counts, 0)
		}
		got.counts[len(got.counts)-1]++
		return nil
	})
	if err := run(notary.Tee(lines, bw)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 75*100 {
		t.Fatalf("%d records, want %d", n, 75*100)
	}
	got.tsv, got.frames = hex.EncodeToString(tsv.Sum(nil)), hex.EncodeToString(frames.Sum(nil))
	return got
}

// requirePin checks both of r's digests against c.
func (r corpusRun) requirePin(t *testing.T, c corpusPin) {
	t.Helper()
	if r.tsv != c.tsv {
		t.Errorf("sha256 of the TSV stream = %s, want %s", r.tsv, c.tsv)
	}
	if r.frames != c.frames {
		t.Errorf("sha256 of the TLSB frames = %s, want %s", r.frames, c.frames)
	}
}

// TestCorpusDigest simulates each seed's stream at Workers 1 and 4 once, and
// every subtest reads those runs: the pins, and what the stream must hold
// whatever it hashes to.
func TestCorpusDigest(t *testing.T) {
	runs := map[int64]map[int]corpusRun{}
	for _, c := range corpusDigests {
		runs[c.seed] = map[int]corpusRun{}
		for _, workers := range []int{1, 4} {
			opts := DefaultOptions(100)
			opts.Seed = c.seed
			opts.Workers = workers
			runs[c.seed][workers] = corpusDigest(t, New(opts).Run)
		}
	}
	for _, c := range corpusDigests {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d/workers%d", c.seed, workers), func(t *testing.T) {
				runs[c.seed][workers].requirePin(t, c)
			})
		}
	}
	// Equal seeds make equal streams, whatever the width; seeds differ. This
	// holds of any pins, so it survives a re-pin.
	t.Run("deterministic", func(t *testing.T) {
		for seed, byWidth := range runs {
			if a, b := byWidth[1], byWidth[4]; a.tsv == "" || a.tsv != b.tsv || a.frames != b.frames {
				t.Errorf("seed %d: two runs made different streams", seed)
			}
		}
		if runs[1][1].tsv == runs[2][1].tsv {
			t.Error("seeds 1 and 2 made the same stream")
		}
	})
	// Every run covers the study window, Feb 2012 to Apr 2018, 100 records a month.
	t.Run("record-count-and-window", func(t *testing.T) {
		for seed, byWidth := range runs {
			for workers, r := range byWidth {
				if len(r.months) != 75 || r.months[0] != timeline.StudyStart || r.months[74] != timeline.StudyEnd {
					t.Errorf("seed %d, Workers=%d: months %v, want the 75 from %v to %v",
						seed, workers, r.months, timeline.StudyStart, timeline.StudyEnd)
				}
			}
		}
	})
	// Workers > 1 delivers months whole and in chronological order.
	t.Run("parallel-stream-order", func(t *testing.T) {
		for seed, byWidth := range runs {
			r := byWidth[4]
			for i := 1; i < len(r.months); i++ {
				if !r.months[i-1].Before(r.months[i]) {
					t.Fatalf("seed %d, Workers=4: month %v arrived after %v", seed, r.months[i], r.months[i-1])
				}
			}
		}
	})
	// No month's shard is lost or cut when months run concurrently, and a
	// sink error stops the run: the months not yet simulated are skipped, and
	// Run reports the error.
	t.Run("parallel-sink-coverage", func(t *testing.T) {
		for seed, byWidth := range runs {
			for i, n := range byWidth[4].counts {
				if n != 100 {
					t.Errorf("seed %d, Workers=4: %v has %d records, want 100", seed, byWidth[4].months[i], n)
				}
			}
		}
		opts := DefaultOptions(100)
		opts.Workers = 4
		stop := errors.New("sink full")
		if err := New(opts).Run(notary.SinkFunc(func(*notary.Record) error { return stop })); err != stop {
			t.Errorf("Run into a failing sink = %v, want the sink's error", err)
		}
	})
}

// A worker's hello memo empties when it reaches maxMemo entries, and the
// corpus does not move: a sequential run whose memo starts 200 entries short
// of the bound, with keys no connection makes, gives the pinned digests, and
// none of those keys is left.
func TestMemoEmptiesAndKeepsTheDigest(t *testing.T) {
	s := New(DefaultOptions(100))
	sc := scratch{memo: make(map[memoKey]*offer)}
	for v := registry.Version(0); len(sc.memo) < maxMemo-200; v++ {
		sc.memo[memoKey{version: v}] = nil // no release has a nil config
	}
	corpusDigest(t, func(sink notary.Sink) error {
		for _, m := range timeline.MonthsBetween(s.opts.Start, s.opts.End) {
			if err := s.runMonth(m, &sc, sink.Observe); err != nil {
				return err
			}
		}
		return nil
	}).requirePin(t, corpusDigests[0])
	if _, ok := sc.memo[memoKey{}]; ok {
		t.Errorf("the memo never emptied: it holds %d entries", len(sc.memo))
	}
}

// A ShardBuilder folds a simulated stream — every record on a row of its
// worker's HelloTable — to the aggregate per-record Add makes of it, bit for
// bit, as it does a decoded one.
func TestBuilderFoldsASimulatedStreamAsAdd(t *testing.T) {
	db := fingerprint.BuildDefault()
	classified := func() *notary.Aggregate {
		agg := notary.NewAggregate()
		agg.SetClassifier(db)
		return agg
	}
	for _, seed := range []int64{1, 2} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d/workers%d", seed, workers), func(t *testing.T) {
				opts := DefaultOptions(100)
				opts.Seed, opts.Workers = seed, workers
				added, built := classified(), notary.NewShardBuilder(classified)
				if err := New(opts).Run(notary.Tee(added, built)); err != nil {
					t.Fatal(err)
				}
				if got := built.Flush(); !reflect.DeepEqual(got, added) || got.TotalRecords() != 75*100 {
					t.Errorf("the builder's %d records fold unlike Add's %d",
						got.TotalRecords(), added.TotalRecords())
				}
			})
		}
	}
}
