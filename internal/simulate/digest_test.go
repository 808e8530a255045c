package simulate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"tlsage/internal/fingerprint"
	"tlsage/internal/notary"
)

// corpusDigests pins the record stream itself: the sha256 of the TSV lines
// of a 100-connections-a-month run over the whole study window, by seed. The
// figure goldens only see aggregates, so a change that moves one record's
// lists, fingerprint or outcome without moving a printed percentage shows
// here first. Re-pin only for a change that means to alter the simulated
// dataset.
var corpusDigests = []struct {
	seed   int64
	sha256 string
}{
	{1, "2a4204997c8fce2d5e4723fb1ab75e030916a736ba8b4237c68d909774c3ec9e"},
	{2, "b534474cc57b82828b6820adda4a6cb549115d9d7ba91f6bf1e4e141505ccc88"},
}

func TestCorpusDigest(t *testing.T) {
	for _, c := range corpusDigests {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d/workers%d", c.seed, workers), func(t *testing.T) {
				opts := DefaultOptions(100)
				opts.Seed = c.seed
				opts.Workers = workers
				h := sha256.New()
				var line []byte
				n := 0
				runEach(t, opts, func(r *notary.Record) {
					line = r.AppendTSV(line[:0])
					h.Write(line)
					n++
				})
				if n != 75*100 {
					t.Fatalf("%d records, want %d", n, 75*100)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
					t.Errorf("sha256 of the TSV stream = %s, want %s", got, c.sha256)
				}
			})
		}
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
