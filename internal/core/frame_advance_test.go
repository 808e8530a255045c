package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/notary"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// requireFreshFrame asserts the frame the study serves answers exactly like
// one built from scratch off its aggregate: every exported column, the
// generation and the fingerprint gauges. It returns the served frame.
func requireFreshFrame(t *testing.T, s *Study) *analysis.Frame {
	t.Helper()
	got, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.NewFrame(s.Aggregate())
	wv, gv := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < wv.NumField(); i++ {
		if field := wv.Type().Field(i); field.IsExported() &&
			!reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Fatalf("served frame differs from NewFrame in column %s", field.Name)
		}
	}
	wd, _, ws := want.FingerprintGauges()
	gd, _, gs := got.FingerprintGauges()
	if want.Generation() != got.Generation() || wd != gd || ws != gs {
		t.Fatalf("served frame: generation %d, %d fingerprints, other %v; want %d, %d, %v",
			got.Generation(), gd, gs, want.Generation(), wd, ws)
	}
	return got
}

// advancedFrom reports whether next was advanced from prev rather than built
// from scratch: only Advance shares the predecessor's month axis.
func advancedFrom(prev, next *analysis.Frame) bool {
	return prev.Len() > 0 && next.Len() > 0 && &prev.Months[0] == &next.Months[0]
}

// simulated returns a simulated record set over the first half of the study
// window plus its TSV log.
func simulated(t *testing.T, seed int64, conns int) ([]*notary.Record, []byte) {
	t.Helper()
	opts := simulate.DefaultOptions(conns)
	opts.Seed = seed
	opts.Start, opts.End = timeline.M(2014, time.February), timeline.M(2015, time.July)
	opts.Workers = 1
	var recs []*notary.Record
	var log bytes.Buffer
	keep := notary.SinkFunc(func(r *notary.Record) error {
		recs = append(recs, r.Clone())
		return nil
	})
	tee := notary.Tee(keep, notary.NewLogWriter(&log))
	if err := simulate.New(opts).Run(tee); err != nil {
		t.Fatal(err)
	}
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	return recs, log.Bytes()
}

// mergeOne writes one record into the live study as a one-record shard: the
// locked write path at its finest grain.
func mergeOne(t *testing.T, s *Study, r *notary.Record) {
	t.Helper()
	shard := s.NewShard()
	shard.Add(r)
	if err := s.MergeShard(shard); err != nil {
		t.Fatal(err)
	}
}

// TestStudyFrameAdvancesAcrossLockedWrites interleaves locked writes of one
// record and of many in random chunks over a shuffled record set; every frame
// served in between must equal NewFrame, and once the months are all open the
// study must be advancing, not rebuilding.
func TestStudyFrameAdvancesAcrossLockedWrites(t *testing.T) {
	recs, _ := simulated(t, 1, 120)
	rnd := rand.New(rand.NewSource(3))
	rnd.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

	s := NewLiveStudy()
	prev := requireFreshFrame(t, s)
	advanced, built := 0, 0
	for len(recs) > 0 {
		n := 1 + rnd.Intn(200)
		if n > len(recs) {
			n = len(recs)
		}
		chunk := recs[:n]
		recs = recs[n:]
		// Sometimes two writes land before anyone asks for a frame.
		for _, part := range [][]*notary.Record{chunk[:n/2], chunk[n/2:]} {
			if rnd.Intn(2) == 0 {
				for _, r := range part {
					mergeOne(t, s, r)
				}
				continue
			}
			shard := s.NewShard()
			for _, r := range part {
				shard.Add(r)
			}
			if err := s.MergeShard(shard); err != nil {
				t.Fatal(err)
			}
		}
		f := requireFreshFrame(t, s)
		if advancedFrom(prev, f) {
			advanced++
		} else {
			built++
		}
		prev = f
	}
	if advanced < 4*built {
		t.Errorf("%d frames advanced, %d built: the locked write paths are not advancing", advanced, built)
	}
}

// TestStudyFrameRebuildsAfterUnseenWrite: a write through Aggregate() tells
// the study nothing about which months moved, so the next frame must be a
// full build — also when locked writes land before or after it.
func TestStudyFrameRebuildsAfterUnseenWrite(t *testing.T) {
	recs, _ := simulated(t, 1, 40)
	s := NewLiveStudy()
	for _, r := range recs[:len(recs)/2] {
		mergeOne(t, s, r)
	}
	half := len(recs) / 2
	rest := recs[half:]
	// The second half opens new months; move it onto the first half's axis:
	// even records (the unseen writes below) into its first month, odd ones
	// (the locked writes) into its last, so advancing over the locked writes'
	// months alone would serve a stale first month.
	for i, r := range rest {
		r.Date = recs[(i%2)*(half-1)].Date
	}
	prev := requireFreshFrame(t, s)

	observe := func(r *notary.Record) { mergeOne(t, s, r) }
	steps := []struct {
		name  string
		write func()
	}{
		{"unseen only", func() { s.Aggregate().Add(rest[0]) }},
		{"unseen then locked", func() { s.Aggregate().Add(rest[2]); observe(rest[1]) }},
		{"locked then unseen", func() { observe(rest[3]); s.Aggregate().Add(rest[4]) }},
		{"locked, unseen, locked", func() { observe(rest[5]); s.Aggregate().Add(rest[6]); observe(rest[7]) }},
	}
	for _, step := range steps {
		step.write()
		f := requireFreshFrame(t, s)
		if advancedFrom(prev, f) {
			t.Errorf("%s: frame advanced past a write the study did not see", step.name)
		}
		prev = f
	}
	observe(rest[9])
	if f := requireFreshFrame(t, s); !advancedFrom(prev, f) {
		t.Error("locked write after a rebuild did not advance")
	}
}

// TestStudyFrameAfterSwapOnEqualGeneration: LoadLog and RunSinks replace the
// aggregate, and the replacement can stand at exactly the generation the
// study's own writes had reached. The cached frame belongs to the old
// aggregate and must not be advanced (nothing was touched, so it would be
// served unchanged).
func TestStudyFrameAfterSwapOnEqualGeneration(t *testing.T) {
	recsA, _ := simulated(t, 1, 40)
	_, logB := simulated(t, 2, 40)

	s := NewLiveStudy()
	for i, r := range recsA {
		if i == len(recsA)/2 {
			requireFreshFrame(t, s) // a cached frame with writes accounted after it
		}
		mergeOne(t, s, r)
	}
	old, _, before, _ := s.Counts()
	if err := s.LoadLog(bytes.NewReader(logB)); err != nil {
		t.Fatal(err)
	}
	if _, _, after, _ := s.Counts(); after != before || old != len(recsA) {
		t.Fatalf("swap moved the generation %d → %d; the test needs them equal", before, after)
	}
	prev := requireFreshFrame(t, s)

	// RunSinks: same sample size, other seed — equal generation again.
	s.Options = simulate.DefaultOptions(40)
	s.Options.Seed = 3
	s.Options.Start, s.Options.End = timeline.M(2014, time.February), timeline.M(2015, time.July)
	if err := s.RunSinks(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, after, _ := s.Counts(); after != before {
		t.Fatalf("RunSinks landed on generation %d, want %d", after, before)
	}
	if f := requireFreshFrame(t, s); f == prev {
		t.Error("frame of the replaced aggregate served after RunSinks")
	}

	// The replacement keeps ingesting, and from here frames advance.
	prev = requireFreshFrame(t, s)
	mergeOne(t, s, recsA[0])
	if f := requireFreshFrame(t, s); !advancedFrom(prev, f) {
		t.Error("locked write after a swap did not advance")
	}
}
