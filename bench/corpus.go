package main

import (
	"bytes"
	"fmt"

	"tlsage/internal/notary"
	"tlsage/internal/simulate"
)

// scale fixes how much data the workloads move. fullScale is what the
// benchmark measures; tests shrink every size so all five workloads run in
// well under a second each.
type scale struct {
	// Conns is the simulator's connections per month; the study window has
	// 75 months, so the corpus holds 75×Conns records.
	Conns int
	// Frame is the records per TLSB frame of the binary rendering.
	Frame int
	// Stream is the records per stream on the collector workloads (one
	// ingest shard at the server's default flush cadence).
	Stream int
	// BulkFrames is the TLSB frames per bulk-replay connection.
	BulkFrames int
	// LiveStream is the records per stream of the dashboard-live feeder.
	LiveStream int
	// EdgeStream is the records per stream of the edge-core feeder.
	EdgeStream int
	// CycleStreams is the fixed work of one durable-collector cycle at the
	// reference window of 20 s; it scales with the measured window.
	CycleStreams int
}

var fullScale = scale{Conns: 2000, Frame: 512, Stream: 4096, BulkFrames: 32, LiveStream: 256, EdgeStream: 1024, CycleStreams: 128}

// corpus is the simulated study rendered once in memory, in month order:
// one TSV line per record, and the same records as TLSB frames of sc.Frame.
// The server only ever receives these bytes; the seed never leaves the
// harness. Records are not kept: whoever needs them decodes a chunk.
type corpus struct {
	sc      scale
	n       int
	tsv     []byte
	tsvEnd  []int // tsvEnd[i] is the offset just past record i's line
	tlsb    []byte
	tlsbEnd []int // tlsbEnd[f] is the offset just past frame f
}

// frameLog is the io.Writer a BatchWriter emits into; it writes one frame
// per call, which is how the frame boundaries are learnt.
type frameLog struct{ c *corpus }

func (f frameLog) Write(p []byte) (int, error) {
	f.c.tlsb = append(f.c.tlsb, p...)
	f.c.tlsbEnd = append(f.c.tlsbEnd, len(f.c.tlsb))
	return len(p), nil
}

func buildCorpus(seed int64, sc scale) (*corpus, error) {
	opts := simulate.DefaultOptions(sc.Conns)
	opts.Seed = seed
	opts.Workers = 1
	expect := studyMonths * sc.Conns // only a capacity hint
	c := &corpus{sc: sc,
		tsv:    make([]byte, 0, 340*expect),
		tsvEnd: make([]int, 0, expect),
		tlsb:   make([]byte, 0, 220*expect),
	}
	frames := notary.NewBatchWriter(frameLog{c}, sc.Frame)
	err := simulate.New(opts).Run(notary.SinkFunc(func(r *notary.Record) error {
		c.tsv = r.AppendTSV(c.tsv)
		c.tsvEnd = append(c.tsvEnd, len(c.tsv))
		return frames.Observe(r)
	}))
	if err == nil {
		err = frames.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("simulating the corpus: %w", err)
	}
	c.n = len(c.tsvEnd)
	return c, nil
}

// records decodes one chunk back into records.
func (c *corpus) records(s chunk) ([]*notary.Record, error) {
	out := make([]*notary.Record, 0, s.len())
	err := notary.ReadLog(bytes.NewReader(c.tsvBody(s)), notary.SinkFunc(func(r *notary.Record) error {
		out = append(out, r.Clone())
		return nil
	}))
	return out, err
}

// chunk is a half-open range of corpus records, the unit a stream carries.
type chunk struct{ lo, hi int }

func (s chunk) len() int { return s.hi - s.lo }

// all is the whole corpus: the preload every workload starts from.
func (c *corpus) all() chunk { return chunk{0, c.n} }

// streams cuts the corpus into consecutive streams of per records; the
// remainder that does not fill a stream is only ever sent by the preload.
func (c *corpus) streams(per int) []chunk {
	var out []chunk
	for lo := 0; lo+per <= c.n; lo += per {
		out = append(out, chunk{lo, lo + per})
	}
	return out
}

func (c *corpus) tsvBody(s chunk) []byte {
	lo := 0
	if s.lo > 0 {
		lo = c.tsvEnd[s.lo-1]
	}
	return c.tsv[lo:c.tsvEnd[s.hi-1]]
}

// tlsbBody returns the frames covering s, which must start on a frame
// boundary and end on one or at the end of the corpus.
func (c *corpus) tlsbBody(s chunk) []byte {
	lo := 0
	if f := s.lo / c.sc.Frame; f > 0 {
		lo = c.tlsbEnd[f-1]
	}
	return c.tlsb[lo:c.tlsbEnd[(s.hi-1)/c.sc.Frame]]
}
