package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tlsage/internal/notary"
)

// traceSpan is one timed interval. Times are nanoseconds since the trace
// began. The span of a client operation has ID == Op; every other span gets
// an ID above spanIDBase, so a server-side span can name its parent from the
// X-Bench-Op header alone.
type traceSpan struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Op       uint64 `json:"op"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"` // timed afterwards on the shadow study, not in the server
	Clamped  bool   `json:"clamped,omitempty"`  // cut short so it stays inside its parent
}

func (s traceSpan) dur() int64 { return s.End - s.Start }

const spanIDBase = 1 << 40

// sampleEvery is the share of operations a traced run records and replays:
// one in sixteen keeps the span file small and the overhead low.
const sampleEvery = 16

type opKind int

const (
	opIngestTSV opKind = iota
	opIngestTLSB
	opQuery
	opRestart
)

// opRecord is what the replay needs to know about one sampled operation.
type opRecord struct {
	id     uint64
	kind   opKind
	part   chunk  // ingest: the stream
	tee    bool   // ingest: the server tees into a TSV log
	text   string // query
	hit    bool   // query: answered from the cache
	bumped bool   // query: the generation moved since this client's last answer
}

// tracer collects spans in memory; the file is written when the run ends. A
// nil tracer records nothing, which is how untraced runs share the code.
type tracer struct {
	epoch time.Time
	// enabled gates every hook: the traced run's first half-window leaves it
	// off, so the server is hosted the same way but nothing is recorded.
	enabled atomic.Bool
	seq     atomic.Uint64
	next    atomic.Uint64 // span ids above spanIDBase

	mu    sync.Mutex
	spans []traceSpan
	ops   []opRecord

	// Counts taken at the same boundaries as the spans.
	shards     atomic.Uint64 // shards merged (WithShardObserver)
	teeNS      atomic.Int64  // time inside the -out log sink
	teeRecords atomic.Uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin numbers the next operation and reports its id when it is sampled, 0
// otherwise. The first operation is sampled, so even a short window leaves
// something to replay.
func (t *tracer) begin() uint64 {
	if t == nil || !t.enabled.Load() {
		return 0
	}
	if n := t.seq.Add(1); n%sampleEvery == 1 {
		return n
	}
	return 0
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s traceSpan) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// finish records the client-side span of a sampled operation.
func (t *tracer) finish(name string, start, end time.Time, rec opRecord) {
	if t == nil || rec.id == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, traceSpan{ID: rec.id, Op: rec.id, Name: name, Start: t.since(start), End: t.since(end)})
	t.ops = append(t.ops, rec)
	t.mu.Unlock()
}

func (t *tracer) hooks() hooks {
	return hooks{
		handler: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
				if op == 0 {
					next.ServeHTTP(w, r)
					return
				}
				start := time.Now()
				next.ServeHTTP(w, r)
				t.add(traceSpan{ID: spanIDBase + t.next.Add(1), Parent: op, Op: op, Name: "service.http",
					Start: t.since(start), End: t.since(time.Now())})
			})
		},
		sink: func(inner notary.Sink) notary.Sink { return &timedSink{inner: inner, t: t} },
		shard: func(*notary.Aggregate) {
			if t.enabled.Load() {
				t.shards.Add(1)
			}
		},
	}
}

// timedSink measures the time the server spends in its -out tee.
type timedSink struct {
	inner notary.Sink
	t     *tracer
}

func (s *timedSink) Observe(r *notary.Record) error {
	if !s.t.enabled.Load() {
		return s.inner.Observe(r)
	}
	t0 := time.Now()
	err := s.inner.Observe(r)
	s.t.teeNS.Add(int64(time.Since(t0)))
	s.t.teeRecords.Add(1)
	return err
}

func (s *timedSink) Close() error { return s.inner.Close() }

// --- self time ---

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once, and a child is only counted where it lies inside its parent.
func selfTimes(spans []traceSpan) map[uint64]int64 {
	kids := map[uint64][]traceSpan{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// --- replay ---

// replay re-runs each sampled operation's stages on the shadow study and
// records them as child spans of the operation's server-side span (or of the
// client span when the operation did not travel over HTTP). The children are
// laid end to end from the parent's start and carry the per-layer metric's
// name; one that would run past its parent's end is cut there and flagged,
// so children never sum to more than their parent.
func (t *tracer) replay(s *stages) error {
	t.mu.Lock()
	ops := append([]opRecord(nil), t.ops...)
	parent := map[uint64]traceSpan{}
	for _, sp := range t.spans {
		if p, ok := parent[sp.Op]; !ok || sp.Name == "service.http" && p.Name != "service.http" {
			parent[sp.Op] = sp
		}
	}
	t.mu.Unlock()
	for _, op := range ops {
		p := parent[op.id]
		at := p.Start
		child := func(name string, d time.Duration) {
			sp := traceSpan{ID: spanIDBase + t.next.Add(1), Parent: p.ID, Op: op.id, Name: name,
				Start: at, End: at + int64(d), Replayed: true}
			if sp.End > p.End {
				sp.End, sp.Clamped = p.End, true
			}
			at = sp.End
			t.add(sp)
		}
		switch op.kind {
		case opIngestTSV, opIngestTLSB:
			var d time.Duration
			var err error
			if op.kind == opIngestTSV {
				d, err = s.tsvDecode(s.c.tsvBody(op.part))
				child("notary.tsv_decode_ns_per_record", d)
			} else {
				d, err = s.tlsbDecode(s.c.tlsbBody(op.part))
				child("notary.tlsb_decode_ns_per_record", d)
			}
			if err != nil {
				return err
			}
			if op.tee {
				if d, err = s.tee(op.part); err != nil {
					return err
				}
				child("notary.tsv_encode_ns_per_record", d)
			}
			// The server cuts a stream into shards of the flush cadence and
			// merges each.
			for lo := op.part.lo; lo < op.part.hi; lo += s.c.sc.Stream {
				shardPart := chunk{lo, min(lo+s.c.sc.Stream, op.part.hi)}
				d, sh, err := s.add(shardPart)
				if err != nil {
					return err
				}
				child("notary.add_ns_per_record", d)
				if d, err = s.merge(sh); err != nil {
					return err
				}
				child(mergeMetric(shardPart.len(), s.c.sc), d)
			}
		case opQuery:
			if op.bumped && !op.hit {
				sh, err := s.smallShard()
				if err != nil {
					return err
				}
				if _, err := s.merge(sh); err != nil {
					return err
				}
				d, _, err := s.frameRebuild()
				if err != nil {
					return err
				}
				child("core.frame_rebuild_us", d)
			}
			f, err := s.study.Frame()
			if err != nil {
				return err
			}
			q, err := s.query(op.text, f)
			if err != nil {
				return err
			}
			child("analysis.parse_us", q.parse)
			if op.hit {
				child("analysis.cache_get_ns", q.cacheGet)
				break
			}
			child("analysis.compile_us", q.compile)
			child("analysis.eval_us", q.eval)
			child("analysis.marshal_us", q.marshal)
			child("analysis.cache_put_ns", q.cachePut)
		}
	}
	return nil
}

// mergeMetric names the merge metric a shard of n records belongs to.
func mergeMetric(n int, sc scale) string {
	if n <= sc.LiveStream {
		return "core.merge_shard_us.256"
	}
	return "core.merge_shard_us.4096"
}

// smallShard is a live-feeder-sized shard, merged to move the generation.
func (s *stages) smallShard() (*notary.Aggregate, error) {
	var err error
	if s.small == nil {
		_, small := s.sample()
		_, s.small, err = s.add(small)
	}
	return s.small, err
}

// medianSelf is the median self time, in µs, of the spans called name.
func medianSelf(spans []traceSpan, self map[uint64]int64, name string) (float64, int) {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(self[s.ID])/1e3)
		}
	}
	return median(xs), len(xs)
}
