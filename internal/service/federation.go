// Federation wiring: the core half of tiered collection. POST /merge folds
// a delta frame (internal/federation) into the served study through the
// same merge queue local ingestion uses, sequencing deltas per
// source so edge retries never double-count; Router.Union hosts a study
// that is the live union of named children; and every merged shard flows
// through shard observers — the tee that feeds an attached edge Pusher and
// union studies alike.

package service

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"tlsage/internal/federation"
	"tlsage/internal/notary"
)

// WithShardObserver registers fn to run after every shard that merges into
// the served study — record-stream flushes, queued merges and federated
// deltas alike. Observers run on the merging goroutine and receive the
// merged shard read-only; they must not retain or mutate it beyond
// Merge-style copying, because once they have returned the merge loop empties
// a stream's shard and builds another one in it. Like Router.Add, observer
// registration is not safe concurrently with request serving.
func WithShardObserver(fn func(*notary.Aggregate)) Option {
	return func(s *Server) { s.shardObs = append(s.shardObs, fn) }
}

// WithPusher attaches an edge pusher: every shard merged into the study is
// teed into it, /healthz grows the federation edge block, and Close flushes
// and closes it after the ingest paths drain — so the final push covers
// everything the study accepted.
func WithPusher(p *federation.Pusher) Option {
	return func(s *Server) {
		s.pusher = p
		s.shardObs = append(s.shardObs, p.Observe)
	}
}

// addShardObserver appends an observer after construction (Router.Union
// uses it). Same contract as WithShardObserver: assemble before serving.
func (s *Server) addShardObserver(fn func(*notary.Aggregate)) {
	s.shardObs = append(s.shardObs, fn)
}

// afterMerge runs what follows every shard that folded into the study,
// whichever goroutine merged it (the merge loop or a union's absorb): the
// durability checkpoint — the snapshot record-count trigger is re-checked at
// every merge — then the shard observers. The observer list is fixed once
// serving starts, so the iteration is lock-free.
func (s *Server) afterMerge(shard *notary.Aggregate) {
	if s.snaps != nil {
		s.snaps.noteProgress()
	}
	for _, fn := range s.shardObs {
		fn(shard)
	}
}

// fedState tracks the core side of federation on one server: a per-source
// applied-through cursor (the exactly-once dedup for POST /merge) and
// per-child union gauges.
type fedState struct {
	mu       sync.Mutex
	sources  map[string]*fedSource
	children map[string]*fedChild
	deltas   uint64 // deltas applied across all sources
	records  uint64 // records those deltas covered
	gaps     uint64 // deltas whose base jumped past the cursor
	lastGen  uint64 // study generation after the most recent federated merge
}

// fedSource sequences one pushing source. busy rejects a second concurrent
// push from the same source with 429: per-source deltas are ordered by
// base, so applying two at once could interleave cursor updates.
type fedSource struct {
	applied uint64 // generation applied through
	deltas  uint64
	records uint64
	busy    bool
}

// fedChild is one union member's contribution gauges.
type fedChild struct {
	shards  uint64
	records uint64
}

// fedDecision is the outcome of admitting one delta against the source
// cursor.
type fedDecision int

const (
	fedProceed   fedDecision = iota // new records; source marked busy, caller must complete()
	fedDuplicate                    // entirely covered by the cursor — idempotent ack
	fedConflict                     // overlaps the cursor — sender must rebase (409)
	fedBusy                         // a push from this source is already in flight (429)
)

// admit sequences one delta: everything at or below the applied-through
// cursor is a duplicate (an ack the sender lost — ack it again, apply
// nothing), a partial overlap is a conflict the sender must rebase around,
// and a clean continuation (or a gap, counted but accepted) proceeds with
// the source marked busy until complete.
func (f *fedState) admit(src string, base, recs uint64) (fedDecision, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sources == nil {
		f.sources = make(map[string]*fedSource)
	}
	fs := f.sources[src]
	if fs == nil {
		fs = &fedSource{}
		f.sources[src] = fs
	}
	switch {
	case fs.busy:
		return fedBusy, fs.applied
	case base+recs <= fs.applied:
		return fedDuplicate, fs.applied
	case base < fs.applied:
		return fedConflict, fs.applied
	}
	if base > fs.applied {
		f.gaps++
	}
	fs.busy = true
	return fedProceed, fs.applied
}

// complete releases the source after a proceed: on success the cursor
// advances to base+recs and the gauges tick, on failure everything is left
// as admitted so the sender can retry.
func (f *fedState) complete(src string, base, recs, gen uint64, ok bool) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := f.sources[src]
	fs.busy = false
	if !ok {
		return fs.applied
	}
	if through := base + recs; through > fs.applied {
		fs.applied = through
	}
	fs.deltas++
	fs.records += recs
	f.deltas++
	f.records += recs
	f.lastGen = gen
	return fs.applied
}

// registerChild pre-registers a union member so /healthz lists it before
// any traffic arrives, and returns its gauges.
func (f *fedState) registerChild(id string) *fedChild {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.children == nil {
		f.children = make(map[string]*fedChild)
	}
	c := f.children[id]
	if c == nil {
		c = &fedChild{}
		f.children[id] = c
	}
	return c
}

// noteChild ticks one union member's gauges after its shard folded in.
func (f *fedState) noteChild(c *fedChild, recs, gen uint64) {
	f.mu.Lock()
	c.shards++
	c.records += recs
	f.lastGen = gen
	f.mu.Unlock()
}

// health builds the /healthz federation core block, or nil when this server
// has neither federated sources nor union children.
func (f *fedState) health() map[string]any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.sources) == 0 && len(f.children) == 0 {
		return nil
	}
	out := map[string]any{
		"deltas_applied":        f.deltas,
		"records":               f.records,
		"gaps":                  f.gaps,
		"last_merge_generation": f.lastGen,
	}
	if len(f.sources) > 0 {
		srcs := make(map[string]any, len(f.sources))
		for name, fs := range f.sources {
			srcs[name] = map[string]any{
				"deltas":          fs.deltas,
				"records":         fs.records,
				"applied_through": fs.applied,
			}
		}
		out["sources"] = srcs
	}
	if len(f.children) > 0 {
		kids := make(map[string]any, len(f.children))
		for name, c := range f.children {
			kids[name] = map[string]any{"shards": c.shards, "records": c.records}
		}
		out["children"] = kids
	}
	return out
}

// federationEdgeHealth renders the pusher gauges for /healthz.
func federationEdgeHealth(st federation.PusherStats) map[string]any {
	age := -1.0 // nothing shipped yet
	if st.LastPushAge >= 0 {
		age = st.LastPushAge.Seconds()
	}
	return map[string]any{
		"source":                st.Source,
		"upstream":              st.Upstream,
		"deltas_shipped":        st.ShippedDeltas,
		"shipped_through":       st.ShippedThrough,
		"retained_records":      st.RetainedRecords,
		"retained_bytes":        st.RetainedBytes,
		"last_push_age_seconds": age,
		"upstream_errors":       st.UpstreamErrors,
		"state_errors":          st.StateErrors,
		"last_error":            st.LastError,
	}
}

// handleMerge is POST /merge: decode one delta frame, sequence it against
// the source's cursor, and fold it through the merge queue, so federated
// ingest shares local ingestion's backpressure. Generation, frames, the
// query cache and /healthz all see it as ordinary ingest. A study that tees
// its records into a log (WithLogSink) refuses every delta with 403.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if s.logSink != nil {
		// Recovery skips the log lines the snapshot's generation covers, and
		// a delta advances the generation without writing any: the next
		// restart would skip the wrong records. 403 is neither the status a
		// pusher backs off on (429) nor the one it rebases on (409), so a
		// misdirected pusher keeps its delta, as after any failed push, and
		// logs the refusal until it is pointed at a study without -out.
		s.setGeneration(w)
		writeError(w, http.StatusForbidden, errors.New(
			"this study tees its records into a log (serve -out), which a merged delta would misalign on the next recovery; push to a study hosted without -out"))
		return
	}
	if !s.acquireStream() {
		w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfter))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("ingest saturated: %d streams in flight", cap(s.sem)))
		return
	}
	defer s.releaseStream()
	d, err := federation.ReadDelta(s.body(w, r))
	if err != nil {
		s.setGeneration(w)
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decoding delta: %w", err))
		return
	}
	recs := d.Records()
	if recs > math.MaxUint64-d.Base {
		s.setGeneration(w)
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("delta base %d + %d records overflows the generation space", d.Base, recs))
		return
	}
	ackGen := func() uint64 {
		_, _, gen, _ := s.study.Counts()
		return gen
	}
	if recs == 0 {
		// An empty delta is a no-op ping; ack the cursor without merging.
		_, applied := s.fed.admit(d.Source, 0, 0)
		gen := ackGen()
		w.Header().Set("X-Generation", strconv.FormatUint(gen, 10))
		writeJSON(w, http.StatusOK, federation.MergeAck{AppliedThrough: applied, Generation: gen})
		return
	}
	decision, applied := s.fed.admit(d.Source, d.Base, recs)
	switch decision {
	case fedBusy:
		s.setGeneration(w)
		w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfter))
		writeJSON(w, http.StatusTooManyRequests, federation.MergeAck{
			AppliedThrough: applied,
			Error:          fmt.Sprintf("a push from source %q is already in flight", d.Source),
		})
		return
	case fedDuplicate:
		// The whole delta is behind the cursor: an ack the sender lost.
		// Re-acking without applying keeps retries idempotent.
		gen := ackGen()
		w.Header().Set("X-Generation", strconv.FormatUint(gen, 10))
		writeJSON(w, http.StatusOK, federation.MergeAck{
			AppliedThrough: applied, Generation: gen, Duplicate: true,
		})
		return
	case fedConflict:
		// Part of the delta was already applied (a lost ack followed by more
		// accumulation). Applying would double-count the overlap; tell the
		// sender where to rebase from instead.
		s.setGeneration(w)
		writeJSON(w, http.StatusConflict, federation.MergeAck{
			AppliedThrough: applied,
			Error: fmt.Sprintf("delta for source %q starts at generation %d but %d is already applied; rebase past the cursor",
				d.Source, d.Base, applied),
		})
		return
	}
	// Proceed: fold through the same path local shards take.
	qs := &queueStream{}
	mergeErr := s.queue.enqueue(qs, d.Agg, nil)
	if mergeErr == nil {
		mergeErr = qs.wait() // the merge loop runs afterMerge
	}
	if mergeErr != nil {
		s.fed.complete(d.Source, d.Base, recs, 0, false)
		s.setGeneration(w)
		if errors.Is(mergeErr, errIngestBusy) {
			// Shed before anything applied: state unchanged, safe to retry.
			w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfter))
			writeJSON(w, http.StatusTooManyRequests, federation.MergeAck{
				AppliedThrough: applied,
				Error:          mergeErr.Error(),
			})
			return
		}
		writeError(w, http.StatusInternalServerError, mergeErr)
		return
	}
	gen := ackGen()
	applied = s.fed.complete(d.Source, d.Base, recs, gen, true)
	w.Header().Set("X-Generation", strconv.FormatUint(gen, 10))
	writeJSON(w, http.StatusOK, federation.MergeAck{
		Records: recs, AppliedThrough: applied, Generation: gen,
	})
}

// absorb folds one member study's merged shard into this (union) server's
// study and feeds this server's own observers — so a union can itself push
// upstream, making taller tiers compose.
func (s *Server) absorb(child *fedChild, shard *notary.Aggregate) {
	_ = s.study.MergeShard(shard) // err is always nil
	_, _, gen, _ := s.study.Counts()
	s.fed.noteChild(child, shard.Generation(), gen)
	s.afterMerge(shard)
}

// Union mounts srv under id as a federated union study: every shard that
// merges into any member — record streams, queued merges, POST /merge
// deltas — is also folded into srv's study, so the whole query surface
// (/query, figures, fp:/agent: families, watch-ready generations) works
// unchanged over the union of the members. Aggregate.Merge is commutative
// and associative, so the union's content is byte-identical to one study
// ingesting every member's records itself, and its generation is the sum of
// the members'. Like Add, Union must run before serving starts.
func (rt *Router) Union(id string, srv *Server, members ...string) error {
	if len(members) == 0 {
		return fmt.Errorf("service: union study %q needs at least one member", id)
	}
	for _, m := range members {
		if _, ok := rt.servers[m]; !ok {
			return fmt.Errorf("service: union study %q: no member study %q", id, m)
		}
		if m == id {
			return fmt.Errorf("service: union study %q cannot be its own member", id)
		}
	}
	if err := rt.Add(id, srv); err != nil {
		return err
	}
	for _, member := range members {
		child := srv.fed.registerChild(member)
		// Seed with the member's current content — studies recovered from
		// snapshots or pre-loaded before assembly are part of the union from
		// the start; the observer covers everything merged afterwards.
		if agg := rt.servers[member].study.Aggregate(); agg.Generation() > 0 {
			srv.absorb(child, agg)
		}
		rt.servers[member].addShardObserver(func(shard *notary.Aggregate) {
			srv.absorb(child, shard)
		})
	}
	return nil
}
