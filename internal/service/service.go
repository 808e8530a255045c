// Package service runs the live Notary collector: the long-runtime mode the
// paper's vantage point implies. A Server keeps one core.Study hot — the
// same aggregate that answers batch queries — and ingests record logs over
// HTTP POST or raw TCP while serving JSON query endpoints off
// generation-checked analysis.Frame snapshots, so queries never observe a
// half-applied record and ingestion never waits on a slow reader.
//
// Endpoints:
//
//	POST /ingest          a record log (notary.ReadLog): TSV lines in
//	                      LogWriter's format, header and comment lines
//	                      skipped, and TLSB batch frames, in any mix — a
//	                      feeder's batches and a collector's -out log are
//	                      posted as they are; the Content-Type is not read
//	GET  /figures         every catalog figure, evaluated on a frame snapshot
//	GET  /figure/{name}   one figure by catalog name ("versions") or number ("1")
//	GET  /scalars         the paper-vs-measured scalar report
//	GET  /metrics         the declarative figure catalog (incl. each series'
//	                      query expression)
//	POST /query           evaluate an ad-hoc metric expression, the JSON body
//	                      {"query": "pct(version:tls12 / established)"} in
//	                      analysis.ParseQuery's grammar, the only shape taken
//	GET  /healthz         liveness: record count, generation, month count
//
// Every JSON response carries an X-Generation header with the served
// aggregate generation, so pollers can detect staleness without
// re-downloading bodies, and a Content-Length, so none is sent chunked. Multiple named studies are hosted by a Router
// (router.go), which nests a whole Server under /studies/{id}/. A whole
// `tlstrend serve` process — recovered study, compaction snapshot, edge
// pusher, record log, router, union — is one Node, assembled from the flag
// set by Open (open.go) in a fixed order that tests run as-is.
//
// Ingestion is sharded: each stream folds its records into a pooled
// notary.ShardBuilder (no lock contention on the parse), which hands over a
// private shard every DefaultFlushEvery records and at stream end. Shards
// travel a bounded queue (queue.go) to the single merge loop that owns the
// study's write path and folds each into the live study with
// core.Study.MergeShard; a stream that finds the queue full is shed (429 /
// "busy") instead of buffering without bound. The merged content is
// identical to serial ingestion for every flush cadence, so a served study's
// figures and scalars match the offline loadlog path exactly. The merge loop
// also writes each shard to the record log, if any, before merging it, and
// hands each merged shard back to the pool emptied (Aggregate.Reset) once the
// shard observers — the edge pusher, union studies — have returned.
//
// Every ingest stream, a POST body or a raw TCP connection, is read by
// notary.ReadLog alone: at each entry boundary the next four bytes say
// whether a frame or a line follows, so no header and no peek at a
// connection's first bytes picks a reader, and TSV, the debug path one can
// drive with netcat, shares the TCP port with the batch framing.
package service

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/notary"
	"tlsage/internal/retry"
)

// DefaultFlushEvery is the per-stream shard size: small enough that
// /healthz and queries see fresh data while a long stream is still
// arriving, large enough to amortize the merge lock.
const DefaultFlushEvery = 4096

// DefaultMaxInFlight is how many ingest streams a server takes at once
// unless WithMaxInFlight says otherwise; more are shed with 429/busy.
const DefaultMaxInFlight = 64

// shutdownGrace is how long a closing server lets in-flight streams keep
// reading: HTTP requests in Node.Serve's Shutdown, raw-TCP connections in
// Server.Close.
const shutdownGrace = 5 * time.Second

// DefaultRetryAfter is the Retry-After hint (seconds) sent with a 429 when
// the in-flight stream limit or the merge queue sheds an ingest.
const DefaultRetryAfter = 1

// Content types feeders label POST /ingest bodies with. They are labels
// only: the server reads every body as a record log, whatever it is labelled
// (or not), so a mislabelled body ingests by its content.
const (
	// ContentTypeTSV is the textual connection-log stream (LogWriter format).
	ContentTypeTSV = "text/tab-separated-values"
	// ContentTypeBatch is the length-prefixed binary batch framing
	// (notary.BatchWriter).
	ContentTypeBatch = "application/x-tlsage-batch"
)

// Server is the live-ingest front end over one study.
type Server struct {
	study      *core.Study
	flushEvery int
	// logSink, when set, is the record log (a BatchWriter on the -out log),
	// written by the merge loop alone: each shard's frame before the shard
	// merges, as whole frames and no records when it has WriteFrames. stages
	// pools the per-stream encoders that pack those frames.
	logSink notary.Sink
	stages  sync.Pool
	// builders pools the streams' ShardBuilders, and shards the aggregates
	// they build shards in (New is the study's NewShard): the merge loop
	// empties each shard it merged and puts it back.
	builders, shards sync.Pool
	mux              *http.ServeMux

	// Backpressure: sem bounds concurrently ingesting streams (nil =
	// unbounded); saturated arrivals are shed with 429/Retry-After (HTTP)
	// or a "busy" status line (TCP) instead of buffering without bound.
	sem      chan struct{}
	inFlight atomic.Int64
	shed     atomic.Uint64
	// maxBody caps POST /ingest request bodies (0 = unlimited); overruns
	// answer 413 so one oversized stream cannot exhaust the collector.
	maxBody int64
	// idleTimeout bounds how long a raw-TCP ingest connection may sit
	// without delivering bytes; a stalled client errors out and gives back
	// its in-flight slot (0 = no deadline).
	idleTimeout time.Duration

	// queue decouples stream readers from the study write path: parsed
	// shards travel this bounded channel (WithQueueBound sizes it) to a
	// single merge loop, and a full queue sheds the stream instead of
	// buffering it. queueGate is the test hook newMergeQueue threads to the
	// loop.
	queue      *mergeQueue
	queueBound int
	queueGate  chan struct{}

	// snaps, when durability is configured, snapshots the study at ingest
	// flush boundaries / on a timer / at Close.
	snaps   *snapshotManager
	durOpts *DurabilityOptions

	// queryCache, when configured, fronts POST /query with the study's
	// generation-keyed result cache (usually one cache shared across every
	// study a Router hosts). Held here only for the /healthz gauges — the
	// lookup itself lives in core.Study.
	queryCache *analysis.QueryCache

	// Federation: shardObs are run after every shard that merges into the
	// study (the tee feeding an attached edge pusher and union studies), fed
	// tracks the core-side POST /merge cursors and union gauges, and pusher
	// (when WithPusher is configured) is flushed and closed with the server.
	shardObs []func(*notary.Aggregate)
	fed      fedState
	pusher   *federation.Pusher

	// tcpMu guards tcpLns, the raw-TCP listeners Close shuts down, and
	// tcpConns, the connections being ingested; connWG tracks their handlers
	// so Close can drain them before it drains the merge queue. drainBy is
	// the read deadline Close gives those connections (nil while serving).
	tcpMu    sync.Mutex
	tcpLns   []net.Listener
	tcpConns map[net.Conn]struct{}
	drainBy  atomic.Pointer[time.Time]
	connWG   sync.WaitGroup
}

// Option configures a Server.
type Option func(*Server)

// WithLogSink makes sink (typically a notary.BatchWriter over a file) the
// study's record log. The merge loop writes every shard to it before the shard
// merges — a sink with WriteFrames([]byte) error gets whole TLSB frames in one
// call each and no records; any other gets records and then Close, which must
// flush — and a shard whose write fails does not merge, nor does any after it.
func WithLogSink(sink notary.Sink) Option {
	return func(s *Server) { s.logSink = sink }
}

// WithMaxInFlight bounds how many ingest streams (HTTP + TCP combined) may
// be in flight at once. Saturated HTTP ingests answer 429 with a
// Retry-After header; saturated TCP connections get a "busy" status line.
// Without it the bound is DefaultMaxInFlight; n <= 0 leaves ingestion
// unbounded.
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		s.sem = nil
		if n > 0 {
			s.sem = make(chan struct{}, n)
		}
	}
}

// WithMaxBodyBytes caps POST /ingest request bodies at n bytes; an
// oversized stream is cut off with 413, keeping the whole lines and frames
// before the cap and nothing of the entry it cuts. n <= 0 leaves bodies
// unlimited.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithIdleTimeout sets the idle read deadline on raw-TCP ingest
// connections: each successful read rearms it, and a connection that
// delivers nothing for d errors out, so a stalled client gives back its
// in-flight slot. d <= 0 disables the deadline; Server.Close bounds the drain
// either way.
func WithIdleTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.idleTimeout = d
		}
	}
}

// WithQueueBound sizes the bounded queue of parsed shards that the single
// merge loop drains. Stream readers never block on the study's write lock:
// a reader whose shard finds the queue full is shed with 429/Retry-After
// (HTTP) or a "busy" status line (TCP) rather than stacking up behind a
// slow merge. n <= 0 means DefaultQueueBound.
func WithQueueBound(n int) Option {
	return func(s *Server) { s.queueBound = n }
}

// WithQueryCache attaches a query result cache to the served study, with id
// namespacing its entries (the Router passes the study id, so one cache
// serves every hosted study without key collisions). POST /query responses
// then carry X-Cache: hit when the body came out of the cache and miss when
// this request compiled and evaluated it, and /healthz reports the cache
// gauges. A nil cache disables caching.
func WithQueryCache(c *analysis.QueryCache, id string) Option {
	return func(s *Server) {
		s.queryCache = c
		s.study.SetQueryCache(c, id)
	}
}

// WithDurability attaches a snapshot manager: the study is snapshotted into
// opts.Dir at ingest flush boundaries (opts.EveryRecords), on a timer
// (opts.Interval) and at Close, keeping the last DefaultSnapshotKeep. Pair
// it with RecoverStudy at startup for crash recovery. An empty Dir is a
// no-op.
func WithDurability(opts DurabilityOptions) Option {
	return func(s *Server) {
		if opts.Dir != "" {
			s.durOpts = &opts
		}
	}
}

// NewServer builds a server over study — usually core.NewLiveStudy(), but
// any already-run study works too (serving a batch result while ingesting
// more records on top).
func NewServer(study *core.Study, opts ...Option) *Server {
	s := &Server{study: study, flushEvery: DefaultFlushEvery, sem: make(chan struct{}, DefaultMaxInFlight),
		tcpConns: map[net.Conn]struct{}{}}
	for _, o := range opts {
		o(s)
	}
	if s.durOpts != nil {
		s.snaps = newSnapshotManager(study, *s.durOpts)
	}
	if s.logSink != nil {
		every := s.flushEvery
		s.stages.New = func() any { return newStage(every) }
	}
	s.shards.New = func() any { return study.NewShard() }
	s.builders.New = func() any { return notary.NewShardBuilder(s.newShard) }
	// afterMerge is bound as a method value: observers appended later
	// (Router.Union, under the assemble-before-serving contract) are still
	// seen by the merge loop.
	s.queue = newMergeQueue(study, s.queueBound, s.afterMerge, s.logSink, s.queueGate)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /merge", s.handleMerge)
	mux.HandleFunc("GET /figures", s.handleFigures)
	mux.HandleFunc("GET /figure/{name}", s.handleFigure)
	mux.HandleFunc("GET /scalars", s.handleScalars)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// newShard draws an empty shard of the study's from the pool the merge loop
// hands merged shards back to.
func (s *Server) newShard() *notary.Aggregate { return s.shards.Get().(*notary.Aggregate) }

// Study exposes the served study (e.g. for parity checks).
func (s *Server) Study() *core.Study { return s.study }

// Handler returns the HTTP handler (ingest + query endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// Close releases the server's durable resources: raw-TCP listeners stop
// accepting, in-flight TCP ingest streams are drained, and queued shards are
// written to the log and merge. With durability configured a final snapshot
// of the drained state is written last (the SIGTERM path). The drain is
// bounded: each in-flight connection may read for shutdownGrace more, then
// its read deadline expires and its handler exits, so a stalled client cannot
// wedge Close.
func (s *Server) Close() error {
	s.tcpMu.Lock()
	lns := s.tcpLns
	s.tcpLns = nil
	s.tcpMu.Unlock()
	var first error
	for _, ln := range lns {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	drainBy := time.Now().Add(shutdownGrace)
	s.tcpMu.Lock()
	s.drainBy.Store(&drainBy)
	// An idle deadline shorter than the grace already ends a stalled read
	// sooner, and setting drainBy would postpone it.
	if s.idleTimeout <= 0 || s.idleTimeout >= shutdownGrace {
		for conn := range s.tcpConns {
			_ = conn.SetReadDeadline(drainBy)
		}
	}
	s.tcpMu.Unlock()
	s.connWG.Wait()
	// Drain queued shards into the log and the study before the final
	// snapshot is cut, so durable state matches what merged.
	s.queue.close()
	if s.pusher != nil {
		// After the ingest paths drained: the final push covers every shard
		// the study accepted.
		if err := s.pusher.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.snaps != nil {
		s.snaps.close()
	}
	return first
}

// acquireStream claims an in-flight ingest slot, reporting false (and
// counting the shed) when the limit is saturated.
func (s *Server) acquireStream() bool {
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Add(1)
			return false
		}
	}
	s.inFlight.Add(1)
	return true
}

// releaseStream returns an ingest slot.
func (s *Server) releaseStream() {
	s.inFlight.Add(-1)
	if s.sem != nil {
		<-s.sem
	}
}

// ingestStats summarizes one ingested stream.
type ingestStats struct {
	Records    int    `json:"records"`
	Generation uint64 `json:"generation"`
}

// ingest drains one record log (notary.ReadLog: lines, frames or both) into
// the live study, returning how many records were applied. On a malformed
// line or frame, or a read error, the error is returned and everything
// already flushed stays applied — a live collector keeps what it has seen. A
// merge-queue shed surfaces as errIngestBusy with Records reporting only what
// actually reached the study, so feeders can tell a cleanly shed stream (0
// applied, safe to retry) from a part-applied one.
func (s *Server) ingest(r io.Reader) (ingestStats, error) {
	ing := &shardIngester{shard: s.builders.Get().(*notary.ShardBuilder), every: s.flushEvery,
		queue: s.queue, qs: &queueStream{shards: &s.shards}}
	if s.logSink != nil {
		ing.stage = s.stages.Get().(*stage)
	}
	readErr := notary.ReadLog(r, ing)
	flushErr := ing.Close() // leaves the builder empty
	s.builders.Put(ing.shard)
	if ing.stage != nil {
		s.stages.Put(ing.stage)
	}
	// Wait for every shard this stream enqueued to be logged and fold in, so
	// the reply's record count and generation describe applied state.
	mergeErr := ing.qs.wait()
	_, _, gen, _ := s.study.Counts() // err is always nil
	// The first failure is the stream's: reading, then flushing, then merging.
	return ingestStats{Records: ing.total, Generation: gen}, cmp.Or(readErr, flushErr, mergeErr)
}

// shardIngester accumulates a stream into private shards of the study's, one
// pooled builder for all of them, and hands a shard to the merge queue every
// flushEvery records — the sharded ingest path.
type shardIngester struct {
	shard *notary.ShardBuilder
	stage *stage // packs the shard's frame; nil without a log
	every int
	since int
	total int // records applied (or accepted into the queue)
	// queue is the server's bounded merge queue; qs tracks the shards this
	// stream enqueued on it.
	queue *mergeQueue
	qs    *queueStream
}

// Observe implements notary.Sink: records land in the private shard and, with
// a log, in the shard's frame, which the merge loop writes before the shard
// merges — so the log is in merge order and holds no shard that did not merge.
func (si *shardIngester) Observe(r *notary.Record) error {
	if si.stage != nil {
		if err := si.stage.bw.Observe(r); err != nil {
			return si.send(err)
		}
	}
	si.shard.Add(r)
	si.total++
	si.since++
	if si.since >= si.every {
		return si.send(nil)
	}
	return nil
}

// Close enqueues the remaining shard.
func (si *shardIngester) Close() error { return si.send(nil) }

// send hands the shard and its frame to the merge queue. When failed says the
// frame lost records, or the queue sheds them, neither goes anywhere and the
// stream reports only applied records, so the feeder can tell whether a retry
// would duplicate.
func (si *shardIngester) send(failed error) error {
	if si.since == 0 {
		return failed
	}
	shard, err := si.shard.Flush(), failed
	var frame *[]byte
	if si.stage != nil {
		var ferr error
		if frame, ferr = si.stage.frame(); err == nil {
			err = ferr
		}
	}
	if err == nil {
		err = si.queue.enqueue(si.qs, shard, frame)
	}
	if err != nil {
		releaseFrame(frame)
		si.total -= si.since
	}
	si.since = 0
	return err
}

// stage packs the records a stream adds to its shard into the TLSB frame the
// shard carries: a BatchWriter of the stream's own, flushing at the shard
// cadence, over a buffer from frameBufs, so it takes no lock. A server pools
// its stages; a warm one allocates nothing per record.
type stage struct {
	bw  *notary.BatchWriter
	buf *[]byte // the frames being packed
}

func newStage(every int) *stage {
	st := &stage{buf: frameBufs.Get().(*[]byte)}
	st.bw = notary.NewBatchWriter(st, every)
	return st
}

// Write takes the stage's BatchWriter's frames.
func (st *stage) Write(p []byte) (int, error) {
	*st.buf = append(*st.buf, p...)
	return len(p), nil
}

// frame closes the partial frame and hands over the buffer holding the
// shard's frames; the next shard's go into another.
func (st *stage) frame() (*[]byte, error) {
	err := st.bw.Close()
	b := st.buf
	st.buf = frameBufs.Get().(*[]byte)
	return b, err
}

// --- HTTP handlers ---

// writeJSON marshals before it writes the status line, so a value that
// cannot be encoded (a NaN in a figure, say) is answered 500 with the reason
// and never as the chosen status over an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// writeError's map of strings always marshals, so this ends here.
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// Header values every reply shares: net/http only reads them.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"hit"}
	cacheMiss       = []string{"miss"}
)

// writeBody sends a whole JSON reply: the status line, Content-Type and a
// Content-Length, so net/http never chunks it, then body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	_, _ = w.Write(body) // nothing useful to do about a broken client connection
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// setGeneration stamps the X-Generation staleness header: the aggregate
// generation the response was computed against. Pollers compare headers
// instead of re-downloading bodies.
func (s *Server) setGeneration(w http.ResponseWriter) {
	_, _, gen, _ := s.study.Counts() // err is always nil
	w.Header().Set("X-Generation", strconv.FormatUint(gen, 10))
}

// ingestErrorStatus separates the error classes of a failed ingest so
// clients know whether to fix the payload or retry: an oversized body is
// 413, a malformed line or batch frame (or a line beyond the log reader's
// length ceiling) is 400, a merge-queue shed is 429, and anything else —
// merge or record-log write failures inside the collector — is 500.
func ingestErrorStatus(err error) int {
	var le *notary.LineError
	var be *notary.BatchError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errIngestBusy):
		return http.StatusTooManyRequests
	case errors.As(err, &le), errors.As(err, &be), errors.Is(err, bufio.ErrTooLong):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// body is the body of an ingest or merge request, capped at the
// WithMaxBodyBytes limit when there is one: reading past it fails with an
// *http.MaxBytesError, which both handlers answer with 413.
func (s *Server) body(w http.ResponseWriter, r *http.Request) io.Reader {
	if s.maxBody > 0 {
		return http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	return r.Body
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.acquireStream() {
		w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfter))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("ingest saturated: %d streams in flight", cap(s.sem)))
		return
	}
	defer s.releaseStream()
	st, err := s.ingest(s.body(w, r))
	s.setGeneration(w)
	if err != nil {
		status := ingestErrorStatus(err)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			err = fmt.Errorf("request body exceeds the %d-byte ingest cap: %w", mbe.Limit, err)
		}
		if status == http.StatusTooManyRequests {
			// A shed stream is retryable only when nothing was applied; the
			// records count in the body lets the feeder decide (FeedHTTP
			// refuses to blind-retry a part-applied stream).
			w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfter))
		}
		writeJSON(w, status, map[string]any{
			"error":      err.Error(),
			"records":    st.Records,
			"generation": st.Generation,
		})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	f, _ := s.study.Frame() // err is always nil
	w.Header().Set("X-Generation", strconv.FormatUint(f.Generation(), 10))
	writeJSON(w, http.StatusOK, f.Figures())
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f, _ := s.study.Frame() // err is always nil
	w.Header().Set("X-Generation", strconv.FormatUint(f.Generation(), 10))
	var (
		fig analysis.Figure
		ok  bool
	)
	if n, convErr := strconv.Atoi(name); convErr == nil {
		fig, ok = f.FigureByNum(n)
	} else {
		fig, ok = f.FigureByName(name) // case-insensitive catalog lookup
	}
	if !ok {
		// The miss body lists the valid catalog names so clients can
		// self-correct without a second /metrics round trip.
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": fmt.Sprintf("no figure %q", name),
			"valid": analysis.CatalogNames(),
		})
		return
	}
	writeJSON(w, http.StatusOK, fig)
}

func (s *Server) handleScalars(w http.ResponseWriter, r *http.Request) {
	scalars, gen := s.study.ScalarsWithGeneration()
	w.Header().Set("X-Generation", strconv.FormatUint(gen, 10))
	writeJSON(w, http.StatusOK, scalars)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.setGeneration(w)
	writeJSON(w, http.StatusOK, analysis.Catalog())
}

// queryRequest is the POST /query body: a query in the text grammar.
type queryRequest struct {
	Query string `json:"query"`
}

// maxQueryBody caps what is read of a POST /query body.
const maxQueryBody = 1 << 20

// queryBodies pools the buffers POST /query bodies are read into.
var queryBodies = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// readQuery reads a POST /query body, up to maxQueryBody bytes, and answers
// it as json.NewDecoder(io.LimitReader(body, maxQueryBody)).Decode into a
// queryRequest does. The spellings clients send, {"query":"<text>"} and
// {"query": "<text>"} with <text> printable ASCII free of '"' and '\', are
// their own text and take one scan; any other body goes to that decoder, as
// the bytes read followed by the error that ended the read.
func readQuery(body io.Reader) (string, error) {
	bp := queryBodies.Get().(*[]byte)
	b, lr := (*bp)[:0], io.LimitedReader{R: body, N: maxQueryBody}
	var rerr error
	for rerr == nil {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, rerr = lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	var query string
	var err error
	if text, ok := plainQuery(b); ok {
		query = string(text)
	} else {
		var req queryRequest
		err = json.NewDecoder(io.MultiReader(bytes.NewReader(b), failedRead{rerr})).Decode(&req)
		query = req.Query
	}
	if cap(b) <= 64<<10 { // a rare large body is not kept
		*bp = b
		queryBodies.Put(bp)
	}
	return query, err
}

// plainQuery returns the text of a body that is exactly {"query":"<text>"}
// or {"query": "<text>"} with <text> printable ASCII free of '"' and '\',
// which the JSON decoder reads as those bytes.
func plainQuery(b []byte) ([]byte, bool) {
	const key = `{"query":`
	if len(b) < len(key)+3 || string(b[:len(key)]) != key || string(b[len(b)-2:]) != `"}` {
		return nil, false
	}
	b = b[len(key) : len(b)-2]
	if b[0] == ' ' {
		b = b[1:]
	}
	if len(b) == 0 || b[0] != '"' {
		return nil, false
	}
	b = b[1:]
	for _, c := range b {
		if c < ' ' || c > '~' || c == '"' || c == '\\' {
			return nil, false
		}
	}
	return b, true
}

// failedRead returns the error that ended a body read.
type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	query, err := readQuery(r.Body)
	if err != nil {
		s.setGeneration(w)
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding query request: %w", err))
		return
	}
	if query == "" {
		s.setGeneration(w)
		writeError(w, http.StatusBadRequest, errors.New(`no "query" in the body (want {"query": "..."})`))
		return
	}
	// Queries go through the study's compiled-plan path, which consults the
	// result cache (when one is attached) and reports the exact generation
	// the body was computed against — the X-Generation header therefore
	// always describes the data in the body even while ingestion advances
	// the study, and X-Cache says whether the body came out of the cache (hit)
	// or this request computed it (miss).
	res, body, gen, hit, err := s.study.QueryInfoJSON(query)
	if err != nil {
		s.setGeneration(w)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	h := w.Header()
	h["X-Generation"] = []string{strconv.FormatUint(gen, 10)}
	if hit {
		h["X-Cache"] = cacheHit
	} else {
		h["X-Cache"] = cacheMiss
	}
	if body == nil {
		// No result cache supplied the serialized response: encode it here
		// with the encoder the cache uses, so /query has one body format
		// whatever served it.
		if body, err = res.EncodeJSONBody(); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	records, months, gen, _ := s.study.Counts() // err is always nil
	w.Header().Set("X-Generation", strconv.FormatUint(gen, 10))
	health := map[string]any{
		"status":     "ok",
		"records":    records,
		"months":     months,
		"generation": gen,
		// Backpressure gauges: streams currently ingesting and arrivals
		// shed since start (429 / TCP busy).
		"in_flight": s.inFlight.Load(),
		"shed":      s.shed.Load(),
	}
	if s.sem != nil {
		health["max_in_flight"] = cap(s.sem)
	}
	// Merge-queue gauges: depth/lag say how far merging trails parsing,
	// shed_full how often saturation turned arrivals away.
	health["ingest_queue"] = s.queue.stats()
	if s.snaps != nil {
		snapGen, age, written, errs := s.snaps.status()
		ageSeconds := -1.0 // no snapshot written by this process yet
		if age >= 0 {
			ageSeconds = age.Seconds()
		}
		health["snapshot_generation"] = snapGen
		health["snapshot_age_seconds"] = ageSeconds
		health["snapshots_written"] = written
		health["snapshot_errors"] = errs
	}
	if s.queryCache != nil {
		// Gauges are cache-wide: with a Router-shared cache every study
		// reports the same numbers, which is what capacity planning wants.
		health["query_cache"] = s.queryCache.Stats()
	}
	// Federation gauges: the edge block reports the attached pusher (deltas
	// shipped, retained-but-unshipped state, last push age, upstream errors),
	// the core block the per-source merge cursors and union children. A
	// server that is neither an edge nor a merge target omits the key.
	fedBlock := map[string]any{}
	if s.pusher != nil {
		fedBlock["edge"] = federationEdgeHealth(s.pusher.Stats())
	}
	if coreBlock := s.fed.health(); coreBlock != nil {
		fedBlock["core"] = coreBlock
	}
	if len(fedBlock) > 0 {
		health["federation"] = fedBlock
	}
	// fp: family gauges, off the study's cached frame: distinct fingerprints
	// seen, the per-frame column cap, and the share of fingerprinted volume
	// folded into the "other" bucket. A poll is free while the generation
	// stands still; after ingest it advances the frame over the months that
	// were written (tens of microseconds under the study's exclusive lock),
	// and pays a full build (about a millisecond at study scale) only when a
	// new month opened.
	f, _ := s.study.Frame() // err is always nil
	distinct, topK, otherShare := f.FingerprintGauges()
	health["fingerprints"] = map[string]any{
		"distinct":    distinct,
		"top_k":       topK,
		"other_share": otherShare,
	}
	writeJSON(w, http.StatusOK, health)
}

// --- raw TCP ingest ---

// ServeTCP accepts raw record streams on ln: each connection is one record
// log, read by notary.ReadLog as a POST /ingest body is, straight off the
// connection (through the idle deadline, when set) into the decoder's pooled
// window; the server replies with a single status line ("ok <records>
// <generation>", "busy <retry-after-seconds>" when the in-flight limit or
// merge queue sheds the stream before anything applied, or "error: ...") and
// closes the connection. Transient Accept errors (EMFILE, timeouts) are
// retried after the retry package's backoff, from 5 ms up to a second,
// instead of killing the loop. It returns after the listener closes (Close
// does that).
func (s *Server) ServeTCP(ln net.Listener) error {
	s.tcpMu.Lock()
	s.tcpLns = append(s.tcpLns, ln)
	s.tcpMu.Unlock()
	defer s.connWG.Wait()
	backoff := retry.Backoff{Base: 5 * time.Millisecond, Max: time.Second}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			// One exhausted-FD burst or accept timeout must not end a
			// multi-year collection: back off and try again. Only
			// non-transient errors abort the loop.
			if isTransientAcceptErr(err) {
				time.Sleep(backoff.Next(0))
				continue
			}
			return err
		}
		backoff.Reset()
		if !s.acquireStream() {
			// Saturated: shed with a status line the feeder understands
			// (tlstrend feed -retry backs off and retries on "busy"). Stop
			// reading first — the client may already be streaming, and
			// closing with unread inbound data would RST the reply away.
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.CloseRead()
			}
			s.writeTCPReply(conn, fmt.Sprintf("busy %d\n", DefaultRetryAfter))
			conn.Close()
			continue
		}
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn ingests the record log one raw-TCP connection carries, answers
// it with its status line and closes it, giving back the in-flight slot
// ServeTCP took for it.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer s.releaseStream()
	s.tcpMu.Lock()
	s.tcpConns[conn] = struct{}{}
	if by := s.drainBy.Load(); by != nil { // started while Close ran
		_ = conn.SetReadDeadline(*by)
	}
	s.tcpMu.Unlock()
	defer func() {
		s.tcpMu.Lock()
		delete(s.tcpConns, conn)
		s.tcpMu.Unlock()
		conn.Close()
	}()
	src := io.Reader(conn)
	if s.idleTimeout > 0 {
		src = &idleDeadlineReader{conn: conn, idle: s.idleTimeout, drainBy: &s.drainBy}
	}
	st, err := s.ingest(src)
	if err != nil {
		// The client may still be mid-stream; stop reading without resetting
		// the connection so the error line below survives long enough to be
		// read (closing with unread inbound data would RST the queued reply
		// away).
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseRead()
		}
		if errors.Is(err, errIngestBusy) && st.Records == 0 {
			// Cleanly shed: nothing applied, so the feeder may back off and
			// replay the stream without duplicating records.
			s.writeTCPReply(conn, fmt.Sprintf("busy %d\n", DefaultRetryAfter))
			return
		}
		s.writeTCPReply(conn, fmt.Sprintf("error: %v\n", err))
		return
	}
	s.writeTCPReply(conn, fmt.Sprintf("ok %d %d\n", st.Records, st.Generation))
}

// writeTCPReply writes the status line under the idle deadline (when
// configured), so an unreachable client cannot wedge the handler in the
// reply either.
func (s *Server) writeTCPReply(conn net.Conn, line string) {
	if s.idleTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.idleTimeout))
	}
	_, _ = io.WriteString(conn, line)
}

// isTransientAcceptErr reports whether an Accept error is worth retrying:
// timeouts and the temporary class (EMFILE/ENFILE, aborted connections).
func isTransientAcceptErr(err error) bool {
	var ne net.Error
	if !errors.As(err, &ne) {
		return false
	}
	if ne.Timeout() {
		return true
	}
	// net.Error.Temporary is deprecated for new APIs but remains exactly
	// the accept-loop retry signal (net/http's Server.Serve relies on the
	// same class).
	type temporary interface{ Temporary() bool }
	if te, ok := err.(temporary); ok && te.Temporary() {
		return true
	}
	return false
}

// idleDeadlineReader rearms a read deadline of idle before every Read, so a
// connection only errors out after delivering nothing for a full idle
// window — slow-but-live feeders keep streaming, stalled ones release their
// handler (and their in-flight slot). Once Close has set drainBy, the
// deadline never passes it.
type idleDeadlineReader struct {
	conn    net.Conn
	idle    time.Duration
	drainBy *atomic.Pointer[time.Time]
}

func (ir *idleDeadlineReader) Read(p []byte) (int, error) {
	deadline := time.Now().Add(ir.idle)
	if by := ir.drainBy.Load(); by != nil && by.Before(deadline) {
		deadline = *by
	}
	if err := ir.conn.SetReadDeadline(deadline); err != nil {
		return 0, err
	}
	return ir.conn.Read(p)
}
