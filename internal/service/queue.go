package service

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tlsage/internal/core"
	"tlsage/internal/notary"
)

// The bounded merge queue: the flow-control stage between stream readers and
// the live study. Readers parse and enqueue decoded shards; one merge loop
// owns the study write path, so handlers never stack up on the study's write
// lock; and a full queue sheds the offending stream with 429/busy instead of
// buffering without bound. The merge loop is also the -out log's only
// writer (writeLog), so a shed shard never reaches the log.
//
// Shedding is edge-triggered per shard, so a stream can be part-applied when
// its later shard finds the queue full. The server subtracts the doomed
// shard from the reported record count and the feed clients refuse to
// blind-retry a stream the server partially applied (see FeedHTTP/FeedTCP).

// DefaultQueueBound is the merge-queue capacity a server runs at unless
// WithQueueBound says otherwise: at DefaultFlushEvery it holds roughly a
// million records of parsed-but-unmerged backlog.
const DefaultQueueBound = 256

// errIngestBusy marks a stream shed because the bounded merge queue was
// saturated; the HTTP handler maps it to 429 + Retry-After and the TCP
// handler to a "busy" (or partial-stream "error:") status line.
var errIngestBusy = errors.New("service: ingest merge queue saturated")

// queuedShard is one parsed shard awaiting merge, tagged with the stream
// that produced it so completion (and any merge error) reaches the right
// handler. On a server with a log it carries its records as TLSB frames
// (see stage).
type queuedShard struct {
	shard *notary.Aggregate
	frame *[]byte
	st    *queueStream
}

// frameBufs recycles the buffers shards carry their frames in.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// releaseFrame returns a shard's frame buffer to frameBufs; nil is a no-op.
func releaseFrame(b *[]byte) {
	if b != nil {
		*b = (*b)[:0]
		frameBufs.Put(b)
	}
}

// queueStream tracks one ingest stream's shards through the queue, so its
// handler can wait for everything it enqueued to merge before replying —
// the reply's record count and generation then describe applied state.
type queueStream struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
	// shards, when set, takes back each of the stream's shards once it has
	// merged and its observers have returned, emptied; nil for a federated
	// delta, which is never reused.
	shards *sync.Pool
}

func (st *queueStream) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
}

// recycle empties a merged shard of the stream's and puts it back in the pool
// it came from; a federated delta's stays as it is.
func (st *queueStream) recycle(shard *notary.Aggregate) {
	if st.shards != nil {
		shard.Reset()
		st.shards.Put(shard)
	}
}

// wait blocks until every shard the stream enqueued has merged and returns
// the first merge error, if any.
func (st *queueStream) wait() error {
	st.wg.Wait()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// mergeQueue is the bounded channel between connection readers and the
// single shard-merge loop.
type mergeQueue struct {
	study *core.Study
	ch    chan queuedShard
	wg    sync.WaitGroup
	// afterMerge receives every successfully merged shard — the durability
	// checkpoint and the federation tee (Server.afterMerge as a method
	// value).
	afterMerge func(*notary.Aggregate)
	// log, when non-nil, is the record log. logErr is its first failed
	// write, which may have left part of a frame in the log — recovery cuts
	// that and everything after it — so nothing is written, and no shard
	// merges, after it.
	log    notary.Sink
	logErr error
	// gate, when non-nil (tests only), is received from before each merge so
	// saturation tests can hold the loop deterministically.
	gate chan struct{}

	// closeMu serializes enqueue against close: handlers not tracked by
	// connWG (HTTP) may race Server.Close, and sending on a closed channel
	// would panic where "shed" is the correct answer.
	closeMu sync.RWMutex
	closed  bool

	enqueued atomic.Uint64
	merged   atomic.Uint64
	shedFull atomic.Uint64
}

func newMergeQueue(study *core.Study, bound int, afterMerge func(*notary.Aggregate), log notary.Sink, gate chan struct{}) *mergeQueue {
	if bound <= 0 {
		bound = DefaultQueueBound
	}
	q := &mergeQueue{
		study:      study,
		ch:         make(chan queuedShard, bound),
		afterMerge: afterMerge,
		log:        log,
		gate:       gate,
	}
	q.wg.Add(1)
	go q.loop()
	return q
}

// enqueue hands a shard, and its frame, to the merge loop without blocking: a
// full (or closed) queue sheds with errIngestBusy instead of buffering the
// reader, and the frame stays the caller's.
func (q *mergeQueue) enqueue(st *queueStream, shard *notary.Aggregate, frame *[]byte) error {
	q.closeMu.RLock()
	defer q.closeMu.RUnlock()
	if q.closed {
		q.shedFull.Add(1)
		return errIngestBusy
	}
	st.wg.Add(1)
	select {
	case q.ch <- queuedShard{shard: shard, frame: frame, st: st}:
		q.enqueued.Add(1)
		return nil
	default:
		st.wg.Done()
		q.shedFull.Add(1)
		return errIngestBusy
	}
}

func (q *mergeQueue) loop() {
	defer q.wg.Done()
	for qs := range q.ch {
		if q.gate != nil {
			<-q.gate
		}
		var err error
		if qs.frame != nil {
			err = q.writeLog(*qs.frame)
			releaseFrame(qs.frame)
		}
		if err != nil {
			qs.st.fail(err)
		} else {
			_ = q.study.MergeShard(qs.shard) // err is always nil
			q.afterMerge(qs.shard)
			qs.st.recycle(qs.shard)
		}
		q.merged.Add(1)
		qs.st.wg.Done()
	}
}

// writeLog writes a shard's frame to the log: a sink with WriteFrames
// (notary.BatchWriter) gets the whole frame in one write and never a record;
// any other sink — a TSV LogWriter — gets the frame's records, replayed by
// ReadLog, then Close, which flushes them.
func (q *mergeQueue) writeLog(frame []byte) error {
	if q.logErr != nil {
		return q.logErr
	}
	var err error
	if fw, ok := q.log.(interface{ WriteFrames([]byte) error }); ok {
		err = fw.WriteFrames(frame)
	} else {
		err = notary.ReadLog(bytes.NewReader(frame), q.log)
		if cerr := q.log.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		q.logErr = fmt.Errorf("service: writing the record log (nothing merges after this): %w", err)
	}
	return q.logErr
}

// close drains the queue: no further enqueues are accepted (they shed), and
// it returns only after every already-queued shard has merged.
func (q *mergeQueue) close() {
	q.closeMu.Lock()
	if q.closed {
		q.closeMu.Unlock()
		return
	}
	q.closed = true
	q.closeMu.Unlock()
	close(q.ch)
	q.wg.Wait()
}

// stats reports the /healthz ingest-queue gauges: instantaneous depth,
// capacity, lag (enqueued minus merged — what a consumer is behind by) and
// lifetime batch/shed counters.
func (q *mergeQueue) stats() map[string]any {
	enq, mrg := q.enqueued.Load(), q.merged.Load()
	return map[string]any{
		"capacity":         cap(q.ch),
		"depth":            len(q.ch),
		"lag":              enq - mrg,
		"batches_enqueued": enq,
		"batches_merged":   mrg,
		"shed_full":        q.shedFull.Load(),
	}
}
