package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"tlsage/internal/core"
	"tlsage/internal/notary"
)

// The -out log is written by the merge loop: a shard's frame goes to the log
// before the shard merges, so the log holds exactly the merged shards, in
// merge order. These tests fail wherever records reach the log any other way.

// openTestLog opens a fresh -out log in a temporary directory.
func openTestLog(t *testing.T) (*os.File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conn.log")
	f, err := OpenIngestLog(path, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, path
}

// requireRecoversToServed recovers dir and the log at path the way a restart
// does and requires it to hold the generation the live server at url serves,
// and to serve the same bytes.
func requireRecoversToServed(t *testing.T, dir, path, url string, gen uint64) RecoveryInfo {
	t.Helper()
	recovered, info, err := RecoverStudy(dir, path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records() != gen {
		t.Fatalf("recovered %d records (%+v), the live server served generation %d", info.Records(), info, gen)
	}
	requireSameServed(t, serveStudy(t, recovered), url, "the live server")
	return info
}

// TestShedShardLeavesTheLog: a shard the full queue sheds reaches neither the
// study nor the log. A capacity-1 queue behind the test gate sheds one stream
// cleanly — which its feeder then retries — and a second part-way; the log
// holds exactly the served generation's records, and recovering it serves
// what the live server does. Run under -race in CI.
func TestShedShardLeavesTheLog(t *testing.T) {
	log, _ := sharedLog(t)
	f, path := openTestLog(t)
	gate := make(chan struct{})
	srv := NewServer(core.NewLiveStudy(), withFlushEvery(2), WithQueueBound(1),
		WithLogSink(notary.NewBatchWriter(f, 0)), Option(func(s *Server) { s.queueGate = gate }))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := srv.queue
	// release lets every shard the queue accepted so far merge. The loop is
	// parked on the gate holding one of them, so merged cannot move meanwhile.
	release := func() {
		for n := q.enqueued.Load() - q.merged.Load(); n > 0; n-- {
			gate <- struct{}{}
		}
	}

	// Two one-record streams fill the queue: the loop takes the first and
	// parks on the gate, the second waits in the channel.
	held := []<-chan ingestReply{postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(recordLines(t, log, 0, 1)))}
	waitFor(t, "the loop to take the first shard", func() bool { return q.enqueued.Load() == 1 && len(q.ch) == 0 })
	held = append(held, postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(recordLines(t, log, 1, 2))))
	waitFor(t, "the second shard to fill the queue", func() bool { return len(q.ch) == 1 })

	// A one-shard stream is shed cleanly, and retried once the queue drains.
	clean := recordLines(t, log, 2, 4)
	if r := <-postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(clean)); r.status != http.StatusTooManyRequests || r.Records != 0 {
		t.Fatalf("clean shed replied %+v, want 429 with nothing applied", r)
	}
	release()
	for _, h := range held {
		if r := <-h; r.status != http.StatusOK {
			t.Fatalf("held stream replied %+v", r)
		}
	}
	retried := postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(clean))
	gate <- struct{}{}
	if r := <-retried; r.status != http.StatusOK || r.Records != 2 {
		t.Fatalf("retried stream replied %+v, want 200 with 2 records", r)
	}

	// A three-shard stream with the loop parked: its first shard is taken, a
	// later one is shed, and the stream stops there.
	partial := postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(recordLines(t, log, 4, 10)))
	waitFor(t, "the part-way shed", func() bool { return q.shedFull.Load() == 2 })
	release()
	r := <-partial
	if r.status != http.StatusTooManyRequests || r.Records == 0 || r.Records >= 6 {
		t.Fatalf("part-way shed replied %+v, want 429 with part of the stream applied", r)
	}

	_, _, gen, err := srv.Study().Counts()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(4 + r.Records); gen != want {
		t.Fatalf("served generation %d, want %d", gen, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := uint64(len(recordsOf(t, raw))); n != gen {
		t.Fatalf("the log holds %d records, the study %d: shed shards reached the log", n, gen)
	}
	requireRecoversToServed(t, "", path, ts.URL, gen)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// concurrentStreams ingests the TSV streams at once over HTTP, handing each
// its lines ten at a time in turn so their records interleave at the
// collector, and requires every reply to be a clean 200.
func concurrentStreams(t *testing.T, url string, streams ...[]byte) {
	t.Helper()
	writers := make([]*io.PipeWriter, len(streams))
	replies := make([]<-chan ingestReply, len(streams))
	for i := range streams {
		pr, pw := io.Pipe()
		writers[i], replies[i] = pw, postIngest(url, ContentTypeTSV, pr)
	}
	for more := true; more; {
		more = false
		for i, s := range streams {
			if len(s) == 0 {
				continue
			}
			cut := len(s)
			if lines := bytes.SplitAfterN(s, []byte{'\n'}, 11); len(lines) == 11 {
				cut -= len(lines[10])
			}
			_, _ = writers[i].Write(s[:cut]) // a failed POST shows in its reply
			streams[i], more = s[cut:], true
		}
	}
	for i, w := range writers {
		w.Close()
		if r := <-replies[i]; r.status != http.StatusOK {
			t.Fatalf("stream %d replied %+v", i, r)
		}
	}
}

// TestConcurrentStreamsCrashRecoversAcknowledged: two rounds of two
// concurrent streams, shards of each interleaving in merge order while the
// snapshot trigger fires among them, then the collector is abandoned without
// Close — a SIGKILL with nothing in flight. The newest snapshot plus the log
// past it must serve what the collector served at the kill, byte for byte.
// And replayUnshipped from a cursor inside that tail — what a 409 rebase ships
// — must equal the shards that merged past the cursor. Run under -race in CI.
func TestConcurrentStreamsCrashRecoversAcknowledged(t *testing.T) {
	log, _ := sharedLog(t)
	total := len(recordsOf(t, log))
	f, path := openTestLog(t)
	snaps := filepath.Join(filepath.Dir(path), "snaps")

	type mergedShard struct {
		through uint64 // the generation after it merged
		shard   *notary.Aggregate
	}
	var (
		mu     sync.Mutex
		merged []mergedShard
		gen    uint64
	)
	srv := NewServer(core.NewLiveStudy(), withFlushEvery(23), WithLogSink(notary.NewBatchWriter(f, 0)),
		WithDurability(DurabilityOptions{Dir: snaps, EveryRecords: 100, Logf: t.Logf}),
		WithShardObserver(func(shard *notary.Aggregate) {
			own := notary.NewAggregate()
			own.Merge(shard)
			mu.Lock()
			gen += shard.Generation()
			merged = append(merged, mergedShard{gen, own})
			mu.Unlock()
		}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := total / 4
	concurrentStreams(t, ts.URL, recordLines(t, log, 0, q), recordLines(t, log, 2*q, 3*q))
	concurrentStreams(t, ts.URL, recordLines(t, log, q, 2*q), recordLines(t, log, 3*q, total))

	// The kill: every stream acknowledged, nothing closed.
	mu.Lock()
	defer mu.Unlock()
	if gen != uint64(total) {
		t.Fatalf("%d records merged, want %d", gen, total)
	}
	info := requireRecoversToServed(t, snaps, path, ts.URL, gen)
	if info.SnapshotRecords == 0 || info.ReplayedRecords == 0 {
		t.Fatalf("recovery %+v: want a snapshot that trails the log", info)
	}

	for _, k := range []int{len(merged) / 4, len(merged) / 2, 3 * len(merged) / 4} {
		t.Run(fmt.Sprintf("replayUnshipped/shard%d", k), func(t *testing.T) {
			want := notary.NewAggregate()
			for _, m := range merged[k+1:] {
				want.Merge(m.shard)
			}
			got, err := replayUnshipped(srv.Study(), path, merged[k].through, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Generation() != want.Generation() {
				t.Fatalf("replayed %d records past generation %d, %d merged after it", got.Generation(), merged[k].through, want.Generation())
			}
			requireSameServed(t, serveStudy(t, core.NewStudyFromAggregate(got)),
				serveStudy(t, core.NewStudyFromAggregate(want)), "the shards merged past the cursor")
		})
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// failAt is a log file whose nth write fails part-way, as on a full disk; it
// counts every write asked of it.
type failAt struct {
	f     *os.File
	n     int32
	calls atomic.Int32
}

func (w *failAt) Write(p []byte) (int, error) {
	switch call := w.calls.Add(1); {
	case call < w.n:
		return w.f.Write(p)
	case call == w.n:
		k, _ := w.f.Write(p[:len(p)/2])
		return k, errors.New("no space left on device")
	default:
		return 0, errors.New("written after a failed write")
	}
}

// TestFailedLogWriteStopsTheLog: a write that fails part-way leaves a torn
// frame at the end of the log. The shard it carried does not merge, and
// neither does any shard after it — its frame would land past the torn one,
// where recovery never reads — and each answers 500. What is on disk then
// recovers to exactly the merged state.
func TestFailedLogWriteStopsTheLog(t *testing.T) {
	log, _ := sharedLog(t)
	f, path := openTestLog(t)
	w := &failAt{f: f, n: 3}
	srv := NewServer(core.NewLiveStudy(), withFlushEvery(17), WithLogSink(notary.NewBatchWriter(w, 0)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Shards of 17, 17 and 16 records: the third one's write fails.
	if r := <-postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(recordLines(t, log, 0, 50))); r.status != http.StatusInternalServerError {
		t.Fatalf("the stream whose write failed replied %+v, want 500", r)
	}
	if r := <-postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(recordLines(t, log, 50, 60))); r.status != http.StatusInternalServerError {
		t.Fatalf("a stream after the failed write replied %+v, want 500", r)
	}
	if calls := w.calls.Load(); calls != w.n {
		t.Errorf("the log was asked for %d writes, want none after the failed %dth", calls, w.n)
	}
	_, _, gen, err := srv.Study().Counts()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 34 {
		t.Fatalf("served generation %d, want the 34 records written before the failure", gen)
	}
	if info := requireRecoversToServed(t, "", path, ts.URL, gen); !info.LogTruncated {
		t.Errorf("recovery %+v did not find the torn frame", info)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeCounter counts the Write calls that reach it.
type writeCounter struct{ calls atomic.Int64 }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls.Add(1)
	return len(p), nil
}

// TestLogWritesFollowShards: the merge loop writes each shard's frames to the
// -out log in one call, so the log's write calls grow with the shards merged,
// not with the records — equal to the shards at n and at 8n records a shard.
func TestLogWritesFollowShards(t *testing.T) {
	log, _ := sharedLog(t)
	const n = 16
	records := len(recordsOf(t, log))
	if records < 4*8*n {
		t.Fatalf("shared log too small for shards of %d: %d records", 8*n, records)
	}
	for _, every := range []int{n, 8 * n} {
		var w writeCounter
		srv := NewServer(core.NewLiveStudy(), withFlushEvery(every), WithLogSink(notary.NewBatchWriter(&w, 0)))
		ts := httptest.NewServer(srv.Handler())
		postTSV(t, ts.URL, recordLines(t, log, 0, records))
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		shards := srv.queue.merged.Load()
		if want := uint64((records + every - 1) / every); shards != want {
			t.Fatalf("%d records a shard: %d shards merged, want %d", every, shards, want)
		}
		if calls := w.calls.Load(); calls != int64(shards) {
			t.Errorf("%d records a shard: %d writes to the log for %d shards merged", every, calls, shards)
		}
	}
}

// TestStageAllocsAreSteadyState: a warm stage packs records on their
// decoder's hello rows into shard frames, and hands the frames over, without
// allocating.
func TestStageAllocsAreSteadyState(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's build allocates inside the envelope, and sync.Pool drops at random under it")
	}
	log, _ := sharedLog(t)
	var recs []*notary.Record
	if _, _, err := notary.ReadBatches(bytes.NewReader(transcodeBatch(t, log, notary.DefaultBatchSize)),
		notary.SinkFunc(func(r *notary.Record) error {
			keep := *r // still on its row
			recs = append(recs, &keep)
			return nil
		})); err != nil {
		t.Fatal(err)
	}
	const every = 64
	srv := NewServer(core.NewLiveStudy(), withFlushEvery(every), WithLogSink(notary.NewBatchWriter(io.Discard, 0)))
	defer srv.Close()
	st := srv.stages.Get().(*stage)
	stageAll := func() {
		for i, r := range recs {
			if err := st.bw.Observe(r); err != nil {
				t.Fatal(err)
			}
			if (i+1)%every == 0 || i == len(recs)-1 {
				b, err := st.frame()
				if err != nil || b == nil {
					t.Fatalf("shard frame %v, err %v", b, err)
				}
				releaseFrame(b)
			}
		}
	}
	stageAll() // the buffers reach their size, the dictionaries fill
	if got := testing.AllocsPerRun(5, stageAll); got != 0 {
		t.Errorf("a warm stage allocates %v times per %d records, want 0", got, len(recs))
	}
}
