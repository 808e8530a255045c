package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/fingerprint"
	"tlsage/internal/framing"
	"tlsage/internal/notary"
	"tlsage/internal/timeline"
)

// transcodeBatch re-encodes a TSV log into the binary batch framing with the
// given records-per-frame.
func transcodeBatch(t *testing.T, log []byte, batchSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := notary.NewBatchWriter(&buf, batchSize)
	if err := notary.ReadLog(bytes.NewReader(log), bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestWireFormatParity is the cross-format acceptance check: the same
// log fed as binary batches over HTTP, TSV over HTTP, TSV over TCP and
// binary over TCP must serve what an offline LoadLog of it serves — the wire
// format and transport must never leak into results. A body is read by its
// content, not its label, so frames posted as TSV and lines posted as
// batches ingest alike too. Every server runs with a bounded merge queue so
// the queued-merge path is covered, and a query is asked twice so the
// cached-body fast path must also match the freshly encoded body.
func TestIngestWireFormatParity(t *testing.T) {
	log, offline := sharedLog(t)
	batch := transcodeBatch(t, log, 53) // odd frame size sweeps frame boundaries
	wantRecords := offline.Aggregate().TotalRecords()
	ref := serveLog(t, log)

	postStream := func(body []byte, contentType string) func(t *testing.T, url, tcpAddr string) {
		return func(t *testing.T, url, tcpAddr string) {
			if r := <-postIngest(url, contentType, bytes.NewReader(body)); r.status != http.StatusOK || r.Records != wantRecords {
				t.Fatalf("ingest replied %+v, want 200 with %d records", r, wantRecords)
			}
		}
	}
	dialStream := func(body []byte) func(t *testing.T, url, tcpAddr string) {
		return func(t *testing.T, url, tcpAddr string) {
			conn, err := net.Dial("tcp", tcpAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(body); err != nil {
				t.Fatal(err)
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(conn)
			if want := fmt.Sprintf("ok %d %d\n", wantRecords, wantRecords); err != nil || string(reply) != want {
				t.Fatalf("tcp reply %q (err %v), want %q", reply, err, want)
			}
		}
	}

	for i, p := range []struct {
		name string
		feed func(t *testing.T, url, tcpAddr string)
	}{
		{"tsv-http", postStream(log, ContentTypeTSV)},
		{"binary-http", postStream(batch, ContentTypeBatch)},
		{"tsv-tcp", dialStream(log)},
		{"binary-tcp", dialStream(batch)},
		{"binary-http-labelled-tsv", postStream(batch, ContentTypeTSV)},
		{"tsv-http-labelled-batch", postStream(log, ContentTypeBatch)},
	} {
		t.Run(p.name, func(t *testing.T) {
			srv := NewServer(core.NewLiveStudy(),
				withFlushEvery(89+i), // sweep shard boundaries across paths
				WithQueueBound(32),
				WithQueryCache(analysis.NewQueryCache(16, 1<<20), "p"))
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.ServeTCP(ln) }()

			p.feed(t, ts.URL, ln.Addr().String())
			requireSameServed(t, ts.URL, ref, "an offline LoadLog")
			const q = "pct(version:tls12 / established)"
			_, want := postQuery(t, ref+"/query", q)
			if h, body := postQuery(t, ts.URL+"/query", q); h.Get("X-Cache") != "hit" || !bytes.Equal(body, want) {
				t.Errorf("the repeated query: X-Cache %q, body %s", h.Get("X-Cache"), body)
			}

			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != nil {
				t.Fatalf("ServeTCP: %v", err)
			}
		})
	}
}

// TestFlushCadenceParity: a stream's shards are built a cell at a time and
// folded at each flush (notary.ShardBuilder), one builder for all of a
// stream's shards, so the cadence must not show. The same log, as TSV and as
// binary batches, flushed every record, every 7 and once per 4,096, serves
// what an offline LoadLog serves; so does the log fed by FeedHTTP, the
// client `tlstrend feed` runs, flushed every 97, /figures included.
func TestFlushCadenceParity(t *testing.T) {
	log, offline := sharedLog(t)
	batch := transcodeBatch(t, log, 53)
	records := offline.Aggregate().TotalRecords()
	ref := serveLog(t, log)
	// serve starts a server flushing every `every` records, with room for a
	// shard per record: nothing is shed.
	serve := func(t *testing.T, every int) string {
		srv := NewServer(core.NewLiveStudy(), withFlushEvery(every), WithQueueBound(records))
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		return ts.URL
	}
	for _, every := range []int{1, 7, 4096} {
		for _, in := range []struct {
			name, contentType string
			body              []byte
		}{{"tsv", ContentTypeTSV, log}, {"binary", ContentTypeBatch, batch}} {
			t.Run(fmt.Sprintf("every-%d/%s", every, in.name), func(t *testing.T) {
				url := serve(t, every)
				if r := <-postIngest(url, in.contentType, bytes.NewReader(in.body)); r.status != http.StatusOK || r.Records != records || r.Generation != uint64(records) {
					t.Fatalf("ingest replied %+v; want 200 with %d records", r, records)
				}
				requireSameServed(t, url, ref, "an offline LoadLog")
			})
		}
	}
	t.Run("feed-http", func(t *testing.T) {
		url := serve(t, 97)
		res, err := FeedHTTP(url, func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(log)), nil }, FeedOptions{})
		if err != nil || res.Records != records || res.Generation != uint64(records) {
			t.Fatalf("FeedHTTP = %+v, err %v; want %d records", res, err, records)
		}
		requireSameServed(t, url, ref, "an offline LoadLog")
		requireSameFigures(t, url, ref, "an offline LoadLog")
	})
}

// TestConcurrentStreamsOfBothFormats is the parity check for what streams
// share: the record decoders draw their hello tables from one pool per format
// (notary/hello.go), so a table warmed by one peer's stream decodes the next
// peer's. Eight streams — TSV and binary, over HTTP and TCP, two of each —
// feed disjoint slices of one log at the same time, while three readers poll
// /healthz and /figures, and /scalars must come out byte-identical to the
// offline load of the whole log. Run under -race.
func TestConcurrentStreamsOfBothFormats(t *testing.T) {
	log, offline := sharedLog(t)
	srv := NewServer(core.NewLiveStudy(), withFlushEvery(61), WithQueueBound(64))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeTCP(ln) }()

	const streams = 8
	chunks := make([][]byte, streams)
	n := 0
	for _, l := range bytes.SplitAfter(log, []byte{'\n'}) {
		if len(l) == 0 || l[0] == '#' {
			continue
		}
		// Runs of 16 lines, so neighbouring records — the same clients — go to
		// different streams and every table meets every hello.
		chunks[n/16%streams] = append(chunks[n/16%streams], l...)
		n++
	}
	var wg sync.WaitGroup
	for i, chunk := range chunks {
		body, contentType := chunk, ContentTypeTSV
		if i%2 == 1 {
			body, contentType = transcodeBatch(t, chunk, 37), ContentTypeBatch
		}
		wg.Add(1)
		go func(overTCP bool) {
			defer wg.Done()
			if !overTCP {
				if r := <-postIngest(ts.URL, contentType, bytes.NewReader(body)); r.status != http.StatusOK {
					t.Errorf("ingest replied %+v", r)
				}
				return
			}
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			if _, err := conn.Write(body); err != nil {
				t.Errorf("tcp write: %v", err)
				return
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Errorf("tcp close-write: %v", err)
				return
			}
			if reply, err := io.ReadAll(conn); err != nil || !strings.HasPrefix(string(reply), "ok ") {
				t.Errorf("tcp reply %q, err %v", reply, err)
			}
		}(i/2%2 == 1)
	}
	// Readers poll while the streams land: each sees its generation only grow.
	get := func(path string, v any) error {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(v)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var backwards atomic.Int64
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var health struct {
					Generation uint64 `json:"generation"`
				}
				var figs []figureJSON
				if err := errors.Join(get("/healthz", &health), get("/figures", &figs)); err != nil {
					t.Errorf("a reader: %v", err)
					return
				}
				if health.Generation < last {
					backwards.Add(1)
				}
				last = health.Generation
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	t.Run("ingest-and-query", func(t *testing.T) {
		if _, _, gen, err := srv.Study().Counts(); err != nil || backwards.Load() != 0 || gen != uint64(offline.Aggregate().TotalRecords()) {
			t.Errorf("final generation %d (err %v), %d readers saw it go backwards; want %d, none",
				gen, err, backwards.Load(), offline.Aggregate().TotalRecords())
		}
	})

	offlineScalars, err := offline.Scalars()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustGet(t, ts.URL+"/scalars"), encodeLikeServer(t, offlineScalars); !bytes.Equal(got, want) {
		t.Errorf("/scalars after eight concurrent streams diverges from offline loadlog:\ngot:  %s\nwant: %s", got, want)
	}
	if records, _, _, err := srv.Study().Counts(); err != nil || records != offline.Aggregate().TotalRecords() {
		t.Errorf("%d records (err %v), want %d", records, err, offline.Aggregate().TotalRecords())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
}

// TestIngestBoundsPointFormatsOnEveryPath is the parity suite's refusal arm:
// a point format is one byte, and a record naming format 0x100 is refused on
// all four format × transport pairs alike — 400 over HTTP, an error line over
// TCP, a study holding the one good record before it, which still snapshots.
// The TSV reader used to keep the low byte and acknowledge the record. A line
// that is no record, and one whose year no snapshot could carry, are refused
// alike.
func TestIngestBoundsPointFormatsOnEveryPath(t *testing.T) {
	// Two records, alike but for client_pfs: 0000, then 0100,01ff.
	line := func(pfs string) string {
		return "2013-03-09\tF\t0000\t0000\t0000\tF\tF\t0\tF\tF\t0301\tc02f\t-\t-\t" + pfs + "\t-\tF\t-\t-\t-\n"
	}
	tsv := []byte(line("0000") + line("0100,01ff"))
	// The same two as one version-2 TLSB frame — no references, every value
	// in line — packed by hand from batch.go's layout (BatchWriter cannot spell
	// a point format past a byte).
	record := func(pfs ...uint64) []byte {
		rec := []byte{0}                             // flags
		rec = binary.AppendUvarint(rec, 2013)        // date
		rec = append(rec, 3, 9, 0x81, 0x06, 0, 0, 0) // client_version 0x0301, version, suite, curve
		rec = append(rec, 0)                         // alert
		rec = append(rec, 1, 0xaf, 0x80, 0x03)       // client_suites: c02f
		rec = append(rec, 0, 0, byte(len(pfs)))      // no extensions, no curves
		for _, v := range pfs {
			rec = binary.AppendUvarint(rec, v)
		}
		return append(rec, 0, 0, 0, 0) // no supported versions, three empty strings
	}
	payload := append(append([]byte{2}, record(0)...), record(0x100, 0x1ff)...)
	format := framing.Format{Magic: "TLSB", MinVersion: 1, Version: 2, LenBytes: 4, MaxPayload: 1 << 26}
	dst, mark := format.Begin(nil)
	batch, err := format.End(append(dst, payload...), mark)
	if err != nil {
		t.Fatal(err)
	}
	// Both spell the same first record.
	var fromTSV, fromBatch bytes.Buffer
	if err := notary.ReadLog(bytes.NewReader([]byte(line("0000"))), notary.NewBatchWriter(&fromTSV, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := notary.ReadBatches(bytes.NewReader(batch), notary.NewBatchWriter(&fromBatch, 1)); err == nil ||
		!bytes.Equal(fromTSV.Bytes(), fromBatch.Bytes()) || fromTSV.Len() == 0 {
		t.Fatalf("the hand-packed frame's first record is not the TSV line's (err %v)", err)
	}

	good := line("0000")
	for _, p := range []struct {
		name, contentType string
		body              []byte
		tcp               bool
		names             string // what the refusal must name
	}{
		{"tsv-http", ContentTypeTSV, tsv, false, "0100"},
		{"binary-http", ContentTypeBatch, batch, false, "element 256 out of range"},
		{"tsv-tcp", "", tsv, true, "0100"},
		{"binary-tcp", "", batch, true, "element 256 out of range"},
		{"bad-line-keeps-prefix", ContentTypeTSV, []byte(good + "this is not a record\n"), false, "line 2"},
		{"out-of-range-date-http", ContentTypeTSV, []byte(good + "9223372036854775807" + good[4:] + good), false, "line 2"},
		{"out-of-range-date-tcp", "", []byte(good + "9223372036854775807" + good[4:] + good), true, "line 2"},
	} {
		t.Run(p.name, func(t *testing.T) {
			srv := NewServer(core.NewLiveStudy())
			defer srv.Close()
			var reply string
			if p.tcp {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go srv.ServeTCP(ln)
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if _, err := conn.Write(p.body); err != nil {
					t.Fatal(err)
				}
				if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
				raw, err := io.ReadAll(conn)
				if err != nil {
					t.Fatal(err)
				}
				if reply = string(raw); !strings.HasPrefix(reply, "error: ") {
					t.Fatalf("tcp reply %q, want an error line", reply)
				}
			} else {
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				r := <-postIngest(ts.URL, p.contentType, bytes.NewReader(p.body))
				if reply = r.Error; r.status != http.StatusBadRequest || r.Records != 1 {
					t.Fatalf("ingest replied %+v, want 400 with the 1 record before the refusal", r)
				}
			}
			if !strings.Contains(reply, p.names) {
				t.Errorf("reply %q does not name %q", reply, p.names)
			}
			if records, _, _, err := srv.Study().Counts(); err != nil || records != 1 {
				t.Errorf("study holds %d records (err %v), want the one before the refusal", records, err)
			}
			var snap bytes.Buffer
			if _, err := srv.Study().WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if _, err := notary.ReadSnapshot(&snap); err != nil {
				t.Fatalf("the study's own snapshot does not decode: %v", err)
			}
		})
	}
}

// TestIngestBatchRejection sweeps malformed binary streams through POST
// /ingest: truncation, bit flips and short frames must answer 400 with a
// frame-tagged error, keeping every record from the intact frames before the
// damage — the live collector keeps what it has seen, same as the TSV
// bad-line semantics.
func TestIngestBatchRejection(t *testing.T) {
	log, offline := sharedLog(t)
	const frameSize = 50
	batch := transcodeBatch(t, log, frameSize)
	total := offline.Aggregate().TotalRecords()

	corrupt := func(mut func([]byte) []byte) []byte {
		b := append([]byte(nil), batch...)
		return mut(b)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"truncated", corrupt(func(b []byte) []byte { return b[:len(b)-3] })},
		{"bit-flip-tail", corrupt(func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b })},
		{"bit-flip-payload", corrupt(func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })},
		{"short-frame", batch[:9]}, // a full header whose payload never arrives
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(core.NewLiveStudy())
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			reply := <-postIngest(ts.URL, ContentTypeBatch, bytes.NewReader(tc.body))
			if reply.status != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", reply.status, reply.Error)
			}
			if !strings.Contains(reply.Error, "batch") {
				t.Errorf("error %q lacks the batch frame tag", reply.Error)
			}
			if reply.Records >= total {
				t.Errorf("%d records applied from a damaged stream of %d", reply.Records, total)
			}
			if reply.Records%frameSize != 0 {
				t.Errorf("%d applied records is not a whole number of %d-record frames", reply.Records, frameSize)
			}
			records, _, _, err := srv.Study().Counts()
			if err != nil || records != reply.Records {
				t.Errorf("study holds %d records (err %v), reply said %d", records, err, reply.Records)
			}
		})
	}
}

// TestDefaultServerIngestsThroughQueue pins the single ingest path: a server
// built with no options owns a DefaultQueueBound merge queue, its ingest
// reply describes applied state, /healthz carries that state and the queue
// gauges, and Close returns only after a shard still waiting in the queue has
// merged.
func TestDefaultServerIngestsThroughQueue(t *testing.T) {
	log, _ := sharedLog(t)
	srv := NewServer(core.NewLiveStudy())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	reply := <-postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(log))
	records, months, gen, err := srv.Study().Counts()
	if err != nil {
		t.Fatal(err)
	}
	if reply.status != http.StatusOK || reply.Records == 0 || reply.Records != records || reply.Generation != gen {
		t.Fatalf("ingest replied %+v, study holds %d records at generation %d", reply, records, gen)
	}
	var health struct {
		Status     string `json:"status"`
		Records    int    `json:"records"`
		Months     int    `json:"months"`
		Generation uint64 `json:"generation"`
		Queue      struct {
			Capacity int    `json:"capacity"`
			Enqueued uint64 `json:"batches_enqueued"`
			Merged   uint64 `json:"batches_merged"`
		} `json:"ingest_queue"`
	}
	if err := json.Unmarshal(mustGet(t, ts.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Records != records || health.Months != months || months == 0 || health.Generation != gen {
		t.Errorf("healthz = %+v, want status ok, %d records over %d months at generation %d", health, records, months, gen)
	}
	if q := health.Queue; q.Capacity != DefaultQueueBound || q.Enqueued == 0 || q.Merged != q.Enqueued {
		t.Errorf("ingest_queue = %+v, want capacity %d with every shard merged", q, DefaultQueueBound)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Close drains: hold the merge loop so the stream's only shard (the log
	// is shorter than one flush) sits in the queue when Close arrives.
	gate := make(chan struct{})
	held := NewServer(core.NewLiveStudy(), Option(func(s *Server) { s.queueGate = gate }))
	hts := httptest.NewServer(held.Handler())
	defer hts.Close()
	posted := postIngest(hts.URL, ContentTypeTSV, bytes.NewReader(log))
	deadline := time.Now().Add(5 * time.Second)
	for held.queue.enqueued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never enqueued its shard")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- held.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a queued shard was still unmerged")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got, _, _, _ := held.Study().Counts(); got != records {
		t.Errorf("study holds %d records after Close, want the drained %d", got, records)
	}
	if r := <-posted; r.Records != records {
		t.Errorf("held stream replied %+v, want %d records", r, records)
	}
}

// TestIngestQueueSaturationSheds pins the bounded-queue backpressure, run
// under -race in CI: with the merge loop held by the test gate and a
// capacity-1 queue, a binary stream is part-applied and shed — FeedHTTP must
// refuse to retry it (a replay would double-count) — while a fresh TSV
// stream over TCP is cleanly shed with a retryable "busy" line, and /healthz
// exposes the shed in its queue gauges.
func TestIngestQueueSaturationSheds(t *testing.T) {
	log, _ := sharedLog(t)
	batchA := transcodeBatch(t, recordLines(t, log, 0, 8), 2)

	gate := make(chan struct{})
	var gateOnce sync.Once
	releaseGate := func() { gateOnce.Do(func() { close(gate) }) }
	srv := NewServer(core.NewLiveStudy(),
		withFlushEvery(1), // shard per record: the queue fills after 2 records
		WithQueueBound(1),
		Option(func(s *Server) { s.queueGate = gate }))
	t.Cleanup(func() {
		releaseGate() // Close drains the queue; the loop must not stay gated
		srv.Close()
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeTCP(ln) }()

	// A held one-record stream parks the merge loop on the gate. Only then
	// does a shed say the queue is full: the loop takes a shard off the
	// channel before it waits on the gate, so a shed seen earlier could be
	// followed by the loop emptying the channel.
	q := srv.queue
	held := postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(recordLines(t, log, 0, 1)))
	waitFor(t, "the loop to take the held shard", func() bool { return q.enqueued.Load() == 1 && len(q.ch) == 0 })

	// Stream A (binary over HTTP): its first shard fills the queue and a
	// later flush sheds. FeedHTTP would normally retry a 429, but this one
	// reports applied records, so retrying must be refused.
	var feedRes FeedResult
	var feedErr error
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		feedRes, feedErr = FeedHTTP(ts.URL,
			func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(batchA)), nil },
			FeedOptions{MaxRetries: 3})
	}()
	waitFor(t, "stream A to hit the saturated queue", func() bool { return q.shedFull.Load() > 0 })

	// Stream B (TSV over TCP) arrives while the queue is still full: nothing
	// of it applies, so the server sheds it with the retryable busy line.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(recordLines(t, log, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(reply)); got != fmt.Sprintf("busy %d", DefaultRetryAfter) {
		t.Fatalf("clean shed replied %q, want busy %d", got, DefaultRetryAfter)
	}

	// Release the merge loop: the held record and stream A's accepted shards
	// fold in, A's 429 arrives reporting them, and the feeder fails hard
	// instead of retrying.
	releaseGate()
	if r := <-held; r.status != http.StatusOK || r.Records != 1 {
		t.Fatalf("held stream replied %+v, want 200 with 1 record", r)
	}
	<-fed
	if feedErr == nil || !strings.Contains(feedErr.Error(), "not retrying") {
		t.Fatalf("part-applied shed feed error = %v, want a no-retry refusal", feedErr)
	}
	if feedRes.Attempts != 1 {
		t.Errorf("feeder attempted %d times against a part-applied shed, want 1", feedRes.Attempts)
	}
	records, _, _, err := srv.Study().Counts()
	if err != nil {
		t.Fatal(err)
	}
	if records < 2 || records >= 9 {
		t.Errorf("study holds %d records, want the held one and stream A's part-applied prefix (1..7)", records)
	}

	// /healthz exposes the saturation: both sheds counted, capacity visible.
	var health struct {
		Queue struct {
			Capacity int    `json:"capacity"`
			Enqueued uint64 `json:"batches_enqueued"`
			Merged   uint64 `json:"batches_merged"`
			ShedFull uint64 `json:"shed_full"`
		} `json:"ingest_queue"`
	}
	if err := json.Unmarshal(mustGet(t, ts.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Queue.Capacity != 1 || health.Queue.ShedFull < 2 {
		t.Errorf("queue gauges = %+v, want capacity 1 with >= 2 sheds", health.Queue)
	}
	if health.Queue.Merged != health.Queue.Enqueued {
		t.Errorf("queue drained %d of %d accepted shards", health.Queue.Merged, health.Queue.Enqueued)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
}

// TestClosedQueueShedsAndCounts: once Close has drained the merge queue, a
// late enqueue sheds with errIngestBusy, counts in shed_full, the gauge
// /healthz reports, and never reaches the study.
func TestClosedQueueShedsAndCounts(t *testing.T) {
	srv := NewServer(core.NewLiveStudy())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	shard := srv.Study().NewShard()
	shard.Add(&notary.Record{Date: timeline.D(2014, time.March, 3)})
	if err := srv.queue.enqueue(&queueStream{}, shard, nil); !errors.Is(err, errIngestBusy) {
		t.Errorf("enqueue on a closed queue = %v, want errIngestBusy", err)
	}
	if shed := srv.queue.stats()["shed_full"]; shed != uint64(1) {
		t.Errorf("shed_full = %v after one late enqueue, want 1", shed)
	}
	if records, _, _, _ := srv.Study().Counts(); records != 0 {
		t.Errorf("the study holds %d records, want none", records)
	}
}

// TestWarmIngestAllocs: a server recycles what a stream uses — the decoder
// tables and the window they read through, its ShardBuilder, the shards the
// merge loop hands back — so once those are warm a 16,384-record TLSB stream
// (32 frames of 512) allocates a few bytes a record: the fingerprint rows of
// its shards, not shards, builders, tables or buffers. That holds read from
// memory and read off a loopback ServeTCP connection, which ReadLog reads
// straight into its table's window; the TCP arm's count includes what the
// client, the accept and the handler's goroutine cost.
func TestWarmIngestAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's build allocates on its own, and sync.Pool drops at random under it")
	}
	log, _ := sharedLog(t)
	var recs []*notary.Record
	if err := notary.ReadLog(bytes.NewReader(log), notary.SinkFunc(func(r *notary.Record) error {
		recs = append(recs, r.Clone())
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	const n = 32 * notary.DefaultBatchSize
	var stream bytes.Buffer
	bw := notary.NewBatchWriter(&stream, notary.DefaultBatchSize)
	for i := 0; i < n; i++ {
		if err := bw.Observe(recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(core.NewLiveStudy())
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(ln)
	// What is pinned is what a stream allocates with the server's pools warm.
	// A collection would empty them, and so, in effect, would a goroutine
	// moving to another P: a pool's newest item is private to the P that put
	// it back. So the collector is paused and the server runs on one P.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	inMemory := func() {
		if st, err := srv.ingest(bytes.NewReader(stream.Bytes())); err != nil || st.Records != n {
			t.Fatalf("ingested %d records, err %v; want %d", st.Records, err, n)
		}
	}
	overTCP := func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(stream.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		if reply, err := io.ReadAll(conn); err != nil || !strings.HasPrefix(string(reply), fmt.Sprintf("ok %d ", n)) {
			t.Fatalf("tcp reply %q, err %v; want %d records", reply, err, n)
		}
	}
	for _, arm := range []struct {
		name   string
		ingest func()
	}{{"in memory", inMemory}, {"over TCP", overTCP}} {
		arm.ingest()
		arm.ingest()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			arm.ingest()
		}
		runtime.ReadMemStats(&after)
		perRecord := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
		t.Logf("%s, a warm %d-record stream allocates %.2f bytes and %.3f times a record", arm.name, n, perRecord,
			float64(after.Mallocs-before.Mallocs)/runs/n)
		if perRecord > 3 {
			t.Errorf("%s, a warm %d-record stream allocates %.2f bytes a record, want at most 3", arm.name, n, perRecord)
		}
	}
}

// TestRecycledShardParity: the merge loop empties every stream shard it has
// merged and hands it to the next stream's builder, so a shard an observer
// kept, or a page an emptied shard kept, would show here. An edge study with
// an attached pusher and a union over it takes many streams — TSV and binary,
// concurrent over HTTP and one after the other over TCP — at several flush
// cadences; the edge serves /scalars and the query sweep byte for byte as an
// offline load does, the union and the core the pusher feeds serve the
// edge's bytes, and the edge's aggregate has no page with nothing present
// (its snapshot decodes to it, reflect.DeepEqual). Run under -race in CI.
func TestRecycledShardParity(t *testing.T) {
	base, _ := sharedLog(t)
	// The log's last records again, on a curve no other record names: the
	// shards they are built in go back with that curve's page, and the
	// shards built in them next, of other months, must not hand the study
	// an empty one.
	var recs []*notary.Record
	if err := notary.ReadLog(bytes.NewReader(base), notary.SinkFunc(func(r *notary.Record) error {
		recs = append(recs, r.Clone())
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	var rare bytes.Buffer
	lw := notary.NewLogWriter(&rare)
	for _, r := range recs[len(recs)-40:] {
		r.Curve = 0x0100
		if err := lw.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	log := append(append([]byte(nil), base...), rare.Bytes()...)
	chunks := append([][]byte{rare.Bytes()}, splitLog(base, 7)...)
	for _, every := range []int{1, 7, 61, 4096} {
		t.Run(fmt.Sprintf("every-%d", every), func(t *testing.T) {
			upstream := NewServer(core.NewLiveStudy())
			defer upstream.Close()
			upTS := httptest.NewServer(upstream.Handler())
			defer upTS.Close()
			p, err := federation.NewPusher(federation.PusherOptions{Source: "edge", Upstream: upTS.URL,
				Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			rt := NewRouter()
			edge := NewServer(core.NewLiveStudy(), withFlushEvery(every), WithQueueBound(len(recordsOf(t, log))), WithPusher(p))
			if err := rt.Add("edge", edge); err != nil {
				t.Fatal(err)
			}
			if err := rt.Union("all", NewServer(core.NewLiveStudy()), "edge"); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(rt.Handler())
			defer ts.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- edge.ServeTCP(ln) }()
			edgeURL := ts.URL + "/studies/edge"

			postTSV(t, edgeURL, chunks[0])
			concurrentStreams(t, edgeURL, chunks[1], chunks[2], chunks[3])
			flushUntilAcked(t, p)
			if r := <-postIngest(edgeURL, ContentTypeBatch, bytes.NewReader(transcodeBatch(t, chunks[4], 37))); r.status != http.StatusOK {
				t.Fatalf("binary ingest replied %+v", r)
			}
			for _, body := range [][]byte{chunks[5], transcodeBatch(t, chunks[6], 53), chunks[7]} {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(body); err != nil {
					t.Fatal(err)
				}
				conn.(*net.TCPConn).CloseWrite()
				reply, err := io.ReadAll(conn)
				conn.Close()
				if err != nil || !strings.HasPrefix(string(reply), "ok ") {
					t.Fatalf("tcp reply %q, err %v", reply, err)
				}
			}
			if err := rt.Close(); err != nil { // the pusher ships the rest
				t.Fatal(err)
			}
			if err := <-served; err != nil {
				t.Fatalf("ServeTCP: %v", err)
			}

			requireSameServed(t, edgeURL, serveLog(t, log), "an offline LoadLog")
			requireSameServed(t, ts.URL+"/studies/all", edgeURL, "the edge")
			requireSameServed(t, upTS.URL, edgeURL, "the edge")
			agg := edge.Study().Aggregate()
			back, err := notary.DecodeSnapshot(notary.EncodeSnapshot(nil, agg))
			if err != nil {
				t.Fatal(err)
			}
			back.SetClassifier(fingerprint.BuildDefault()) // what the study installed
			if !reflect.DeepEqual(back, agg) {
				t.Error("the edge's aggregate differs from its own snapshot, decoded: a table holds a page with nothing present")
			}
		})
	}
}
