package notary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tlsage/internal/registry"
)

// randomBatchRecord widens randomRecord to exercise every field the batch
// codec carries: curves, point formats, alerts, fallback, truth labels and
// cohorts all get populated some of the time.
func randomBatchRecord(rnd *rand.Rand, all []registry.Suite) *Record {
	r, h := randomParts(rnd, all)
	if rnd.Intn(3) == 0 {
		h.Curves = []registry.CurveID{registry.CurveSecp256r1, registry.CurveID(rnd.Intn(30))}
		h.PointFmts = []registry.ECPointFormat{0}
	}
	if !r.Established && rnd.Intn(2) == 0 {
		r.AlertDesc = uint8(rnd.Intn(120))
	}
	if rnd.Intn(5) == 0 {
		r.UsedFallback = true
	}
	if rnd.Intn(3) == 0 {
		h.Truth = fmt.Sprintf("profile-%d", rnd.Intn(6))
	}
	if rnd.Intn(3) == 0 {
		r.ServerCohort = fmt.Sprintf("cohort-%d", rnd.Intn(3))
	}
	return withHello(r, h)
}

func buildBatchRecords(seed int64, n int) []*Record {
	rnd := rand.New(rand.NewSource(seed))
	all := registry.AllSuites()
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = randomBatchRecord(rnd, all)
	}
	return recs
}

// collectSink clones every record it sees (ReadBatches reuses one buffer),
// after holding its row to the row's lists.
type collectSink struct{ recs []*Record }

func (c *collectSink) Observe(r *Record) error {
	if err := checkHandle(r); err != nil {
		return err
	}
	c.recs = append(c.recs, r.Clone())
	return nil
}
func (c *collectSink) Close() error { return nil }

// encodeBatch frames recs the way a feeder does — one BatchWriter sized to
// emit them as a single frame. No writer of ours emits a frame of zero
// records, but the decoder accepts one, so that frame is built by hand.
func encodeBatch(recs []*Record) []byte {
	if len(recs) == 0 {
		return reframe(BatchVersion, appendCount(nil, 0))
	}
	return encodeFrames(recs, len(recs))
}

// encodeFrames is a BatchWriter's stream of recs in frames of size records.
func encodeFrames(recs []*Record, size int) []byte {
	var buf bytes.Buffer
	bw := NewBatchWriter(&buf, size)
	for _, r := range recs {
		if err := bw.Observe(r); err != nil {
			panic(err)
		}
	}
	if err := bw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func nullSink() Sink { return SinkFunc(func(*Record) error { return nil }) }

// TestBatchWriterSplitsAtPayloadCap: the record count is not the only flush
// trigger. A writer whose batchSize would never fire (10,000,000 records)
// still cuts a frame before the packed bytes cross the envelope's payload
// cap, so it never streams a frame every reader would reject; a single
// record past the cap is refused with an error rather than written. The cap
// is shrunk from 64 MiB for the test's duration, for writer and reader alike,
// so the stream stays small and ReadBatches accepting it means every frame
// fits.
func TestBatchWriterSplitsAtPayloadCap(t *testing.T) {
	defer func(real uint64) { batchFormat.MaxPayload = real }(batchFormat.MaxPayload)
	batchFormat.MaxPayload = 4096
	recs := buildBatchRecords(41, 600)
	var buf bytes.Buffer
	bw := NewBatchWriter(&buf, 10_000_000)
	for _, r := range recs {
		if err := bw.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	var got collectSink
	frames, records, err := ReadBatches(&buf, &got)
	if err != nil || records != uint64(len(recs)) {
		t.Fatalf("ReadBatches: %d frames / %d records of %d, err %v", frames, records, len(recs), err)
	}
	if frames < 2 {
		t.Fatalf("writer emitted %d frames for %d records (%d bytes); want the cap to split them",
			frames, len(recs), size)
	}
	// Frames are cut at the cap, not well short of it: at most one record's
	// worth of room is wasted per frame, so they are more than half full.
	if most := 2*size/int(batchFormat.MaxPayload) + 1; int(frames) > most {
		t.Fatalf("%d bytes went out in %d frames, want at most %d", size, frames, most)
	}
	requireSameRecords(t, "a cap split", got.recs, recs)
	// A write that fails at the cap's split is Observe's error.
	pr, pw := io.Pipe()
	pr.CloseWithError(io.ErrShortWrite)
	bw = NewBatchWriter(pw, 10_000_000)
	for err = nil; err == nil; err = bw.Observe(recs[0]) {
	}
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("a failing writer: err %v", err)
	}

	// One record alone past the cap cannot be framed: the envelope refuses
	// it when the frame is flushed, and nothing is written.
	huge := editHello(recs[0].Clone(), func(h *Hello) { h.Fingerprint = strings.Repeat("f", int(batchFormat.MaxPayload)) })
	buf.Reset()
	bw = NewBatchWriter(&buf, 10_000_000)
	err = bw.Observe(huge)
	if err == nil {
		err = bw.Close()
	}
	if err == nil || buf.Len() != 0 {
		t.Fatalf("oversize record: err %v with %d bytes written, want a refusal", err, buf.Len())
	}
}

// TestBatchWriterAllocsAreSteadyState: a writer's dictionaries outlive its
// frames, so once they hold the stream's hellos and cohorts a record costs no
// allocation, whether it defines an entry of its frame or names one — on rows
// a HelloTable made as on a decoder's, either way found by the row.
func TestBatchWriterAllocsAreSteadyState(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's build allocates once per frame inside the envelope")
	}
	built := benchIngestRecordSet()
	for name, recs := range map[string][]*Record{"built": built, "decoded": onRows(t, newDecodeTables(), built)} {
		bw := NewBatchWriter(io.Discard, 64)
		write := func() {
			for _, r := range recs {
				if err := bw.Observe(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		write() // 78 frames: the buffers reach their size, the dictionaries fill
		if got := testing.AllocsPerRun(5, write); got != 0 {
			t.Errorf("%s: a warm writer allocates %v times per %d records, want 0", name, got, len(recs))
		}
		if usedRows(bw) == 0 {
			t.Errorf("%s: vacuous: the writer remembers no row", name)
		}
	}
}

// onRows returns recs as a decoder hands them to a sink — each on the hello
// row of tab it was decoded through — by way of a frame stream.
func onRows(t *testing.T, tab *decodeTables, recs []*Record) []*Record {
	t.Helper()
	var out []*Record
	_, _, err := readBatches(bytes.NewReader(encodeFrames(recs, DefaultBatchSize)), SinkFunc(func(r *Record) error {
		out = append(out, r.Clone())
		return nil
	}), tab)
	if err != nil || len(out) != len(recs) {
		t.Fatalf("%d of %d records, err %v", len(out), len(recs), err)
	}
	return out
}

// usedRows counts the entries of a writer's row memo that name a row.
func usedRows(bw *BatchWriter) int {
	n := 0
	for _, e := range bw.rows {
		if e.row != nil {
			n++
		}
	}
	return n
}

// rowCopy returns a copy of r on a copy of its row: the same hello, on a row
// no other record has, so a writer can find it by content only.
func rowCopy(r *Record) *Record {
	row := *r.row()
	cp := r.Clone()
	cp.hello = &row
	return cp
}

// The writer's row memo is a shortcut to the content-keyed dictionary, never a
// second opinion: a stream of records on shared rows is framed byte for byte
// as the stream of their row copies (rowCopy) is — across frames, across a
// dictionary filled past its cap and emptied, when the dictionary is emptied
// under rows the memo still holds (a record's second appearance then shares
// its frame with a row copy, and must share its definition), and for rows of
// two tables whose ordinals collide, so each takes the other's memo slot.
func TestRowKeyedWriterMatchesContentKeyed(t *testing.T) {
	// Spans of ≈ 3 KiB fill the dictionary's byte bound with some 700 of
	// them, long before the memo's row bound.
	wide := distinctHellos(900)
	for _, r := range wide {
		editHello(r, func(h *Hello) {
			for len(h.Suites) < 1400 {
				h.Suites = append(h.Suites, uint16(0x1000+len(h.Suites)))
			}
		})
	}
	wide = onRows(t, newDecodeTables(), wide)
	emptied := wide
	for _, r := range wide[:50] {
		emptied = append(emptied, r, rowCopy(r))
	}
	hellos := distinctHellos(400)
	mine, theirs := onRows(t, newDecodeTables(), hellos[:200]), onRows(t, newDecodeTables(), hellos[200:])
	var colliding []*Record
	for i := range mine {
		if mine[i].hello.slot() != theirs[i].hello.slot() {
			t.Fatalf("vacuous: rows %d of the two tables have slots %d and %d", i, mine[i].hello.slot(), theirs[i].hello.slot())
		}
		colliding = append(colliding, mine[i], theirs[i], mine[i])
	}
	for name, c := range map[string]struct {
		recs []*Record
		size int
	}{
		"benchmark-shaped":                  {onRows(t, newDecodeTables(), benchIngestRecordSet()), 64},
		"past the dictionary's cap":         {onRows(t, newDecodeTables(), append(distinctHellos(maxHelloRows+300), distinctHellos(500)...)), 700},
		"one frame past its cap":            {onRows(t, newDecodeTables(), distinctHellos(maxHelloRows+50)), maxHelloRows + 50},
		"the dictionary emptied under rows": {emptied, 2000},
		"rows whose ordinals collide":       {colliding, 90},
	} {
		var byRow, byContent bytes.Buffer
		rw, cw := NewBatchWriter(&byRow, c.size), NewBatchWriter(&byContent, c.size)
		remembered := 0
		for _, r := range c.recs {
			if err := errors.Join(rw.Observe(r), cw.Observe(rowCopy(r))); err != nil {
				t.Fatal(err)
			}
			remembered = max(remembered, usedRows(rw))
		}
		if err := errors.Join(rw.Close(), cw.Close()); err != nil {
			t.Fatal(err)
		}
		if remembered == 0 {
			t.Fatalf("%s: vacuous: the row-keyed writer remembered no row", name)
		}
		if name == "the dictionary emptied under rows" && (rw.hellos.emptied == 0 || remembered >= maxHelloRows) {
			t.Fatalf("%s: vacuous: the dictionary was emptied %d times, the memo reached %d rows", name, rw.hellos.emptied, remembered)
		}
		if !bytes.Equal(byRow.Bytes(), byContent.Bytes()) {
			t.Errorf("%s: the row-keyed writer's %d bytes differ from the content-keyed writer's %d", name, byRow.Len(), byContent.Len())
		}
	}
}

// reframe wraps payload in a valid header of the given version and a CRC
// trailer, so tests can exercise payload-level rejections that checksum
// verification would otherwise mask, and spell the frames of older writers.
func reframe(version byte, payload []byte) []byte {
	f := batchFormat
	f.Version = version
	dst, mark := f.Begin(nil)
	dst, err := f.End(append(dst, payload...), mark)
	if err != nil {
		panic(err)
	}
	return dst
}

// TestBatchRejectsMalformedPayloads: every "malformed" seed of tlsbSeeds, a
// frame whose checksum holds and whose payload does not, is refused. One
// grammar per version: a record reads under its own version's stamp, and
// neither spelling reads under the other's.
func TestBatchRejectsMalformedPayloads(t *testing.T) {
	for name, data := range tlsbSeeds() {
		if strings.HasPrefix(name, "malformed") {
			t.Run(name, func(t *testing.T) {
				if _, _, err := ReadBatches(bytes.NewReader(data), nullSink()); err == nil {
					t.Error("read without error")
				}
			})
		}
	}
	one := buildBatchRecords(11, 1)[0]
	rec, rec3 := appendRecordBinary(nil, one), appendRecordV3(nil, one, binary.AppendUvarint, 1, true, 1, true)
	for version, spelled := range map[byte][]byte{2: rec, 3: rec3} {
		for stamp := byte(2); stamp <= 3; stamp++ {
			_, n, err := ReadBatches(bytes.NewReader(reframe(stamp, append(appendCount(nil, 1), spelled...))), nullSink())
			if (stamp == version) != (err == nil && n == 1) {
				t.Errorf("a version-%d record under a version-%d stamp: %d records, err %v", version, stamp, n, err)
			}
		}
	}
}

// TestBatchErrorsAreBatchErrors pins the error taxonomy the service depends
// on: malformed frames surface as *BatchError (mapped to 4xx), sink errors
// pass through untouched (mapped to 5xx).
func TestBatchErrorsAreBatchErrors(t *testing.T) {
	enc := encodeBatch(buildBatchRecords(31, 10))
	mut := append([]byte(nil), enc...)
	mut[len(mut)-1] ^= 1
	var be *BatchError
	_, _, err := ReadBatches(bytes.NewReader(mut), nullSink())
	if !errors.As(err, &be) || be.Frame != 0 {
		t.Fatalf("corrupt frame error = %v, want *BatchError frame 0", err)
	}

	sinkErr := fmt.Errorf("sink exploded")
	_, _, err = ReadBatches(bytes.NewReader(enc), SinkFunc(func(*Record) error { return sinkErr }))
	if err != sinkErr {
		t.Fatalf("sink error = %v, want passthrough", err)
	}
}

// FuzzReadBatches asserts the decoder is panic-free on arbitrary bytes, that
// it agrees with the reference decoder on them (diffReadBatches), and that
// whatever it accepts re-encodes and re-decodes to the same records
// (decode∘encode retraction).
func FuzzReadBatches(f *testing.F) {
	f.Add(encodeBatch(buildBatchRecords(1, 3)))
	f.Add(append(encodeBatch(buildBatchRecords(2, 20)), encodeBatch(buildBatchRecords(3, 4))...))
	for _, data := range tlsbSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffReadBatches(t, data)
		var got collectSink
		if _, _, err := ReadBatches(bytes.NewReader(data), &got); err != nil {
			return
		}
		re := encodeBatch(got.recs)
		var again collectSink
		if _, _, err := ReadBatches(bytes.NewReader(re), &again); err != nil {
			t.Fatalf("re-encoded accepted stream failed to decode: %v", err)
		}
		if len(again.recs) != len(got.recs) {
			t.Fatalf("re-decode yielded %d records, want %d", len(again.recs), len(got.recs))
		}
		for i := range got.recs {
			if !sameRecord(t, got.recs[i], again.recs[i]) {
				t.Fatalf("record %d changed across re-encode", i)
			}
		}
	})
}

// --- ingest framing benchmarks ---
//
// BenchmarkIngestTSV vs BenchmarkIngestBinary compare the two wire framings
// end to end (serialized bytes → Sink), reporting records/s and
// allocs/record so the CI benchstat diff tracks the ratio. The sink is a
// trivial counter: the point is the framing cost, not aggregation.

func benchSink(n *int) Sink {
	return SinkFunc(func(*Record) error { *n++; return nil })
}

const benchIngestRecords = 5000

// benchIngestRecordSet models real traffic: a bounded population of distinct
// client configurations (so fingerprints, truth labels and cohorts repeat,
// as the paper's fingerprint analysis depends on) emitting many records.
func benchIngestRecordSet() []*Record {
	base := buildBatchRecords(77, 200)
	rnd := rand.New(rand.NewSource(7))
	recs := make([]*Record, benchIngestRecords)
	for i := range recs {
		r := base[rnd.Intn(len(base))].Clone()
		r.Date.Day = 1 + rnd.Intn(28)
		recs[i] = r
	}
	return recs
}

func BenchmarkIngestTSV(b *testing.B) {
	recs := benchIngestRecordSet()
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	for _, r := range recs {
		if err := lw.Observe(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		b.Fatal(err)
	}
	benchIngest(b, buf.Bytes(), func(r *bytes.Reader, sink Sink) error {
		return ReadLog(r, sink)
	})
}

func BenchmarkIngestBinary(b *testing.B) {
	recs := benchIngestRecordSet()
	var buf bytes.Buffer
	bw := NewBatchWriter(&buf, DefaultBatchSize)
	for _, r := range recs {
		if err := bw.Observe(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		b.Fatal(err)
	}
	benchIngest(b, buf.Bytes(), func(r *bytes.Reader, sink Sink) error {
		_, _, err := ReadBatches(r, sink)
		return err
	})
}

func benchIngest(b *testing.B, data []byte, read func(*bytes.Reader, Sink) error) {
	seen := 0
	sink := benchSink(&seen)
	rd := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		if err := read(rd, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if seen != b.N*benchIngestRecords {
		b.Fatalf("sink saw %d records, want %d", seen, b.N*benchIngestRecords)
	}
	total := float64(b.N * benchIngestRecords)
	b.ReportMetric(total/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/total, "allocs/record")
}
