package notary

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Tests of the record log as a sequence of entries (log.go): lines, frames and
// directives in one file, read by the one reader recovery, feed -in and loadlog
// share.

// mixedLog is a log a build before the frame tee started and this one
// continued: the first k records as lines, a #base directive restating the
// generation, the rest as frames of size records.
func mixedLog(recs []*Record, k, size int) []byte {
	log := append(tsvLog(recs[:k]), LogBaseDirective(uint64(k))...)
	return append(log, encodeFrames(recs[k:], size)...)
}

// logSeeds are logs that hold frames: whole, cut, corrupt, and next to lines
// every way round. TestDecodersMatchReference and FuzzReadLog run them beside
// tsvSeeds.
func logSeeds() map[string][]byte {
	recs := buildBatchRecords(19, 25)
	tsv := tsvLog(recs[:9])
	frames := encodeFrames(recs[9:], 7) // 7 + 7 + 2 records
	one := encodeFrames(recs[:3], 3)
	line := string(sampleRecord().AppendTSV(nil))
	cat := func(parts ...any) []byte {
		var b []byte
		for _, p := range parts {
			switch p := p.(type) {
			case []byte:
				b = append(b, p...)
			case string:
				b = append(b, p...)
			}
		}
		return b
	}
	edit := func(frame []byte, at int, to byte) []byte {
		f := bytes.Clone(frame)
		if at < 0 {
			at += len(f)
		}
		f[at] = to
		return f
	}
	cutRecord := appendRecordBinary(appendCount(nil, 2), recs[0])
	return map[string][]byte{
		"frames":                              frames,
		"base, frames":                        cat(LogBaseDirective(9), frames),
		"lines, base, frames":                 mixedLog(recs, 9, 7),
		"lines, frames":                       cat(tsv, frames),
		"frames, lines":                       cat(frames, tsvLog(recs[:4])),
		"lines, frame, lines, frame":          cat(tsv, one, line, "# c\n", one),
		"an unterminated line meets a frame":  cat(bytes.TrimSuffix(tsv, []byte("\n")), frames),
		"a blank line between frames":         cat(one, "\n", one),
		"a crlf line before a frame":          cat(strings.TrimSuffix(line, "\n"), "\r\n", one),
		"a version-2 frame":                   cat(tsv, encodeBatchV2(recs[:3]), one),
		"an empty frame":                      cat(reframe(BatchVersion, appendCount(nil, 0)), line),
		"a frame cut inside its magic":        cat(tsv, one[:3]),
		"a frame cut after its magic":         cat(tsv, one[:4]),
		"a frame cut inside its header":       cat(one, one[:8]),
		"a frame cut inside its payload":      frames[:len(frames)-10],
		"a frame cut inside its checksum":     cat(line, one[:len(one)-1]),
		"a frame failing its checksum":        cat(one, edit(one, -1, one[len(one)-1]^1), one),
		"a frame with a flipped payload bit":  cat(one, edit(one, 20, one[20]^4)),
		"a frame of a newer version":          cat(one, edit(one, 4, BatchVersion+1)),
		"a line that starts with the magic":   cat(line, "TLSB and then text\n", line),
		"the magic alone":                     []byte("TLSB"),
		"a cohort that is the magic":          cat(strings.TrimSuffix(line, "modern-ecdhe\n"), "TLSB\n", one),
		"a frame that does not decode":        cat(tsv, one, reframe(BatchVersion, cutRecord), one),
		"a frame with trailing bytes":         cat(one, reframe(BatchVersion, append(appendRecordV3(appendCount(nil, 1), recs[0], appendUvarint, 0, true, 0, true), 7))),
		"a base directive rewinding a frame":  cat(frames, LogBaseDirective(1), line),
		"a base directive past the frames":    cat(frames, LogBaseDirective(100), line),
		"a base directive between two frames": cat(one, LogBaseDirective(3), one),
	}
}

// seedRecords are the record streams the kinds of log are compared on: the
// benchmark-shaped stream; the sample record, a record of empty fields, fifty
// sample records on random dates and suites, and twelve months of one
// fingerprint each; and what the reference decoders deliver of every
// differential seed, TLSB and TSV, before it fails.
func seedRecords(t *testing.T) map[string][]*Record {
	t.Helper()
	empty := withHello(&Record{Date: timeline.D(2012, time.February, 1), ClientVersion: registry.VersionTLS10, AlertDesc: 40},
		Hello{Suites: []uint16{0x002F}})
	rnd := rand.New(rand.NewSource(20))
	var dated, months []*Record
	for i := 0; i < 50; i++ {
		r := sampleRecord()
		r.Date = timeline.D(2014+rnd.Intn(4), time.Month(1+rnd.Intn(12)), 1+rnd.Intn(28))
		r.Suite = []uint16{0xC02F, 0x0005, 0x002F}[rnd.Intn(3)]
		dated = append(dated, r)
	}
	for m := time.January; m <= time.December; m++ {
		r := editHello(sampleRecord(), func(h *Hello) { h.Fingerprint = fmt.Sprintf("fp-%d", m) })
		r.Date = timeline.D(2016, m, 1+int(m))
		months = append(months, r)
	}
	streams := map[string][]*Record{
		"benchmark-shaped": benchIngestRecordSet(),
		"tsv round trip":   {sampleRecord()},
		"empty fields":     {empty},
		"log writer":       dated,
		"end-to-end dates": months,
	}
	for name, data := range tlsbSeeds() {
		var got collectSink
		_, _, _ = refReadBatches(bytes.NewReader(data), &got, current)
		streams["tlsb/"+name] = got.recs
	}
	for name, data := range tsvSeeds() {
		var got collectSink
		_, _, _ = refReadLogTail(bytes.NewReader(data), 0, &got, current)
		streams["tsv/"+name] = got.recs
	}
	return streams
}

// A stream of records written as a TSV log, as a frame log and as a TSV log
// continued as frames folds to one aggregate: through ReadLog, through
// ReadLogTail for skips on, before and inside a frame — which must equal
// adding the records past the skip — and through ReadLogParallel. Serial
// results are held to reflect.DeepEqual; two and eight workers merge shards,
// whose position sums add in another order, so aggregatesEqual gives those
// sums their 1e-9 and holds the rest to DeepEqual — on the streams Merge is
// partition-free for: a seed that puts one fingerprint string over two cipher
// lists (no hash does) has its capability classes depend on which shard saw
// which first, in a TSV log as much as here.
func TestLogKindsFoldAlike(t *testing.T) {
	for name, recs := range seedRecords(t) {
		t.Run(name, func(t *testing.T) {
			size := 4
			if len(recs) > 1000 {
				size = DefaultBatchSize
			}
			k := len(recs) / 3
			logs := map[string][]byte{
				"tsv":    tsvLog(recs),
				"frames": encodeFrames(recs, size),
				"mixed":  mixedLog(recs, k, size),
			}
			added := func(from int) *Aggregate {
				agg := classified()
				for _, r := range recs[min(from, len(recs)):] {
					agg.Add(r)
				}
				return agg
			}
			want := added(0)
			lists := map[string]string{}
			partitionFree := true
			for _, r := range recs {
				l := string(appendCodeList(nil, r.Suites()))
				if seen, ok := lists[r.Fingerprint()]; ok && seen != l {
					partitionFree = false
				}
				lists[r.Fingerprint()] = l
			}
			// The first frame of the mixed log starts at record k; skips are
			// chosen around it and around the frame log's second frame.
			skips := []int{0, 1, size - 1, size, size + 1, 2*size - 1, 2 * size, k - 1, k, k + 1, k + size, k + size + 1, len(recs) - 1, len(recs), len(recs) + 3}
			for kind, log := range logs {
				var got collectSink
				agg := classified()
				if err := ReadLog(bytes.NewReader(log), Tee(&got, agg)); err != nil {
					t.Fatalf("%s: ReadLog: %v", kind, err)
				}
				requireSameRecords(t, kind+": ReadLog", got.recs, recs)
				requireSameAggregate(t, kind+": ReadLog", agg, want)
				for _, skip := range skips {
					if skip < 0 || len(recs) > 1000 && skip > 3*size {
						continue
					}
					agg := classified()
					n, _, err := ReadLogTail(bytes.NewReader(log), uint64(skip), agg)
					if wantN := max(len(recs)-skip, 0); err != nil || n != uint64(wantN) {
						t.Fatalf("%s: ReadLogTail(%d) delivered %d records, err %v; want %d", kind, skip, n, err, wantN)
					}
					requireSameAggregate(t, fmt.Sprintf("%s: ReadLogTail(%d)", kind, skip), agg, added(skip))
				}
				for _, workers := range []int{0, 1, 2, 8} { // 0: ReadLogParallel's GOMAXPROCS
					for _, chunk := range []int{defaultChunkSize, 257} {
						if chunk == 257 && (len(recs) > 1000 || workers == 0) {
							continue
						}
						read := func(r io.Reader, workers int, cls Classifier) (*Aggregate, error) {
							return readLogParallel(r, workers, chunk, cls)
						}
						if workers == 0 {
							read = ReadLogParallel
						}
						agg, err := read(bytes.NewReader(log), workers, testClassifier{mark: "f"})
						if err != nil {
							t.Fatalf("%s: ReadLogParallel(%d workers, %d-byte chunks): %v", kind, workers, chunk, err)
						}
						if workers == 1 {
							requireSameAggregate(t, kind+": ReadLogParallel(1)", agg, want)
						} else if partitionFree {
							aggregatesEqual(t, added(0), agg)
						}
					}
				}
			}
		})
	}
}

// Recovery does not decode what it discards: a frame that lies wholly at or
// below the skip is held to its envelope and counted from its leading record
// count, so even one whose payload no decoder takes costs nothing and fails
// nothing; a frame the skip ends inside is decoded whole and delivers its tail.
func TestReadLogTailCountsTheFramesItSkips(t *testing.T) {
	recs := buildBatchRecords(23, 12)
	// Five records promised, a payload that is not records: its checksum is
	// good, so only decoding it can tell.
	junk := reframe(BatchVersion, append(appendCount(nil, 5), bytes.Repeat([]byte{0xff}, 5*minRecordEncodedLen[BatchVersion])...))
	log := append(append(encodeFrames(recs[:4], 4), junk...), encodeFrames(recs[4:], 4)...)

	for skip := uint64(0); skip < 9; skip++ {
		_, _, err := ReadLogTail(bytes.NewReader(log), skip, nullSink())
		var be *BatchError
		if !errors.As(err, &be) || be.Frame != 1 {
			t.Fatalf("skip %d reaches into the junk frame, which must be decoded and refused; err %v", skip, err)
		}
	}
	for skip := uint64(9); skip <= 19; skip++ {
		var got collectSink
		n, _, err := ReadLogTail(bytes.NewReader(log), skip, &got)
		if want := 17 - min(skip, 17); err != nil || n != want {
			t.Fatalf("skip %d: %d records, err %v; want %d", skip, n, err, want)
		}
		requireSameRecords(t, fmt.Sprintf("skip %d", skip), got.recs, recs[min(int(skip)-5, len(recs)):])
	}
	// A count the payload cannot hold is not believed, skipped or not.
	lying := reframe(BatchVersion, appendCount(nil, 1000))
	if _, _, err := ReadLogTail(bytes.NewReader(lying), 5000, nullSink()); err == nil {
		t.Fatal("a frame claiming 1000 records in one byte was counted")
	}
}

// LogEntryOffset finds an entry's first byte the way the reader numbers
// entries: comments, blank lines and frames all count.
func TestLogEntryOffset(t *testing.T) {
	recs := buildBatchRecords(31, 6)
	header := Header()
	line := string(recs[0].AppendTSV(nil))
	frame := encodeFrames(recs[1:4], 3)
	log := []byte(header + line + "\n" + LogBaseDirective(1))
	log = append(append(append(log, frame...), line...), frame...)
	entry := strings.Count(header, "\n") + 1 // the record line
	at := len(header)
	for _, step := range []int{len(line), 1, len(LogBaseDirective(1)), len(frame), len(line), len(frame)} {
		off, err := LogEntryOffset(bytes.NewReader(log), entry)
		if err != nil || off != int64(at) {
			t.Fatalf("entry %d starts at %d, err %v; want %d", entry, off, err, at)
		}
		entry, at = entry+1, at+step
	}
	if off, err := LogEntryOffset(bytes.NewReader(log), entry); err != nil || off != int64(len(log)) {
		t.Fatalf("the entry after the last starts at %d, err %v; want the log's length %d", off, err, len(log))
	}
	if _, err := LogEntryOffset(bytes.NewReader(log), entry+1); err == nil {
		t.Fatal("an entry past the log's end has an offset")
	}
	if _, err := LogEntryOffset(bytes.NewReader(log), 0); err == nil {
		t.Fatal("entry 0 has an offset: entries are numbered from 1")
	}
	if _, err := LogEntryOffset(bytes.NewReader(log[:len(log)-2]), entry); err == nil {
		t.Fatal("an entry after a cut frame has an offset")
	}
}

// The log reader's buffers are the pooled tables', frames included: a second
// log through warm tables allocates neither the window nor the frame body.
// (The TLSB table comes from the pool at the first frame, so the collector is
// held off for the measurement, and the test runs on one P: a pool's newest
// item is private to the P that put it back, and the table another P holds is
// not this log's.)
func TestLogReaderBuffersArePooled(t *testing.T) {
	if raceDetector {
		t.Skip("under the race detector a sync.Pool drops what it is given at random, and the frames' table is the pool's")
	}
	recs := buildBatchRecords(61, 512)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, log := range map[string][]byte{"frames": encodeFrames(recs, 64), "mixed": mixedLog(recs, 200, 64)} {
		tab, rd := newDecodeTables(), bytes.NewReader(nil)
		run := func() uint64 {
			rd.Reset(log)
			n, _, err := readLogTail(rd, 0, nullSink(), tab)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		if n := run(); n != uint64(len(recs)) {
			t.Fatalf("%s: %d records", name, n)
		}
		if got := testing.AllocsPerRun(20, func() { run() }); got > 8 {
			t.Errorf("%s: a log through warm tables costs %v allocations, want at most 8: a buffer is not the tables'", name, got)
		}
	}
}
