package notary

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// buildAggregate ingests n pseudo-random records, reusing the merge tests'
// record generator so snapshots cover every counter family the study tracks.
func buildAggregate(seed int64, n int) *Aggregate {
	rnd := rand.New(rand.NewSource(seed))
	all := registry.AllSuites()
	agg := NewAggregate()
	for i := 0; i < n; i++ {
		agg.Add(randomRecord(rnd, all))
	}
	return agg
}

// TestSnapshotRoundTrip is the codec's core property: decode(encode(a)) is
// deep-equal to a — every month counter, every map, every fingerprint
// lifetime, the generation — across seeds and sizes including empty.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500, 5000} {
		for seed := int64(1); seed <= 3; seed++ {
			agg := buildAggregate(seed, n)
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, agg); err != nil {
				t.Fatalf("n=%d seed=%d: WriteSnapshot: %v", n, seed, err)
			}
			got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("n=%d seed=%d: ReadSnapshot: %v", n, seed, err)
			}
			if !reflect.DeepEqual(got, agg) {
				t.Fatalf("n=%d seed=%d: round-tripped aggregate differs from original", n, seed)
			}
			if got.TotalRecords() != agg.TotalRecords() {
				t.Fatalf("n=%d seed=%d: records %d, want %d", n, seed, got.TotalRecords(), agg.TotalRecords())
			}
		}
	}
}

// TestSnapshotDeterministic pins the deterministic-encoding contract: equal
// content encodes to equal bytes, whichever order the content was built in.
func TestSnapshotDeterministic(t *testing.T) {
	agg := buildAggregate(42, 300)
	a := EncodeSnapshot(nil, agg)
	b := EncodeSnapshot(nil, agg)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same aggregate differ")
	}
	// Round-trip once more: re-encoding the decoded copy must reproduce the
	// original bytes (decoded maps iterate in a different order; sorting in
	// the encoder must hide that).
	dec, err := DecodeSnapshot(a)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if c := EncodeSnapshot(nil, dec); !bytes.Equal(a, c) {
		t.Fatal("re-encoding the decoded aggregate changed the bytes")
	}
}

// TestSnapshotTruncation sweeps every prefix length of a valid frame: all
// must fail cleanly (no panic, no false accept of a short frame).
func TestSnapshotTruncation(t *testing.T) {
	enc := EncodeSnapshot(nil, buildAggregate(7, 40))
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeSnapshot(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(enc))
		}
	}
	if _, err := DecodeSnapshot(enc); err != nil {
		t.Fatalf("full frame failed to decode: %v", err)
	}
}

// TestSnapshotCorruption flips one byte at every offset of a valid frame.
// Corruption anywhere in the checksummed payload (or the frame header, or
// the CRC itself) must fail decoding; nothing may panic.
func TestSnapshotCorruption(t *testing.T) {
	enc := EncodeSnapshot(nil, buildAggregate(11, 60))
	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x5a
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("byte %d corrupted, decode still succeeded", off)
		}
	}
}

// TestSnapshotTrailingBytes: DecodeSnapshot rejects anything after the
// frame, so a snapshot file with appended garbage is treated as corrupt
// rather than silently half-read.
func TestSnapshotTrailingBytes(t *testing.T) {
	enc := EncodeSnapshot(nil, buildAggregate(3, 10))
	if _, err := DecodeSnapshot(append(enc, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestSnapshotVersionAndMagic: foreign files and future versions are
// rejected up front, not misparsed.
func TestSnapshotVersionAndMagic(t *testing.T) {
	enc := EncodeSnapshot(nil, buildAggregate(5, 10))
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[4] = SnapshotVersion + 1
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("future version accepted")
	}
}

// poisonedAggregate holds one month whose AEAD position accumulators are set
// by hand — the encoder writes whatever it is given, so this is how a hostile
// or buggy peer's CRC-valid frame is built.
func poisonedAggregate(sum float64, count int) *Aggregate {
	agg := NewAggregate()
	agg.UpdateMonth(timeline.M(2016, time.May), 3, func(ms *MonthStats) {
		ms.N[Total] = 3
		ms.Pos[PosAEAD].Sum, ms.Pos[PosAEAD].Count = sum, count
	})
	return agg
}

// TestDecodeRefusesImpossiblePositions: Add sums terms idx/(n-1) <= 1 and
// counts each, so a position entry that is non-finite, negative, above its
// count, of an unknown class or without a count cannot come from Add and
// Merge. A NaN that got in would survive every merge, blank /figures and be
// written into the receiver's own snapshots.
func TestDecodeRefusesImpossiblePositions(t *testing.T) {
	if _, err := DecodeSnapshot(EncodeSnapshot(nil, poisonedAggregate(1.5, 2))); err != nil {
		t.Fatalf("a sum below its count must decode: %v", err)
	}
	for _, tc := range []struct {
		name  string
		sum   float64
		count int
	}{
		{"NaN", math.NaN(), 2},
		{"+Inf", math.Inf(1), 2},
		{"-Inf", math.Inf(-1), 2},
		{"negative", -0.25, 2},
		{"above count", 2.5, 2},
	} {
		if _, err := DecodeSnapshot(EncodeSnapshot(nil, poisonedAggregate(tc.sum, tc.count))); err == nil {
			t.Errorf("%s position sum decoded without error", tc.name)
		}
	}

	// Class-table damage needs payload surgery: the two tables name the
	// class once each, sums first.
	payload := AppendAggregatePayload(nil, poisonedAggregate(1.5, 2))
	name := []byte("\x04AEAD")
	if bytes.Count(payload, name) != 2 {
		t.Fatalf("payload names the class %d times, want 2", bytes.Count(payload, name))
	}
	if _, err := DecodeAggregatePayload(payload, SnapshotVersion); err != nil {
		t.Fatalf("unmodified payload: %v", err)
	}
	unknown := bytes.Replace(payload, name, []byte("\x04AEAX"), 1)
	if _, err := DecodeAggregatePayload(unknown, SnapshotVersion); err == nil {
		t.Error("unknown position class decoded without error")
	}
	// Drop the count table's one entry (name + varint 2) and zero its length.
	at := bytes.LastIndex(payload, name)
	noCount := append([]byte(nil), payload[:at-1]...)
	noCount = append(noCount, 0)
	noCount = append(noCount, payload[at+len(name)+1:]...)
	if _, err := DecodeAggregatePayload(noCount, SnapshotVersion); err == nil {
		t.Error("position sum without a count decoded without error")
	}
}

// TestDecodeRefusesImpossibleFingerprintRows: the frame ranks the fp: family
// from the lifetime rows and derives fp:other from the month rows, so neither
// may carry what Add and Merge cannot build. A month's table naming one
// fingerprint twice cannot come from an encoder (it writes a map's sorted
// keys) and must not let the later row replace the earlier; a lifetime volume
// past int64 would turn negative and shrink under Merge.
func TestDecodeRefusesImpossibleFingerprintRows(t *testing.T) {
	agg := NewAggregate()
	for _, fp := range []string{"fp-a", "fp-b"} {
		agg.Add(withHello(&Record{Date: timeline.D(2016, time.May, 9)}, Hello{Fingerprint: fp}))
	}
	payload := AppendAggregatePayload(nil, agg)
	if _, err := DecodeAggregatePayload(payload, SnapshotVersion); err != nil {
		t.Fatalf("unmodified payload: %v", err)
	}
	// The month's row table names each fingerprint first; its volume table
	// and the lifetime rows follow.
	name := []byte("\x04fp-b")
	if bytes.Count(payload, name) != 3 {
		t.Fatalf("payload names the fingerprint %d times, want 3", bytes.Count(payload, name))
	}
	repeated := bytes.Replace(payload, name, []byte("\x04fp-a"), 1)
	if _, err := DecodeAggregatePayload(repeated, SnapshotVersion); err == nil || !strings.Contains(err.Error(), "duplicate fingerprint") {
		t.Errorf("repeated fingerprint row: err = %v, want a duplicate-fingerprint refusal", err)
	}
	// The payload ends with the last lifetime row's volume, the one byte 1.
	huge := binary.AppendUvarint(payload[:len(payload)-1:len(payload)-1], 1<<63)
	if _, err := DecodeAggregatePayload(huge, SnapshotVersion); err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Errorf("lifetime volume 1<<63: err = %v, want an implausible-count refusal", err)
	}
}

// TestPosClassOrderIsSortedNameOrder: the encoder writes the position tables
// by walking the enum and relies on that being the sorted-key order the
// format has always had.
func TestPosClassOrderIsSortedNameOrder(t *testing.T) {
	var names []string
	for c := PosClass(0); c < NumPosClasses; c++ {
		if got, ok := ParsePosClass(c.String()); !ok || got != c {
			t.Errorf("ParsePosClass(%q) = %v, %v", c.String(), got, ok)
		}
		names = append(names, c.String())
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("PosClass names %q are not in sorted order", names)
	}
	if _, ok := ParsePosClass("Stream"); ok {
		t.Error("ParsePosClass accepted a class Figure 5 does not track")
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to the decoder: it must never
// panic, and anything it accepts must re-encode to a frame that decodes to
// the same aggregate (decode∘encode is a retraction).
func FuzzReadSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotFormat.Magic))
	f.Add(EncodeSnapshot(nil, NewAggregate()))
	f.Add(EncodeSnapshot(nil, buildAggregate(1, 5)))
	f.Add(EncodeSnapshot(nil, buildAggregate(2, 100)))
	f.Add(EncodeSnapshot(nil, poisonedAggregate(math.NaN(), 2)))
	f.Add(EncodeSnapshot(nil, poisonedAggregate(2.5, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		re := EncodeSnapshot(nil, a)
		b, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded accepted snapshot failed to decode: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("decode(encode(decode(data))) != decode(data)")
		}
	})
}

func BenchmarkSnapshotEncode(b *testing.B) {
	agg := buildAggregate(1, 20000)
	buf := EncodeSnapshot(nil, agg)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = EncodeSnapshot(buf[:0], agg)
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	enc := EncodeSnapshot(nil, buildAggregate(1, 20000))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSnapshot(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteSnapshotAllocsAreSteadyState: a warm WriteSnapshot encodes into the
// buffer the last one grew, and sorts map keys in a slice kept beside it, so
// a study that has not grown costs a few allocations of a few hundred bytes
// whatever the size of its snapshot — not the snapshot's bytes again.
func TestWriteSnapshotAllocsAreSteadyState(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's build allocates on its own")
	}
	for _, n := range []int{2000, 20000} {
		agg := buildAggregate(1, n)
		write := func() {
			if err := WriteSnapshot(io.Discard, agg); err != nil {
				t.Fatal(err)
			}
		}
		write()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, write) // runs+1 writes
		runtime.ReadMemStats(&after)
		perWrite := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		size := len(EncodeSnapshot(nil, agg))
		t.Logf("a %d-byte snapshot: %v allocations, %d bytes a warm write", size, allocs, perWrite)
		if allocs > 8 || perWrite > 4<<10 {
			t.Errorf("a warm WriteSnapshot of a %d-byte snapshot allocates %v times, %d bytes; want at most 8 and 4 KiB", size, allocs, perWrite)
		}
	}
}
