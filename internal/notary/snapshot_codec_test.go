package notary

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"tlsage/internal/registry"
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

// FuzzReadSnapshot feeds arbitrary bytes to the decoder: it must never
// panic, and anything it accepts must re-encode to a frame that decodes to
// the same aggregate (decode∘encode is a retraction).
func FuzzReadSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotFormat.Magic))
	f.Add(EncodeSnapshot(nil, NewAggregate()))
	f.Add(EncodeSnapshot(nil, buildAggregate(1, 5)))
	f.Add(EncodeSnapshot(nil, buildAggregate(2, 100)))
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
