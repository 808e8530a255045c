package federation

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// buildAggregate populates an aggregate with deterministic pre-aggregated
// months — every counter family a delta ships is exercised through the
// snapshot payload it embeds, and the generation advances like a real edge's
// shard (records counted per month).
func buildAggregate(seed uint64, months int) *notary.Aggregate {
	agg := notary.NewAggregate()
	m := timeline.M(2012, time.January)
	for i := 0; i < months; i++ {
		i := uint64(i)
		agg.UpdateMonth(m, 10+i, func(ms *notary.MonthStats) {
			ms.N[notary.Total] += int(10 + i)
			ms.N[notary.Established] += int(7 + i + seed)
			ms.ByVersion.Add(registry.VersionTLS12, int(3+seed))
			ms.ByClass["RC4"] += int(2 + i)
			ms.ByKex.Add(registry.KexECDHE, int(1+seed))
			ms.N[notary.AdvRC4] += int(i)
			ms.N[notary.OffersHeartbeatN] += int(seed)
		})
		m = m.Next()
	}
	return agg
}

func mustEncode(t *testing.T, d *Delta) []byte {
	t.Helper()
	enc, err := EncodeDelta(d)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	return enc
}

// TestDeltaRoundTrip is the codec's core property: decode(encode(d)) carries
// the same source, base and deep-equal aggregate, across sizes including an
// empty delta (a heartbeat push with nothing accumulated).
func TestDeltaRoundTrip(t *testing.T) {
	for _, months := range []int{0, 1, 5, 40} {
		for seed := uint64(1); seed <= 3; seed++ {
			d := &Delta{Source: "edge-eu", Base: 17 * seed, Agg: buildAggregate(seed, months)}
			got, err := DecodeDelta(mustEncode(t, d))
			if err != nil {
				t.Fatalf("months=%d seed=%d: DecodeDelta: %v", months, seed, err)
			}
			if got.Source != d.Source || got.Base != d.Base {
				t.Fatalf("months=%d seed=%d: header (%q, %d), want (%q, %d)",
					months, seed, got.Source, got.Base, d.Source, d.Base)
			}
			if !reflect.DeepEqual(got.Agg, d.Agg) {
				t.Fatalf("months=%d seed=%d: round-tripped aggregate differs", months, seed)
			}
			if got.Records() != d.Agg.Generation() {
				t.Fatalf("months=%d seed=%d: records %d, want %d",
					months, seed, got.Records(), d.Agg.Generation())
			}
		}
	}
}

// TestDeltaDeterministic pins deterministic encoding: equal content encodes
// to equal bytes, including after a decode round trip (map iteration order
// must be hidden by the embedded snapshot codec's sorting).
func TestDeltaDeterministic(t *testing.T) {
	d := &Delta{Source: "edge-us", Base: 99, Agg: buildAggregate(4, 20)}
	a, b := mustEncode(t, d), mustEncode(t, d)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same delta differ")
	}
	dec, err := DecodeDelta(a)
	if err != nil {
		t.Fatalf("DecodeDelta: %v", err)
	}
	if c := mustEncode(t, dec); !bytes.Equal(a, c) {
		t.Fatal("re-encoding the decoded delta changed the bytes")
	}
}

// TestDeltaEncodeErrors: the encoder refuses frames the decoder would
// reject.
func TestDeltaEncodeErrors(t *testing.T) {
	long := make([]byte, MaxDeltaSource+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := EncodeDelta(&Delta{Source: string(long), Agg: notary.NewAggregate()}); err == nil {
		t.Fatal("oversized source accepted")
	}
	if _, err := EncodeDelta(&Delta{Source: "edge"}); err == nil {
		t.Fatal("nil aggregate accepted")
	}
}

// TestDeltaTruncation sweeps every prefix length of a valid frame: all must
// fail cleanly (no panic, no false accept of a short frame).
func TestDeltaTruncation(t *testing.T) {
	enc := mustEncode(t, &Delta{Source: "edge", Base: 5, Agg: buildAggregate(7, 12)})
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeDelta(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(enc))
		}
	}
	if _, err := DecodeDelta(enc); err != nil {
		t.Fatalf("full frame failed to decode: %v", err)
	}
}

// TestDeltaCorruption flips one byte at every offset of a valid frame:
// corruption anywhere — header, payload, CRC — must fail decoding; nothing
// may panic.
func TestDeltaCorruption(t *testing.T) {
	enc := mustEncode(t, &Delta{Source: "edge", Base: 3, Agg: buildAggregate(11, 16)})
	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x5a
		if _, err := DecodeDelta(mut); err == nil {
			t.Fatalf("byte %d corrupted, decode still succeeded", off)
		}
	}
}

// TestDeltaTrailingBytes: DecodeDelta rejects anything after the frame.
func TestDeltaTrailingBytes(t *testing.T) {
	enc := mustEncode(t, &Delta{Source: "edge", Agg: buildAggregate(3, 4)})
	if _, err := DecodeDelta(append(enc, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestDeltaVersionAndMagic: foreign frames and future versions are rejected
// up front, not misparsed.
func TestDeltaVersionAndMagic(t *testing.T) {
	enc := mustEncode(t, &Delta{Source: "edge", Agg: buildAggregate(5, 4)})
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodeDelta(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[4] = DeltaVersion + 1
	if _, err := DecodeDelta(bad); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestDeltaStreamed: ReadDelta consumes exactly one frame from a stream,
// leaving following bytes unread — deltas can share a connection with other
// traffic.
func TestDeltaStreamed(t *testing.T) {
	d1 := &Delta{Source: "a", Base: 1, Agg: buildAggregate(1, 3)}
	d2 := &Delta{Source: "b", Base: 2, Agg: buildAggregate(2, 5)}
	stream, err := AppendDelta(mustEncode(t, d1), d2)
	if err != nil {
		t.Fatalf("AppendDelta: %v", err)
	}
	r := bytes.NewReader(stream)
	for i, want := range []*Delta{d1, d2} {
		got, err := ReadDelta(r)
		if err != nil {
			t.Fatalf("frame %d: ReadDelta: %v", i, err)
		}
		if got.Source != want.Source || got.Base != want.Base || !reflect.DeepEqual(got.Agg, want.Agg) {
			t.Fatalf("frame %d differs after streamed decode", i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after reading both frames", r.Len())
	}
}

// FuzzReadDelta feeds arbitrary bytes to the decoder: it must never panic,
// and anything it accepts must re-encode to a frame that decodes to the same
// delta (decode∘encode is a retraction).
func FuzzReadDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(deltaFormat.Magic))
	if enc, err := EncodeDelta(&Delta{Source: "", Agg: notary.NewAggregate()}); err == nil {
		f.Add(enc)
	}
	if enc, err := EncodeDelta(&Delta{Source: "edge-eu", Base: 42, Agg: buildAggregate(1, 6)}); err == nil {
		f.Add(enc)
	}
	if enc, err := EncodeDelta(&Delta{Source: "edge-us", Base: 7, Agg: buildAggregate(2, 30)}); err == nil {
		f.Add(enc)
	}
	// Position sums no Add or Merge can produce: NaN, and above the count.
	for _, sum := range []float64{math.NaN(), 2.5} {
		agg := buildAggregate(3, 2)
		agg.UpdateMonth(timeline.M(2012, time.January), 0, func(ms *notary.MonthStats) {
			ms.Pos[notary.PosRC4].Sum, ms.Pos[notary.PosRC4].Count = sum, 2
		})
		enc, err := EncodeDelta(&Delta{Source: "edge-bad", Agg: agg})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeDelta(enc); err == nil {
			f.Fatalf("delta with position sum %v decoded without error", sum)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		if err != nil {
			return
		}
		re, err := EncodeDelta(d)
		if err != nil {
			t.Fatalf("accepted delta failed to re-encode: %v", err)
		}
		d2, err := DecodeDelta(re)
		if err != nil {
			t.Fatalf("re-encoded accepted delta failed to decode: %v", err)
		}
		if d2.Source != d.Source || d2.Base != d.Base || !reflect.DeepEqual(d2.Agg, d.Agg) {
			t.Fatal("decode(encode(decode(data))) != decode(data)")
		}
	})
}
