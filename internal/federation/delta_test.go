package federation

import (
	"bytes"
	"math"
	"reflect"
	"strings"
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
// empty delta (a heartbeat push with nothing accumulated), and re-encoding the
// decoded delta reproduces the bytes (map iteration order must be hidden by
// the embedded snapshot codec's sorting).
func TestDeltaRoundTrip(t *testing.T) {
	for _, months := range []int{0, 1, 5, 40} {
		for seed := uint64(1); seed <= 3; seed++ {
			d := &Delta{Source: "edge-eu", Base: 17 * seed, Agg: buildAggregate(seed, months)}
			enc := mustEncode(t, d)
			got, err := DecodeDelta(enc)
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
			if !bytes.Equal(mustEncode(t, got), enc) {
				t.Fatalf("months=%d seed=%d: re-encoding the decoded delta changed the bytes", months, seed)
			}
		}
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

// TestDeltaPayloadRefusals: a frame whose envelope and checksum hold but
// whose payload stops short of a field is refused, naming the field —
// payloads no encoder writes, framed here by hand.
func TestDeltaPayloadRefusals(t *testing.T) {
	for payload, want := range map[string]string{
		"":                 "bad source length varint",
		"\x05ab":           "source length 5 exceeds remaining 2 bytes",
		"\x02ab":           "bad base generation varint",
		"\x02ab\x07":       "missing aggregate version byte",
		"\x00\x80\x80\x80": "bad base generation varint",
	} {
		t.Run(want, func(t *testing.T) {
			frame, mark := deltaFormat.Begin(nil)
			frame, err := deltaFormat.End(append(frame, payload...), mark)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeDelta(frame); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("payload %q: %v, want %q", payload, err, want)
			}
		})
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
