package notary

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
// lifetime, the generation — across seeds and sizes including empty, and
// re-encoding the decoded copy reproduces the bytes (decoded maps iterate in
// another order; sorting in the encoder must hide that).
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
			if !bytes.Equal(EncodeSnapshot(nil, got), buf.Bytes()) {
				t.Fatalf("n=%d seed=%d: re-encoding the decoded aggregate changed the bytes", n, seed)
			}
		}
	}
}

// TestSnapshotRejectsDamage: every prefix of a valid frame, the frame with
// any one byte flipped (header, checksummed payload or the CRC itself), with a
// byte after it, under a foreign magic or a future version — none decodes,
// and nothing panics. One subtest per kind of damage.
func TestSnapshotRejectsDamage(t *testing.T) {
	enc := EncodeSnapshot(nil, buildAggregate(11, 60))
	if _, err := DecodeSnapshot(enc); err != nil {
		t.Fatalf("the undamaged frame: %v", err)
	}
	edit := func(at int, to byte) []byte {
		mut := bytes.Clone(enc)
		mut[at] = to
		return mut
	}
	cut, flipped := map[string][]byte{}, map[string][]byte{}
	for n := range enc {
		cut[fmt.Sprintf("cut to %d bytes", n)] = enc[:n]
		flipped[fmt.Sprintf("byte %d flipped", n)] = edit(n, enc[n]^0x5a)
	}
	for _, c := range []struct {
		kind    string
		damaged map[string][]byte
	}{
		{"truncation", cut},
		{"corruption", flipped},
		{"trailing_bytes", map[string][]byte{"a trailing byte": append(bytes.Clone(enc), 0x00)}},
		{"version_and_magic", map[string][]byte{"a foreign magic": edit(0, 'X'), "a future version": edit(4, SnapshotVersion+1)}},
	} {
		t.Run(c.kind, func(t *testing.T) {
			for name, data := range c.damaged {
				if _, err := DecodeSnapshot(data); err == nil {
					t.Errorf("%s: decoded without error", name)
				}
			}
		})
	}
}

// TestSnapshotPayloadRefusals: a CRC-valid payload that Add and Merge cannot
// build, or that no encoder writes, is refused with an error naming what is
// wrong. Each row is one edit of the payload of one small aggregate — two
// fingerprints, an AEAD position entry and a version key — made through the
// encoder, which writes whatever it is given, or on its bytes. A position sum
// is a sum of terms idx/(n-1) <= 1, one per count: a NaN that got in would
// survive every merge, blank /figures and be written into the receiver's own
// snapshots. The frame ranks the fp: family from the lifetime rows and fills
// it from the month rows, so a repeated row must not replace the earlier one,
// and a lifetime volume past int64 would turn negative under Merge.
func TestSnapshotPayloadRefusals(t *testing.T) {
	build := func(edit func(a *Aggregate, ms *MonthStats)) []byte {
		a := NewAggregate()
		for _, fp := range []string{"fp-a", "fp-b"} {
			a.Add(withHello(&Record{Date: timeline.D(2016, time.May, 9)}, Hello{Fingerprint: fp}))
		}
		a.UpdateMonth(timeline.M(2016, time.May), 0, func(ms *MonthStats) {
			ms.Pos[PosAEAD].Sum, ms.Pos[PosAEAD].Count = 1.5, 2
			ms.ByVersion.Set(0xfffe, 1)
			edit(a, ms)
		})
		return AppendAggregatePayload(nil, a)
	}
	sum := func(v float64) []byte { return build(func(_ *Aggregate, ms *MonthStats) { ms.Pos[PosAEAD].Sum = v }) }
	good := sum(1.5)
	at := func(s string, last bool) int { // where s starts, first or last time
		if last {
			return bytes.LastIndex(good, []byte(s))
		}
		return bytes.Index(good, []byte(s))
	}
	swap := func(at int, s string) []byte { return slices.Concat(good[:at], []byte(s), good[at+len(s):]) }
	// The class and each fingerprint are named once per table: AEAD in the
	// sums, then the counts; fp-a in the month's rows, its volumes, the
	// lifetime rows. The generation and the month count take a byte each.
	lifetimes, aead := at("\x04fp-a", true)-1, at("\x04AEAD", true)
	for _, tc := range []struct {
		want    string
		payload []byte
	}{
		{"sum NaN outside [0, count 2]", sum(math.NaN())},
		{"sum +Inf outside [0, count 2]", sum(math.Inf(1))},
		{"sum -Inf outside [0, count 2]", sum(math.Inf(-1))},
		{"sum -0.25 outside [0, count 2]", sum(-0.25)},
		{"sum 2.5 outside [0, count 2]", sum(2.5)},
		{`unknown position class "AEAX"`, swap(at("\x04AEAD", false), "\x04AEAX")},
		// The count table's one entry (name, then 2) dropped, its length zeroed.
		{"position class AEAD has a sum but no count", slices.Concat(good[:aead-1], []byte{0}, good[aead+6:])},
		{"unexpected end of payload in float", good[:at("\x04AEAD", false)+9]},
		{"map key 65536 out of range", swap(at("\xfe\xff\x03", false), "\x80\x80\x04")},
		{`duplicate fingerprint "fp-a" in month 2016-05`, swap(at("\x04fp-b", false), "\x04fp-a")},
		// The month's second row cut inside its name.
		{"length 4 exceeds remaining 2 bytes", good[:at("\x04fp-b", false)+3]},
		{"bad month 10000-5", build(func(a *Aggregate, _ *MonthStats) {
			a.UpdateMonth(timeline.M(10000, time.May), 1, func(ms *MonthStats) { ms.N[Total]++ })
		})},
		{"duplicate month 2016-05", slices.Concat(good[:1], []byte{2}, good[2:lifetimes], good[2:])},
		{`duplicate fingerprint "fp-a"`, swap(at("\x04fp-b", true), "\x04fp-a")},
		{"bad date 2015-5-32", build(func(a *Aggregate, _ *MonthStats) {
			a.newLife("fp", timeline.D(2015, time.May, 10), timeline.D(2015, time.May, 32))
		})},
		// The payload ends with the last lifetime row's volume, the one byte 1.
		{"implausible count 9223372036854775808", binary.AppendUvarint(slices.Clip(good[:len(good)-1]), 1<<63)},
		{"1 trailing bytes", append(slices.Clip(good), 0)},
	} {
		t.Run(tc.want, func(t *testing.T) {
			if _, err := DecodeAggregatePayload(tc.payload, SnapshotVersion); err == nil || !strings.HasSuffix(err.Error(), tc.want) {
				t.Errorf("err = %v, want one ending %q", err, tc.want)
			}
		})
	}
	if _, err := DecodeAggregatePayload(good, SnapshotVersion); err != nil {
		t.Fatalf("the payload the rows edit: %v", err)
	}
	for _, v := range []byte{0, SnapshotVersion + 1} {
		if _, err := DecodeAggregatePayload(good, v); err == nil || !strings.Contains(err.Error(), "this build reads 1..2") {
			t.Errorf("payload version %d: err = %v", v, err)
		}
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
	for _, sum := range []float64{math.NaN(), 2.5} { // position sums no Add or Merge can produce
		a := NewAggregate()
		a.UpdateMonth(timeline.M(2016, time.May), 3, func(ms *MonthStats) { ms.Pos[PosAEAD].Sum, ms.Pos[PosAEAD].Count = sum, 2 })
		f.Add(EncodeSnapshot(nil, a))
	}
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
