package framing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// The suite runs over one format of each length width. Their version ranges
// are chosen so that none of the sweep's flips of the written version byte
// lands back inside the accepted range: the version byte sits outside the
// checksum, so only the range check can catch a flip there.
var testFormats = []struct {
	name string
	f    Format
}{
	{"narrow", Format{Magic: "FRMa", MinVersion: 3, Version: 4, LenBytes: 4, MaxPayload: 1 << 26}},
	{"wide", Format{Magic: "FRMb", MinVersion: 1, Version: 1, LenBytes: 8, MaxPayload: 1 << 32}},
}

func frame(t testing.TB, f *Format, dst, payload []byte) []byte {
	t.Helper()
	dst, mark := f.Begin(dst)
	dst, err := f.End(append(dst, payload...), mark)
	if err != nil {
		t.Fatalf("End: %v", err)
	}
	return dst
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// readAll drains a stream through a Reader, returning the payloads (copied)
// and the terminating error (io.EOF for a clean end).
func readAll(f *Format, r io.Reader) ([][]byte, error) {
	rd := f.NewReader(r)
	var out [][]byte
	for {
		_, p, err := rd.Next()
		if err != nil {
			return out, err
		}
		out = append(out, append([]byte(nil), p...))
	}
}

// TestRoundTrip: what Begin/End frame, Decode and Reader hand back, for
// payloads from empty to several growth chunks, alone and streamed.
func TestRoundTrip(t *testing.T) {
	for _, tc := range testFormats {
		f := &tc.f
		payloads := [][]byte{nil, {0x42}, patterned(1000), patterned(3*growChunk + 17), patterned(5)}
		var stream []byte
		for i, p := range payloads {
			one := frame(t, f, nil, p)
			if want := f.headerLen() + len(p) + trailerLen; len(one) != want {
				t.Fatalf("%s: frame %d is %d bytes, want %d", tc.name, i, len(one), want)
			}
			v, got, err := f.Decode(one)
			if err != nil || v != f.Version || !bytes.Equal(got, p) {
				t.Fatalf("%s: Decode(frame %d) = version %d, %d bytes, err %v", tc.name, i, v, len(got), err)
			}
			// Appending onto a non-empty dst frames the same bytes.
			if joined := frame(t, f, []byte("prefix"), p); !bytes.Equal(joined[len("prefix"):], one) {
				t.Fatalf("%s: frame %d differs when appended to a non-empty dst", tc.name, i)
			}
			stream = append(stream, one...)
		}
		got, err := readAll(f, bytes.NewReader(stream))
		if err != io.EOF || len(got) != len(payloads) {
			t.Fatalf("%s: stream read %d frames, err %v", tc.name, len(got), err)
		}
		for i := range payloads {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("%s: streamed frame %d differs", tc.name, i)
			}
		}
	}
}

// TestAppendFrameRebuildsTheStream: AppendFrame of every frame a Reader hands
// out, onto one slice, is the stream byte for byte — every accepted version,
// payloads from empty to several growth chunks, read whole and byte by byte.
func TestAppendFrameRebuildsTheStream(t *testing.T) {
	for _, tc := range testFormats {
		var stream []byte
		for i, p := range [][]byte{nil, {0x42}, patterned(3*growChunk + 17), patterned(1000)} {
			old := tc.f
			old.Version = tc.f.MinVersion + byte(i)%(tc.f.Version-tc.f.MinVersion+1)
			stream = frame(t, &old, stream, p)
		}
		for name, r := range map[string]io.Reader{"whole": bytes.NewReader(stream), "bytewise": bytewise(stream)} {
			rd := tc.f.NewReader(r)
			rebuilt := []byte("prefix")
			for {
				if _, _, err := rd.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatalf("%s, %s: %v", tc.name, name, err)
				}
				rebuilt = rd.AppendFrame(rebuilt)
			}
			if !bytes.Equal(rebuilt[len("prefix"):], stream) {
				t.Errorf("%s, %s: AppendFrame rebuilt %d bytes, not the %d-byte stream", tc.name, name, len(rebuilt)-len("prefix"), len(stream))
			}
		}
	}
}

// bytewise returns a reader that yields b one byte per Read, so ReadFull
// has to reassemble headers and bodies across short reads.
func bytewise(b []byte) io.Reader { return &oneByteReader{b: b} }

type oneByteReader struct{ b []byte }

func (o *oneByteReader) Read(p []byte) (int, error) {
	if len(o.b) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0] = o.b[0]
	o.b = o.b[1:]
	return 1, nil
}

// TestVersionRange: every accepted version reads back as itself.
func TestVersionRange(t *testing.T) {
	for _, tc := range testFormats {
		for v := tc.f.MinVersion; v <= tc.f.Version; v++ {
			old := tc.f
			old.Version = v // an older build's writer
			enc := frame(t, &old, nil, []byte("payload"))
			got, _, err := tc.f.Decode(enc)
			if err != nil || got != v {
				t.Errorf("%s: version %d read as %d, err %v", tc.name, v, got, err)
			}
		}
	}
}

// TestTruncation cuts a two-frame stream at every offset. A stream reader
// sees a clean io.EOF only at offset 0 and at the two frame boundaries;
// every other cut is an error that is not io.EOF but does wrap
// io.ErrUnexpectedEOF. The slice form accepts no proper prefix at all.
func TestTruncation(t *testing.T) {
	for _, tc := range testFormats {
		f := &tc.f
		first := frame(t, f, nil, patterned(40))
		stream := frame(t, f, append([]byte(nil), first...), patterned(9))
		for _, read := range []struct {
			name string
			wrap func([]byte) io.Reader
		}{
			{"bulk", func(b []byte) io.Reader { return bytes.NewReader(b) }},
			{"bytewise", bytewise},
		} {
			for n := 0; n <= len(stream); n++ {
				got, err := readAll(f, read.wrap(stream[:n]))
				boundary := map[int]int{0: 0, len(first): 1, len(stream): 2}
				if frames, ok := boundary[n]; ok {
					if err != io.EOF || len(got) != frames {
						t.Fatalf("%s/%s: cut at boundary %d: %d frames, err %v", tc.name, read.name, n, len(got), err)
					}
					continue
				}
				if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s/%s: cut at %d of %d: err %v, want a wrapped ErrUnexpectedEOF", tc.name, read.name, n, len(stream), err)
				}
			}
		}
		for n := 0; n < len(first); n++ {
			if _, _, err := f.Decode(first[:n]); err == nil || err == io.EOF {
				t.Fatalf("%s: Decode of %d of %d bytes: err %v", tc.name, n, len(first), err)
			}
		}
	}
}

// TestBitFlip flips bits at every offset of a frame: header fields are
// caught by the magic, version-range and length checks (a shrunk length
// misplaces the trailer), payload and trailer by the CRC.
func TestBitFlip(t *testing.T) {
	for _, tc := range testFormats {
		f := &tc.f
		enc := frame(t, f, nil, patterned(64))
		mut := make([]byte, len(enc))
		for off := range enc {
			for _, mask := range []byte{0x01, 0x5a, 0x80} {
				copy(mut, enc)
				mut[off] ^= mask
				if _, _, err := f.Decode(mut); err == nil {
					t.Fatalf("%s: Decode accepted byte %d ^ %#x", tc.name, off, mask)
				}
				if got, err := readAll(f, bytes.NewReader(mut)); err == io.EOF || len(got) != 0 {
					t.Fatalf("%s: Reader accepted byte %d ^ %#x (%d frames, err %v)", tc.name, off, mask, len(got), err)
				}
			}
		}
	}
}

// header builds a bare header claiming n payload bytes.
func header(f *Format, magic string, version byte, n uint64) []byte {
	h := append([]byte(magic), version)
	if f.LenBytes == 8 {
		return binary.LittleEndian.AppendUint64(h, n)
	}
	return binary.LittleEndian.AppendUint32(h, uint32(n))
}

// TestRejectsHeader patches the header of an otherwise valid frame: foreign
// magic, versions either side of the range and a length past the cap are
// each refused by their own check, before any payload byte is believed.
func TestRejectsHeader(t *testing.T) {
	for _, tc := range testFormats {
		f := &tc.f
		valid := frame(t, f, nil, patterned(8))
		body := valid[f.headerLen():]
		for _, c := range []struct {
			name, want string
			hdr        []byte
		}{
			{"wrong magic", "bad magic", header(f, "TLSX", f.Version, 8)},
			{"sibling magic", "bad magic", header(f, "FRMz", f.Version, 8)},
			{"version below", "this build reads", header(f, f.Magic, f.MinVersion-1, 8)},
			{"version above", "this build reads", header(f, f.Magic, f.Version+1, 8)},
			{"length over cap", "implausible payload length", header(f, f.Magic, f.Version, f.MaxPayload+1)},
		} {
			in := append(c.hdr, body...)
			if _, _, err := f.Decode(in); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: Decode on %s: err %v, want %q", tc.name, c.name, err, c.want)
			}
			if _, _, err := f.NewReader(bytes.NewReader(in)).Next(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: Reader on %s: err %v, want %q", tc.name, c.name, err, c.want)
			}
		}
		// The cap itself is a legal length: the frame is merely truncated.
		if _, _, err := f.Decode(header(f, f.Magic, f.Version, f.MaxPayload)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: length == cap: err %v, want truncation", tc.name, err)
		}
	}
}

// TestTrailingBytes: the slice form is exactly one frame; a stream reader
// hands the frame out and fails on what follows.
func TestTrailingBytes(t *testing.T) {
	for _, tc := range testFormats {
		f := &tc.f
		enc := append(frame(t, f, nil, patterned(12)), 0x00)
		if _, _, err := f.Decode(enc); err == nil {
			t.Errorf("%s: Decode accepted a trailing byte", tc.name)
		}
		got, err := readAll(f, bytes.NewReader(enc))
		if len(got) != 1 || err == io.EOF {
			t.Errorf("%s: Reader: %d frames, err %v; want the frame then an error", tc.name, len(got), err)
		}
	}
}

// TestEndRefusesOversize: a payload one byte past the cap is refused and dst
// comes back as Begin found it; at the cap it is framed.
func TestEndRefusesOversize(t *testing.T) {
	for _, tc := range testFormats {
		small := tc.f
		small.MaxPayload = 64
		dst, mark := small.Begin([]byte("kept"))
		dst, err := small.End(append(dst, patterned(65)...), mark)
		if err == nil || string(dst) != "kept" {
			t.Errorf("%s: oversize payload: err %v, dst %q", tc.name, err, dst)
		}
		enc := frame(t, &small, nil, patterned(64))
		if _, got, err := small.Decode(enc); err != nil || len(got) != 64 {
			t.Errorf("%s: payload at the cap: %d bytes, err %v", tc.name, len(got), err)
		}
	}
}

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCorruptLengthAllocation: a header claiming the maximal payload over a
// stream that cannot back it costs one growth chunk when the stream is
// short, and stays proportional to the bytes present when it is long —
// never the declared size.
func TestCorruptLengthAllocation(t *testing.T) {
	const slack = 64 << 10
	for _, tc := range testFormats {
		f := &tc.f
		for _, present := range []int{10, 3*growChunk + 5} {
			in := append(header(f, f.Magic, f.Version, f.MaxPayload), patterned(present)...)
			var err error
			got := allocated(func() { _, _, err = f.NewReader(bytes.NewReader(in)).Next() })
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: %d bytes under a maximal length: err %v", tc.name, present, err)
			}
			// Doubling reallocates, so the running total is at most twice the
			// final capacity, itself at most max(2×present, present+chunk).
			limit := uint64(growChunk + slack)
			if present > growChunk {
				limit = uint64(4*present + slack)
			}
			if got > limit {
				t.Errorf("%s: %d bytes under a maximal length allocated %d bytes, limit %d", tc.name, present, got, limit)
			}
		}
	}
}

// TestReaderStateIsPerStream: the header scratch and body buffer are reused,
// so a 32-frame stream allocates exactly what a 1-frame stream does.
func TestReaderStateIsPerStream(t *testing.T) {
	for _, tc := range testFormats {
		f := &tc.f
		one := frame(t, f, nil, patterned(4096))
		many := bytes.Repeat(one, 32)
		rd := bytes.NewReader(nil)
		drain := func(stream []byte) float64 {
			return testing.AllocsPerRun(20, func() {
				rd.Reset(stream)
				fr := f.NewReader(rd)
				for {
					if _, _, err := fr.Next(); err != nil {
						if err != io.EOF {
							t.Fatal(err)
						}
						return
					}
				}
			})
		}
		if a1, a32 := drain(one), drain(many); a32 > a1 {
			t.Errorf("%s: 32 frames cost %v allocs, 1 frame %v", tc.name, a32, a1)
		}
	}
}

// TestLentBody: a Reader that is lent a body buffer reads into it and hands
// it back, so a second stream through the same buffer allocates no body; a
// frame the lent buffer cannot hold grows a larger one, and that is what comes
// back.
func TestLentBody(t *testing.T) {
	for _, tc := range testFormats {
		f := &tc.f
		want := patterned(4096)
		stream := bytes.Repeat(frame(t, f, nil, want), 3)
		var body []byte
		read := func() {
			fr := f.NewReader(bytes.NewReader(stream))
			fr.Lend(body)
			for n := 0; ; n++ {
				_, p, err := fr.Next()
				if err == io.EOF && n == 3 {
					break
				}
				if err != nil || !bytes.Equal(p, want) {
					t.Fatalf("%s: frame %d: err %v", tc.name, n, err)
				}
			}
			body = fr.Reclaim()
			if _, _, err := fr.Next(); err != io.EOF {
				t.Fatalf("%s: a Reader without its body: err %v", tc.name, err)
			}
		}
		read()
		if cap(body) < len(want)+trailerLen {
			t.Fatalf("%s: reclaimed a body of cap %d", tc.name, cap(body))
		}
		kept := &body[:1][0]
		if got := allocated(read); got > 1024 {
			t.Errorf("%s: a stream through a lent body allocated %d bytes", tc.name, got)
		}
		if &body[:1][0] != kept {
			t.Errorf("%s: the lent body was replaced though every frame fit it", tc.name)
		}
		body = make([]byte, 0, 16)
		read()
		if cap(body) < len(want)+trailerLen {
			t.Errorf("%s: a 16-byte lent body came back with cap %d", tc.name, cap(body))
		}
	}
}

// FuzzFrameRead: arbitrary bytes never panic either reader; whatever the
// slice form accepts re-frames to the identical bytes, and the frames a
// stream reader hands out re-frame to exactly the prefix it consumed.
func FuzzFrameRead(f *testing.F) {
	f.Add([]byte{})
	for _, tc := range testFormats {
		f.Add([]byte(tc.f.Magic))
		one := frame(f, &tc.f, nil, patterned(33))
		f.Add(one)
		f.Add(frame(f, &tc.f, one, nil))
		f.Add(header(&tc.f, tc.f.Magic, tc.f.Version, tc.f.MaxPayload))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tc := range testFormats {
			reframe := func(dst []byte, version byte, payload []byte) []byte {
				w := tc.f
				w.Version = version
				return frame(t, &w, dst, payload)
			}
			if v, p, err := tc.f.Decode(data); err == nil {
				if re := reframe(nil, v, p); !bytes.Equal(re, data) {
					t.Fatalf("%s: accepted frame re-frames to different bytes", tc.name)
				}
			}
			rd := tc.f.NewReader(bytes.NewReader(data))
			var consumed []byte
			for {
				v, p, err := rd.Next()
				if err != nil {
					if err == io.EOF && !bytes.Equal(consumed, data) {
						t.Fatalf("%s: clean EOF after %d of %d bytes", tc.name, len(consumed), len(data))
					}
					break
				}
				consumed = reframe(consumed, v, p)
			}
			if !bytes.HasPrefix(data, consumed) {
				t.Fatalf("%s: streamed frames re-frame to bytes that are not a prefix of the input", tc.name)
			}
		}
	})
}

// BenchmarkReaderNext streams 32 frames of 16 KiB (a DefaultBatchSize-ish
// batch) per iteration; allocs/op is the per-stream cost.
func BenchmarkReaderNext(b *testing.B) {
	f := &testFormats[0].f
	stream := bytes.Repeat(frame(b, f, nil, patterned(16<<10)), 32)
	rd := bytes.NewReader(nil)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(stream)
		fr := f.NewReader(rd)
		for {
			if _, _, err := fr.Next(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}
