package notary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tlsage/internal/registry"
)

// Tests of the hello tables (hello.go) beyond what the differential harness
// of decode_diff_test.go gives every seed: one table across streams and
// across its cap, the rows a table does not keep, the two decoders' pools kept
// apart, the list cap, and the allocation pins.

// tsvLog is the log LogWriter makes of recs.
func tsvLog(recs []*Record) []byte {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	for _, r := range recs {
		if err := lw.Observe(r); err != nil {
			panic(err)
		}
	}
	if err := lw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// distinctHellos returns n records with n different cipher lists.
func distinctHellos(n int) []*Record {
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = editHello(sampleRecord(), func(h *Hello) {
			h.Suites = []uint16{0xc02f, uint16(i), 0x000a}
			h.Fingerprint = fmt.Sprintf("fp-%d", i%7) // fewer fingerprints than lists
		})
	}
	return recs
}

// A span too long to keep is decoded, correctly, every time, into a row of
// the record's own: the table keeps neither it nor any of its bytes, and the
// record folds through a builder as through Add.
func TestOversizeHelloIsNeverKept(t *testing.T) {
	long := editHello(sampleRecord(), func(h *Hello) { h.Fingerprint = strings.Repeat("f", maxHelloSpan+1) })
	wide := editHello(sampleRecord(), func(h *Hello) { h.Suites = make([]uint16, maxHelloSpan) })
	recs := []*Record{sampleRecord(), long, wide, long, wide}
	for name, read := range map[string]func([]*Record, Sink, *decodeTables) error{
		"tlsb": func(recs []*Record, sink Sink, tab *decodeTables) error {
			_, _, err := readBatches(bytes.NewReader(encodeBatch(recs)), sink, tab)
			return err
		},
		"tsv": func(recs []*Record, sink Sink, tab *decodeTables) error {
			_, _, err := readLogTail(bytes.NewReader(tsvLog(recs)), 0, sink, tab)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			tab := newDecodeTables()
			if err := read(recs[:1], nullSink(), tab); err != nil || len(tab.rows) != 1 {
				t.Fatalf("the sample record made %d rows, err %v", len(tab.rows), err)
			}
			held := tab.held
			var got collectSink
			agg, built := classified(), NewShardBuilder(classified)
			if err := read(recs, Tee(&got, agg, built), tab); err != nil {
				t.Fatal(err)
			}
			requireSameRecords(t, name, got.recs, recs)
			requireSameAggregate(t, name+", through a builder", built.Flush(), agg)
			if len(tab.rows) != 1 || tab.held != held {
				t.Errorf("the table grew from 1 row and %d bytes to %d and %d", held, len(tab.rows), tab.held)
			}
			for i, r := range got.recs[1:] {
				if r.hello == nil || r.hello == got.recs[i].hello {
					t.Errorf("record %d is on row %p, not one of its own", i+1, r.hello)
				}
				for _, row := range tab.rows {
					if row == r.hello {
						t.Errorf("the table kept record %d's row", i+1)
					}
				}
			}
		})
	}
}

// What a version-3 frame's references may do, seed by seed: every outcome is
// also the reference decoder's (TestDecodersMatchReference runs the same
// seeds), and here it is the outcome the rule names.
func TestFrameReferencesFollowTheRule(t *testing.T) {
	seeds := v3Seeds()
	for _, c := range []struct {
		seed    string
		records uint64
		err     string // "" accepts; "*" is whatever the bytes happen to spell
	}{
		{"v3: two entries of each kind", 5, ""},
		{"v3: a forward hello reference", 1, "reference 3, but the frame has defined 1 entries"},
		{"v3: a forward cohort reference", 1, "reference 3, but the frame has defined 1 entries"},
		{"v3: a reference before any entry", 0, "reference 2, but the frame has defined 0 entries"},
		{"v3: entry 2 of the previous frame", 5, "batch frame 1: notary: batch payload: reference 2, but the frame has defined 0 entries"},
		{"v3: entry 1 of the previous frame", 5, "*"},
		{"v3: the previous frame again", 10, ""},
		{"v3: values sent as 0 are not entries", 7, ""},
		{"v3: a 0 is not entry 1", 1, "*"},
		{"v3: one hello under two entries", 4, ""},
		{"v3: a definition with no value", 1, "*"},
		{"v3: references padded to 2 bytes", 5, ""},
		{"v3: a hello definition past the span bound", 1, fmt.Sprintf("definition of %d bytes exceeds %d", maxHelloSpan+32, maxHelloSpan)},
		{"v3: the same hello sent as 0", 4, ""},
		{"v3: a cohort definition past the span bound", 1, fmt.Sprintf("definition of %d bytes exceeds %d", maxHelloSpan+3, maxHelloSpan)},
		{"v3: the same cohort sent as 0", 4, ""},
		{"v3: the table emptied under the frame's entries", maxTableBytes/maxHelloSpan + 6, ""},
		{"v3: more distinct hellos than a frame may define", maxHelloRows + 40, ""},
		{"v3: a frame at its definition cap", maxHelloRows + 2, ""},
		{"v3: one hello definition past the cap", maxHelloRows, fmt.Sprintf("more than %d definitions in one frame", maxHelloRows)},
		{"v3: one cohort definition past the cap", maxHelloRows, fmt.Sprintf("more than %d definitions in one frame", maxHelloRows)},
		{"v3: frames cut at the payload cap", 60, ""},
	} {
		t.Run(c.seed, func(t *testing.T) {
			data, ok := seeds[c.seed]
			if !ok {
				t.Fatalf("no seed %q", c.seed)
			}
			tab := newDecodeTables()
			emptied := false
			_, n, err := readBatches(bytes.NewReader(data), SinkFunc(func(*Record) error {
				emptied = emptied || len(tab.strs) < 10 && len(tab.cohorts) == 2
				return nil
			}), tab)
			var be *BatchError
			switch {
			case n != c.records, (c.err == "") != (err == nil), err != nil && !errors.As(err, &be),
				c.err != "" && c.err != "*" && !strings.Contains(err.Error(), c.err):
				t.Errorf("%s: %d records, err %v; want %d records, err %q", c.seed, n, err, c.records, c.err)
			}
			// A frame's entries end with it, however it ended.
			for _, row := range tab.hellos[:cap(tab.hellos)] {
				if len(tab.hellos) != 0 || row != nil {
					t.Fatalf("%s: the table still holds an entry of the frame", c.seed)
				}
			}
			for _, s := range tab.cohorts[:cap(tab.cohorts)] {
				if len(tab.cohorts) != 0 || s != "" {
					t.Fatalf("%s: the table still holds a cohort of the frame", c.seed)
				}
			}
			switch c.seed {
			case "v3: the same hello sent as 0", "v3: the same cohort sent as 0":
				if len(tab.rows) != 1 || tab.held > 128 { // the sample record's span, and its three strings
					t.Errorf("%s: the table kept %d rows and %d bytes", c.seed, len(tab.rows), tab.held)
				}
			case "v3: the table emptied under the frame's entries":
				if !emptied {
					t.Errorf("%s: vacuous: the table was never emptied", c.seed)
				}
			case "v3: frames cut at the payload cap":
				if frames, _, _ := ReadBatches(bytes.NewReader(data), nullSink()); frames < 4 {
					t.Errorf("%s: vacuous: %d frames", c.seed, frames)
				}
			}
		})
	}
}

// A frame as large as the envelope lets it be, all of it minimal definitions,
// is refused at the definition cap. Nothing of it stays with the table: not
// the body, not an entry, and no more rows than a table holds.
func TestHostileFrameOfDefinitionsIsRefusedAtTheCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and reads a 64 MiB frame")
	}
	size := int(batchFormat.MaxPayload)
	frame, mark := batchFormat.Begin(make([]byte, 0, size+16))
	count := len(frame)
	frame = append(frame, 0x80, 0x80, 0x80, 0) // the record count, once it is known
	r, h := &Record{Date: sampleRecord().Date}, Hello{Suites: make([]uint16, 1)}
	n := 0
	for ; len(frame)-count+64 < size; n++ {
		h.Suites[0] = uint16(n)
		frame = binary.AppendUvarint(appendRecordHead(frame, r), uint64(n+1)) // defines entry n+1
		frame = append(appendHelloSpan(frame, &h), 0, 0)                      // and sends an empty cohort as 0
	}
	copy(frame[count:], paddedUvarint(4)(nil, uint64(n)))
	frame, err := batchFormat.End(frame, mark)
	if err != nil || len(frame) < size-64 {
		t.Fatalf("a %d-byte frame of %d definitions, err %v", len(frame), n, err)
	}
	tab := newDecodeTables()
	var be *BatchError
	_, got, err := readBatches(bytes.NewReader(frame), nullSink(), tab)
	if !errors.As(err, &be) || got != maxHelloRows || !strings.Contains(err.Error(), "definitions in one frame") {
		t.Fatalf("%d records, err %v; want the %d a frame may define and a *BatchError", got, err, maxHelloRows)
	}
	if tab.frame != nil || len(tab.hellos) != 0 || cap(tab.hellos) > 2*maxHelloRows || len(tab.rows) > maxHelloRows || tab.held > maxTableBytes {
		t.Errorf("the table kept a %d-byte body, %d of %d entries, %d rows, %d bytes of keys",
			cap(tab.frame), len(tab.hellos), cap(tab.hellos), len(tab.rows), tab.held)
	}
	for _, row := range tab.hellos[:cap(tab.hellos)] {
		if row != nil {
			t.Fatal("the table still holds an entry of the refused frame")
		}
	}
}

// --- the list cap ---

// A list above maxListLen elements is refused by both decoders, in their own
// words, and one at the cap is read by both.
func TestListCapInBothFormats(t *testing.T) {
	suites := make([]uint16, maxListLen)
	for i := range suites {
		suites[i] = uint16(i)
	}
	atCap := editHello(sampleRecord(), func(h *Hello) { h.Suites = suites })
	over := editHello(sampleRecord(), func(h *Hello) { h.Extensions = make([]registry.ExtensionID, maxListLen+1) })
	good := sampleRecord()
	t.Run("tlsb", func(t *testing.T) {
		if _, n, err := ReadBatches(bytes.NewReader(encodeBatch([]*Record{good, atCap})), nullSink()); err != nil || n != 2 {
			t.Fatalf("a list of %d elements: %d records, err %v", maxListLen, n, err)
		}
		var be *BatchError
		_, n, err := ReadBatches(bytes.NewReader(encodeBatch([]*Record{good, over, good})), nullSink())
		if !errors.As(err, &be) || n != 1 || !strings.Contains(err.Error(), fmt.Sprintf("list of %d elements exceeds %d", maxListLen+1, maxListLen)) {
			t.Fatalf("a list of %d elements: %d records, err %v", maxListLen+1, n, err)
		}
	})
	t.Run("tsv", func(t *testing.T) {
		if err := ReadLog(bytes.NewReader(tsvLog([]*Record{good, atCap})), nullSink()); err != nil {
			t.Fatalf("a list of %d elements: %v", maxListLen, err)
		}
		var le *LineError
		err := ReadLog(bytes.NewReader(tsvLog([]*Record{good, over, good})), nullSink())
		if !errors.As(err, &le) || le.Line != 5 || !strings.Contains(err.Error(), fmt.Sprintf("hex list exceeds %d elements", maxListLen)) {
			t.Fatalf("a list of %d elements: err %v", maxListLen+1, err)
		}
		// The cap is on elements, however they are spelled: short ones that
		// only the strconv tail reads count too.
		f := strings.Split(strings.TrimSuffix(string(good.AppendTSV(nil)), "\n"), "\t")
		for n, ok := range map[int]bool{maxListLen: true, maxListLen + 1: false} {
			f[11] = strings.Repeat("f,", n-1) + "f"
			if err := ReadLog(strings.NewReader(strings.Join(f, "\t")+"\n"), nullSink()); (err == nil) != ok {
				t.Errorf("%d one-digit elements: err %v", n, err)
			}
		}
	})
	// A count that claims more than the cap is refused before anything is
	// sized from it, whatever the frame has room for.
	payload := binary.AppendUvarint(nil, 1)
	payload = append(payload, 0)                         // flags
	payload = append(payload, 0xdf, 0x0f, 6, 3)          // 2015-06-03
	payload = append(payload, 0, 0, 0, 0, 0)             // four code points, alert
	payload = binary.AppendUvarint(payload, 1<<20)       // client_suites count
	payload = append(payload, make([]byte, 1<<20+16)...) // room for it
	var be *BatchError
	if _, _, err := ReadBatches(bytes.NewReader(reframe(2, payload)), nullSink()); !errors.As(err, &be) ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("a count of 1<<20: err %v", err)
	}
}

// --- span finders ---

// The span tlsbHelloSpan finds without decoding is the span the checked
// decoders consume — or it finds none, and they say what the bytes are.
func TestTLSBHelloSpanIsWhatTheDecodersRead(t *testing.T) {
	found := 0
	for _, r := range append(buildBatchRecords(97, 300), &Record{Date: sampleRecord().Date}, sampleRecord()) {
		for _, width := range []int{1, 2, 3, 4} {
			enc := appendRecordSpelled(nil, r, paddedUvarint(width))
			var head Record
			d := &snapDecoder{b: enc, what: "batch"}
			decodeRecordBinary(d, &head, newDecodeTables(), 2)
			if d.err != nil || d.off != len(enc) {
				t.Fatalf("width %d: decode stopped at %d of %d, err %v", width, d.off, len(enc), d.err)
			}
			// The span starts after the head: flags, seven varints, alert.
			start := skipVarints(enc, 1, 7) + 1
			cohort := len(paddedUvarint(width)(nil, uint64(len(r.ServerCohort)))) + len(r.ServerCohort)
			span := tlsbHelloSpan(enc, start)
			if span == nil {
				continue
			}
			found++
			if want := enc[start : len(enc)-cohort]; !bytes.Equal(span, want) {
				t.Fatalf("width %d: span of %d bytes, the decoders read %d", width, len(span), len(want))
			}
		}
	}
	if found < 600 {
		t.Errorf("vacuous: only %d spans found without decoding", found)
	}
}

// --- allocation pins ---

// The decoders' allocations are the stream's and the table's, never the
// record's or the frame's. Pinned through the entry points that take the
// tables, because what a pool holds is the garbage collector's business. With
// a warm table 32 frames cost exactly what one costs — the frame reader's
// state, 8 allocations at most, where a TLSB stream cost 47 before the tables
// kept the lists and strings between streams. With a cold one the extra is
// the distinct hellos': a key, a row and a fingerprint string each, and a
// constant for the chunks their lists are carved from and the maps' growth —
// not a slice per list.
func TestReadBatchesAllocsArePerStream(t *testing.T) {
	recs := buildBatchRecords(61, 32)
	one := encodeBatch(recs)
	pinStreamAllocs(t, one, bytes.Repeat(one, 32), func(rd *bytes.Reader, tab *decodeTables) error {
		_, _, err := readBatches(rd, nullSink(), tab)
		return err
	})
}

// TestReadLogAllocsArePerStream is the same pin for the TSV reader.
func TestReadLogAllocsArePerStream(t *testing.T) {
	one := tsvLog(buildBatchRecords(61, 32))
	pinStreamAllocs(t, one, bytes.Repeat(one, 32), func(rd *bytes.Reader, tab *decodeTables) error {
		_, _, err := readLogTail(rd, 0, nullSink(), tab)
		return err
	})
}

func pinStreamAllocs(t *testing.T, one, many []byte, read func(*bytes.Reader, *decodeTables) error) {
	t.Helper()
	rd := bytes.NewReader(nil)
	run := func(stream []byte, tab *decodeTables) {
		rd.Reset(stream)
		if err := read(rd, tab); err != nil {
			t.Fatal(err)
		}
	}
	warm := newDecodeTables()
	run(one, warm)
	hellos := len(warm.rows)
	a1 := testing.AllocsPerRun(20, func() { run(one, warm) })
	a32 := testing.AllocsPerRun(20, func() { run(many, warm) })
	if a32 != a1 {
		t.Errorf("warm table: 32× the stream costs %v allocs, 1× %v: per-record allocation crept into the reader", a32, a1)
	}
	if a32 > 8 {
		t.Errorf("warm table: a stream costs %v allocs, want at most 8", a32)
	}
	cold := testing.AllocsPerRun(20, func() { run(many, newDecodeTables()) })
	if extra := cold - a32; hellos < 20 || extra > 3*float64(hellos)+40 {
		t.Errorf("cold table: %v allocs over the warm %v for %d distinct hellos, want at most 3 each + 40", extra, a32, hellos)
	}
	t.Logf("warm %v allocs per stream; cold %v over it for %d distinct hellos", a32, cold-a32, hellos)
}
