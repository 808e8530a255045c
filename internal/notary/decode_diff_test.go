package notary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tlsage/internal/registry"
)

// Differential tests: the production record decoders against the reference
// decoders of decode_ref_test.go — same accept/reject, same error text, same
// records — on hand-built edge cases and on whatever the fuzzer finds.

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkHandle holds a record's row to what a row promises: its shape is the
// one shapeOf makes of its lists (extensions sorted).
func checkHandle(r *Record) error {
	row := r.row()
	want := shapeOf(row.Suites, row.Extensions, row.SupportedVersions, nil)
	slices.Sort(want.exts)
	got := row.shape
	if !slices.Equal(got.exts, want.exts) {
		return fmt.Errorf("row extensions %v, shapeOf %v", got.exts, want.exts)
	}
	got.exts, want.exts = nil, nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("row shape %+v, shapeOf %+v", got, want)
	}
	return nil
}

// sameRecord reports whether a and b say the same thing: every field, and
// the hello of their rows, which name the table a record came through and
// are held to their lists by checkHandle. A row holds an empty list as nil,
// whoever made it.
func sameRecord(t testing.TB, a, b *Record) bool {
	t.Helper()
	x, y := *a, *b
	for _, r := range []*Record{&x, &y} {
		if err := checkHandle(r); err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(x.row().Hello, y.row().Hello) {
		return false
	}
	x.hello, y.hello = nil, nil
	return reflect.DeepEqual(&x, &y)
}

func requireSameRecords(t *testing.T, what string, got, want []*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records delivered, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameRecord(t, got[i], want[i]) {
			t.Fatalf("%s: record %d\n have %+v\n want %+v", what, i, got[i], want[i])
		}
	}
}

// requireSameAggregate: folding the decoder's records as they are delivered —
// through their rows, one by one (Add) or a cell at a time (a ShardBuilder's
// Flush) — gives the aggregate the reference's records give, Pos[c].Sum,
// FPCaps.Classes, lifetime dates and generation bit for bit.
func requireSameAggregate(t *testing.T, what string, got, want *Aggregate) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the aggregate of the records as delivered differs from the aggregate of the reference's", what)
	}
}

// classified returns an empty aggregate that attributes the fingerprints with
// an 'f' in them: the sample record's, and most of the random ones.
func classified() *Aggregate {
	agg := NewAggregate()
	agg.SetClassifier(testClassifier{mark: "f"})
	return agg
}

// tablePasses are the decoder tables a differential test reads its stream
// through: a cold table, the same table again now that it holds the stream's
// hellos, and whatever the decoder's pool hands out (nil).
func tablePasses() []struct {
	name string
	tab  *decodeTables
} {
	t := newDecodeTables()
	return []struct {
		name string
		tab  *decodeTables
	}{{"cold table", t}, {"warm table", t}, {"pooled table", nil}}
}

// diffReadBatches holds ReadBatches to the reference under the current
// rules, and the current rules to the predecessor's but for two refusals.
func diffReadBatches(t *testing.T, data []byte) {
	t.Helper()
	var want, old collectSink
	wagg := classified()
	wf, wn, werr := refReadBatches(bytes.NewReader(data), Tee(&want, wagg), current)
	for _, p := range tablePasses() {
		pass := p.name
		var got collectSink
		agg, built := classified(), NewShardBuilder(classified)
		var gf, gn uint64
		var gerr error
		if p.tab != nil {
			gf, gn, gerr = readBatches(bytes.NewReader(data), Tee(&got, agg, built), p.tab)
		} else {
			gf, gn, gerr = ReadBatches(bytes.NewReader(data), Tee(&got, agg, built))
		}
		if gf != wf || gn != wn || errText(gerr) != errText(werr) {
			t.Fatalf("ReadBatches, %s: %d frames, %d records, err %v\nreference:   %d frames, %d records, err %v",
				pass, gf, gn, gerr, wf, wn, werr)
		}
		var be *BatchError
		if gerr != nil && !errors.As(gerr, &be) {
			t.Fatalf("ReadBatches, %s: err %v is not a *BatchError", pass, gerr)
		}
		requireSameRecords(t, "ReadBatches, "+pass, got.recs, want.recs)
		requireSameAggregate(t, "ReadBatches, "+pass, agg, wagg)
		requireSameAggregate(t, "ReadBatches, "+pass+", through a builder", built.Flush(), wagg)
	}

	_, on, oerr := refReadBatches(bytes.NewReader(data), &old, predecessor)
	if on != wn || errText(oerr) != errText(werr) {
		// The two things the predecessor took and this build does not: a
		// record string the TSV log cannot carry, and a list past the cap.
		if werr == nil || on < wn {
			t.Fatalf("the rules changed more than the two refusals:\n now    %d records, err %v\n before %d records, err %v",
				wn, werr, on, oerr)
		}
		switch {
		case strings.Contains(werr.Error(), "cannot be written to a log line"):
			// Where the predecessor got through the record, it shows the string.
			if on > wn {
				bad := old.recs[wn]
				if loggable([]byte(bad.Fingerprint())) && loggable([]byte(bad.Truth())) && loggable([]byte(bad.ServerCohort)) {
					t.Fatalf("record %d refused for its strings, but all three can be logged: %+v", wn, bad)
				}
			}
		case strings.Contains(werr.Error(), fmt.Sprintf("elements exceeds %d", maxListLen)):
			if on > wn && longestList(old.recs[wn]) <= maxListLen {
				t.Fatalf("record %d refused for a list of %d elements", wn, longestList(old.recs[wn]))
			}
		default:
			t.Fatalf("the rules changed more than the two refusals:\n now    %d records, err %v\n before %d records, err %v",
				wn, werr, on, oerr)
		}
	}
}

func longestList(r *Record) int {
	return max(len(r.Suites()), len(r.Extensions()), len(r.Curves()), len(r.PointFmts()), len(r.SupportedVersions()))
}

// diffReadLog is diffReadBatches for the log readers — lines, frames and the
// entry rule between them — the parallel one included: it must stop with the
// serial reader's error.
func diffReadLog(t *testing.T, data []byte) {
	t.Helper()
	var want, old collectSink
	wagg := classified()
	wn, wbase, werr := refReadLogTail(bytes.NewReader(data), 0, Tee(&want, wagg), current)
	for _, p := range tablePasses() {
		pass := p.name
		var got collectSink
		agg, built := classified(), NewShardBuilder(classified)
		var gn, gbase uint64
		var gerr error
		if p.tab != nil {
			gn, gbase, gerr = readLogTail(bytes.NewReader(data), 0, Tee(&got, agg, built), p.tab)
		} else {
			gn, gbase, gerr = ReadLogTail(bytes.NewReader(data), 0, Tee(&got, agg, built))
		}
		if gn != wn || gbase != wbase || errText(gerr) != errText(werr) {
			t.Fatalf("ReadLogTail, %s: %d records, base %d, err %v\nreference:   %d records, base %d, err %v",
				pass, gn, gbase, gerr, wn, wbase, werr)
		}
		requireSameRecords(t, "ReadLogTail, "+pass, got.recs, want.recs)
		requireSameAggregate(t, "ReadLogTail, "+pass, agg, wagg)
		requireSameAggregate(t, "ReadLogTail, "+pass+", through a builder", built.Flush(), wagg)
	}

	pagg, perr := readLogParallel(bytes.NewReader(data), 3, 61, nil)
	if errText(perr) != errText(werr) || (perr == nil && uint64(pagg.TotalRecords()) != wn) {
		t.Fatalf("readLogParallel: err %v, serial reader %d records, err %v", perr, wn, werr)
	}

	on, _, oerr := refReadLogTail(bytes.NewReader(data), 0, &old, predecessor)
	if on != wn || errText(oerr) != errText(werr) {
		// The things the predecessor took and this build does not: a list
		// element past its type's range, which it then truncated, a list past
		// the cap, and a string a log cannot carry — in a line a carriage
		// return, in a frame the log holds what ReadBatches refuses too.
		var wide uint64
		refused := false
		if werr != nil {
			if _, elem, ok := strings.Cut(werr.Error(), "bad hex list element "); ok {
				elem, _ = strconv.Unquote(elem)
				wide, _ = strconv.ParseUint(elem, 16, 16)
			}
			for _, text := range []string{fmt.Sprintf("hex list exceeds %d elements", maxListLen),
				fmt.Sprintf("elements exceeds %d", maxListLen), "cannot be written to a log"} {
				refused = refused || strings.Contains(werr.Error(), text)
			}
		}
		if !(wide > 0xff || refused) || on < wn {
			t.Fatalf("the rules changed more than the refusals:\n now    %d records, err %v\n before %d records, err %v",
				wn, werr, on, oerr)
		}
	}
}

// --- TLSB seeds ---

// appendRecordSpelled is appendRecordBinary — a version-2 record — with the
// varint writer exposed, so a seed can spell every value of a record the long
// way round.
func appendRecordSpelled(dst []byte, r *Record, uv func([]byte, uint64) []byte) []byte {
	list := func(dst []byte, n int, at func(int) uint64) []byte {
		dst = uv(dst, uint64(n))
		for i := 0; i < n; i++ {
			dst = uv(dst, at(i))
		}
		return dst
	}
	str := func(dst []byte, s string) []byte { return append(uv(dst, uint64(len(s))), s...) }
	dst = append(dst, recordFlags(r))
	dst = uv(uv(uv(dst, uint64(r.Date.Year)), uint64(r.Date.Month)), uint64(r.Date.Day))
	dst = uv(uv(uv(uv(dst, uint64(r.ClientVersion)), uint64(r.Version)), uint64(r.Suite)), uint64(r.Curve))
	dst = append(dst, r.AlertDesc)
	h := r.row()
	dst = list(dst, len(h.Suites), func(i int) uint64 { return uint64(h.Suites[i]) })
	dst = list(dst, len(h.Extensions), func(i int) uint64 { return uint64(h.Extensions[i]) })
	dst = list(dst, len(h.Curves), func(i int) uint64 { return uint64(h.Curves[i]) })
	dst = list(dst, len(h.PointFmts), func(i int) uint64 { return uint64(h.PointFmts[i]) })
	dst = list(dst, len(h.SupportedVersions), func(i int) uint64 { return uint64(h.SupportedVersions[i]) })
	return str(str(str(dst, h.Fingerprint), h.Truth), r.ServerCohort)
}

// paddedUvarint writes v as a varint of at least width bytes: legal to
// binary.Uvarint, never what AppendUvarint writes. 0x80 0x00 is zero.
func paddedUvarint(width int) func([]byte, uint64) []byte {
	return func(dst []byte, v uint64) []byte {
		start := len(dst)
		dst = binary.AppendUvarint(dst, v)
		for len(dst)-start < width {
			dst[len(dst)-1] |= 0x80
			dst = append(dst, 0)
		}
		return dst
	}
}

// spelledFrame frames recs, as version 2 spells them, with every varint
// written by uv, count included.
func spelledFrame(recs []*Record, uv func([]byte, uint64) []byte) []byte {
	payload := uv(nil, uint64(len(recs)))
	for _, r := range recs {
		payload = appendRecordSpelled(payload, r, uv)
	}
	return reframe(2, payload)
}

// tlsbSeeds are the inputs the kernels' fall-through tails exist for.
func tlsbSeeds() map[string][]byte {
	recs := buildBatchRecords(17, 12)
	one := sampleRecord()
	seeds := map[string][]byte{
		"empty":      {},
		"magic only": []byte(batchFormat.Magic),
		"no records": encodeBatch(nil),
		"valid":      encodeBatch(recs),
		"two frames": append(encodeBatch(recs[:5]), encodeBatch(recs[5:])...),
	}
	// Overlong spellings: 0x80 0x00 and friends are accepted, up to the ten
	// bytes binary.Uvarint reads, and refused past them.
	for _, w := range []int{2, 3, 4, 10, 11} {
		seeds[fmt.Sprintf("varints padded to %d bytes", w)] = spelledFrame(recs, paddedUvarint(w))
	}
	// One value out of its range, in each list and each scalar, at each
	// width the fast loop reads.
	for _, v := range []uint64{0xff, 0x100, 0x3fff, 0x4000, 0xffff, 0x10000, 0x1fffff, 0x200000, 1 << 40} {
		for field := 0; field < 9; field++ {
			n := 0
			uv := func(dst []byte, x uint64) []byte {
				// Varints of a record, in order: 3 date, 4 scalars, then per
				// list a count and its elements. Replace the field-th scalar,
				// or the first element of list field-4.
				n++
				switch {
				case field < 4 && n == 4+field:
					x = v
				case field >= 4 && n == listElementOrdinal(one, field-4):
					x = v
				}
				return binary.AppendUvarint(dst, x)
			}
			payload := appendRecordSpelled(binary.AppendUvarint(nil, 1), one, uv)
			seeds[fmt.Sprintf("value %#x in field %d", v, field)] = reframe(2, payload)
		}
	}
	// A payload that ends inside, or just after, each of the last bytes of a
	// record: lists ending one and two bytes before the payload's end, string
	// lengths with nothing behind them.
	short := withHello(&Record{Date: one.Date}, Hello{Suites: []uint16{0xc02f, 5}, SupportedVersions: []registry.Version{0x0303}})
	whole := appendRecordBinary(binary.AppendUvarint(nil, 1), short)
	for cut := 1; cut <= 12 && cut < len(whole); cut++ {
		seeds[fmt.Sprintf("payload cut %d bytes short", cut)] = reframe(2, whole[:len(whole)-cut])
	}
	// Strings the TSV log cannot carry.
	for _, s := range []string{"a\tb", "a\nb", "a\rb", "\r", "-", "--", " - "} {
		for field := 0; field < 3; field++ {
			r := withString(one.Clone(), field, s)
			seeds[fmt.Sprintf("string %q in field %d", s, field)] = encodeBatch([]*Record{recs[0], r, recs[1]})
		}
	}
	// Streams that try the hello table: every one repeats its hellos, so the
	// later records are table hits — or must not be.
	a, b := helloPair(func(h *Hello) { h.Suites = []uint16{0xc02f, 0x0005, 0x000a} })
	seeds["one fingerprint over two lists"] = encodeBatch([]*Record{a, b, a, b, b, a})
	a, b = helloPair(func(h *Hello) { h.Suites[0] = 0x1a1a })
	editHello(a, func(h *Hello) { h.Suites[0] = 0x0a0a })
	seeds["lists differing only in a GREASE value"] = encodeBatch([]*Record{a, b, a, b, b, a})
	a, b = helloPair(func(h *Hello) { h.Truth = "Firefox" })
	seeds["one hello under two truth labels"] = encodeBatch([]*Record{a, b, a, b})
	spellings := binary.AppendUvarint(nil, 6)
	for i := 0; i < 6; i++ {
		spellings = appendRecordSpelled(spellings, one, paddedUvarint(1+i%3))
	}
	seeds["one hello spelled three ways"] = reframe(2, spellings)
	twice := appendRecordBinary(appendRecordBinary(binary.AppendUvarint(nil, 2), one), one)
	for cut := 1; cut <= len(one.Fingerprint())+len(one.Truth())+len(one.ServerCohort)+6; cut++ {
		seeds[fmt.Sprintf("a known hello cut %d bytes short", cut)] = reframe(2, twice[:len(twice)-cut])
	}
	bare := withHello(&Record{Date: one.Date}, Hello{Suites: []uint16{5}})
	seeds["a hello that ends its payload"] = encodeBatch([]*Record{bare, one, bare, bare})
	// Every seed above that a BatchWriter framed is version 3; the hand-spelled
	// ones are version 2. The same records the other way round, and together.
	seeds["valid, version 2"] = encodeBatchV2(recs)
	seeds["a version-2 frame, then a version-3 frame"] = append(encodeBatchV2(recs[:5]), encodeBatch(recs[5:])...)
	seeds["a hello that ends its payload, version 2"] = encodeBatchV2([]*Record{bare, one, bare, bare})
	// Frames whose checksum holds and whose payload does not, in either
	// version's spelling of one record; the second is how a version-3 writer
	// opens a frame with it.
	for version, rec := range map[byte][]byte{2: appendRecordBinary(nil, one), 3: appendRecordV3(nil, one, binary.AppendUvarint, 1, true, 1, true)} {
		flagged := append(appendCount(nil, 1), rec...)
		flagged[1] |= 0x80 // the record's flags byte
		for name, payload := range map[string][]byte{
			"a count over the payload": appendCount(nil, 50),
			"a count over the records": append(appendCount(nil, 2), rec...),
			"a byte after the records": append(append(appendCount(nil, 1), rec...), 0xff),
			"unknown flag bits":        flagged,
			"an empty payload":         nil,
		} {
			seeds[fmt.Sprintf("malformed, version %d: %s", version, name)] = reframe(version, payload)
		}
	}
	for name, data := range v3Seeds() {
		seeds[name] = data
	}
	return seeds
}

// appendRecordV3 spells r as a version-3 record by hand: the two references
// as given and as uv writes them, each followed by its value when the flag
// says so — whether or not the rule does.
func appendRecordV3(dst []byte, r *Record, uv func([]byte, uint64) []byte, helloRef uint64, hello bool, cohortRef uint64, cohort bool) []byte {
	dst = uv(appendRecordHead(dst, r), helloRef)
	if hello {
		dst = appendHelloSpan(dst, &r.row().Hello)
	}
	dst = uv(dst, cohortRef)
	if cohort {
		dst = appendString(dst, r.ServerCohort)
	}
	return dst
}

// v3Frame frames records spelled by appendRecordV3.
func v3Frame(recs ...[]byte) []byte {
	return reframe(3, bytes.Join(append([][]byte{appendCount(nil, len(recs))}, recs...), nil))
}

// v3Seeds are the shapes the frame dictionaries add: references the rule
// refuses, entries that must not outlive their frame or their bounds, and
// entries that must outlive the decoder table's.
func v3Seeds() map[string][]byte {
	a, b := sampleRecord(), sampleRecord()
	editHello(b, func(h *Hello) { h.Suites = []uint16{0xc02f, 0x0005} })
	b.ServerCohort = "legacy-rsa"
	uv := binary.AppendUvarint
	def := func(r *Record, hello, cohort uint64) []byte {
		return appendRecordV3(nil, r, uv, hello, true, cohort, true)
	}
	ref := func(r *Record, hello, cohort uint64) []byte {
		return appendRecordV3(nil, r, uv, hello, false, cohort, false)
	}
	two := v3Frame(def(a, 1, 1), def(b, 2, 2), ref(a, 1, 1), ref(b, 2, 2), ref(b, 2, 1))
	seeds := map[string][]byte{
		"v3: two entries of each kind":      two,
		"v3: a forward hello reference":     v3Frame(def(a, 1, 1), def(b, 3, 2)),
		"v3: a forward cohort reference":    v3Frame(def(a, 1, 1), def(b, 2, 3)),
		"v3: a reference before any entry":  v3Frame(ref(a, 2, 1)),
		"v3: entry 2 of the previous frame": append(bytes.Clone(two), v3Frame(ref(b, 2, 2))...),
		// With nothing defined a 1 is a definition: what follows is read as one.
		"v3: entry 1 of the previous frame": append(bytes.Clone(two), v3Frame(ref(a, 1, 1))...),
		"v3: the previous frame again":      append(bytes.Clone(two), two...),
		"v3: values sent as 0 are not entries": v3Frame(def(a, 0, 0), def(a, 1, 1), ref(a, 1, 1), def(b, 0, 0), def(b, 2, 2),
			ref(b, 2, 2), ref(a, 1, 2)),
		"v3: a 0 is not entry 1":          v3Frame(def(a, 0, 0), ref(a, 1, 1)),
		"v3: one hello under two entries": v3Frame(def(a, 1, 1), def(a, 2, 2), ref(a, 1, 2), ref(a, 2, 1)),
		"v3: a definition with no value":  v3Frame(def(a, 1, 1), ref(b, 2, 2)),
		"v3: a reference with a value":    v3Frame(def(a, 1, 1), def(a, 1, 1)),
	}
	// References spelled the long way round are references all the same.
	uv = paddedUvarint(2)
	seeds["v3: references padded to 2 bytes"] = v3Frame(def(a, 1, 1), ref(a, 1, 1), def(b, 2, 2), ref(b, 2, 1), def(b, 0, 0))
	uv = binary.AppendUvarint
	// A definition above maxHelloSpan bytes is refused; the same value sent as
	// 0, which is what a writer does with it, is read every time and never kept.
	long, wide := sampleRecord(), sampleRecord()
	editHello(long, func(h *Hello) { h.Fingerprint = strings.Repeat("f", maxHelloSpan+1) })
	wide.ServerCohort = strings.Repeat("c", maxHelloSpan+1)
	seeds["v3: a hello definition past the span bound"] = v3Frame(def(a, 1, 1), appendRecordV3(nil, long, uv, 2, true, 1, false))
	seeds["v3: the same hello sent as 0"] = v3Frame(def(a, 1, 1), appendRecordV3(nil, long, uv, 0, true, 1, false),
		appendRecordV3(nil, long, uv, 0, true, 1, false), ref(a, 1, 1))
	seeds["v3: a cohort definition past the span bound"] = v3Frame(def(a, 1, 1), appendRecordV3(nil, wide, uv, 1, false, 2, true))
	seeds["v3: the same cohort sent as 0"] = v3Frame(def(a, 1, 1), appendRecordV3(nil, wide, uv, 1, false, 0, true),
		appendRecordV3(nil, wide, uv, 1, false, 0, true), ref(a, 1, 1))
	// A frame that fills the decoder's string table until it is emptied — by
	// its byte bound, with cohorts of maxHelloSpan bytes — and goes on naming
	// the entries it defined before that.
	churn := [][]byte{def(a, 1, 1), def(b, 2, 2)}
	for i := 0; i <= maxTableBytes/maxHelloSpan; i++ {
		r := *a
		r.ServerCohort = fmt.Sprintf("%0*d", maxHelloSpan, i)
		churn = append(churn, appendRecordV3(nil, &r, uv, 1+uint64(i%2), false, 0, true))
	}
	seeds["v3: the table emptied under the frame's entries"] = v3Frame(append(churn, ref(a, 1, 1), ref(b, 2, 2), ref(a, 1, 2))...)
	// A frame at its definition cap: a writer sends what is left as 0 (one
	// BatchWriter frame of more distinct hellos than the cap), and one
	// definition more is refused.
	many := distinctHellos(maxHelloRows + 40)
	seeds["v3: more distinct hellos than a frame may define"] = encodeBatch(many)
	atCap := make([][]byte, 0, maxHelloRows+2)
	for i, r := range many[:maxHelloRows] {
		r.ServerCohort = strconv.FormatInt(int64(i), 36)
		atCap = append(atCap, def(r, uint64(i+1), uint64(i+1)))
	}
	seeds["v3: a frame at its definition cap"] = v3Frame(append(atCap, ref(many[7], 8, 9), def(many[maxHelloRows], 0, 0))...)
	seeds["v3: one hello definition past the cap"] = v3Frame(append(atCap, def(many[maxHelloRows], maxHelloRows+1, 1))...)
	seeds["v3: one cohort definition past the cap"] = v3Frame(append(atCap, appendRecordV3(nil, many[maxHelloRows], uv, 1, false, maxHelloRows+1, true))...)
	// A writer cut short by the payload cap: the record that did not fit opens
	// the next frame, packed again.
	defer func(real uint64) { batchFormat.MaxPayload = real }(batchFormat.MaxPayload)
	batchFormat.MaxPayload = 1024
	seeds["v3: frames cut at the payload cap"] = encodeBatch(buildBatchRecords(23, 60))
	return seeds
}

// helloPair returns two copies of the sample record, the second's hello
// changed by edit: one fingerprint string, one everything else, over whatever
// differs.
func helloPair(edit func(*Hello)) (a, b *Record) {
	grease := func(h *Hello) { h.Suites = append([]uint16{0x2a2a}, h.Suites...) }
	a = editHello(sampleRecord(), grease)
	b = editHello(sampleRecord(), func(h *Hello) { grease(h); edit(h) })
	return a, b
}

// withString sets r's field-th record string — fp, truth, cohort — to s, and
// returns r.
func withString(r *Record, field int, s string) *Record {
	switch field {
	case 0:
		editHello(r, func(h *Hello) { h.Fingerprint = s })
	case 1:
		editHello(r, func(h *Hello) { h.Truth = s })
	default:
		r.ServerCohort = s
	}
	return r
}

// listElementOrdinal is the 1-based position, among the varints
// appendRecordSpelled writes for r, of the first element of its list-th list.
func listElementOrdinal(r *Record, list int) int {
	lens := []int{len(r.Suites()), len(r.Extensions()), len(r.Curves()), len(r.PointFmts()), len(r.SupportedVersions())}
	n := 3 + 4 // date, scalars
	for i := 0; i < list; i++ {
		n += 1 + lens[i]
	}
	return n + 2 // this list's count, then its first element
}

// --- TSV seeds ---

// tsvSeeds are log streams spelling fields every way strconv takes them, and
// several it does not.
func tsvSeeds() map[string][]byte {
	log := tsvLog(buildBatchRecords(19, 25))
	line := strings.TrimSuffix(string(sampleRecord().AppendTSV(nil)), "\n")
	f := strings.Split(line, "\t")
	with := func(field int, value string) []byte {
		g := append([]string(nil), f...)
		g[field] = value
		return []byte(line + "\n" + strings.Join(g, "\t") + "\n" + line + "\n")
	}
	seeds := map[string][]byte{
		"empty":               {},
		"valid":               log,
		"no final newline":    bytes.TrimSuffix(log, []byte("\n")),
		"crlf":                bytes.ReplaceAll(log, []byte("\n"), []byte("\r\n")),
		"blank and comments":  []byte("\n\n# c\n" + line + "\n\n#\n"),
		"19 fields":           []byte(strings.Join(f[:19], "\t") + "\n"),
		"21 fields":           []byte(line + "\tx\n"),
		"21 fields, bad date": []byte("x" + line + "\tx\n"),
		"trailing tab":        []byte(line + "\t\n"),
		"tabs only":           []byte(strings.Repeat("\t", 19) + "\n"),
		"base directives":     []byte(LogBaseDirective(7) + line + "\n" + LogBaseDirective(9) + line + "\n"),
		"base rewind":         []byte(line + "\n" + line + "\n" + LogBaseDirective(1) + line + "\n"),
		"base not a number":   []byte(line + "\n#base x\n" + line + "\n"), // a comment line
		"cr inside a string":  with(17, "a\rb"),
		"dash string":         with(18, "-"),
		"empty string":        with(19, ""),
		// Lines that try the hello table: the first line's hello is known by
		// the time the rest are read.
		"one fingerprint over two lists":         with(11, "c02f,0005,000a"),
		"lists differing only in a GREASE value": with(11, "0a0a,"+f[11]),
		"one hello, offers_hb F":                 with(16, "F"),
		"one hello, upper-case hex":              with(12, strings.ToUpper(f[12])),
		"one hello, another truth":               with(18, "Firefox"),
		"a known hello in 21 fields":             []byte(line + "\n" + line + "\tx\n"),
		"a known hello in 19 fields":             []byte(line + "\n" + strings.Join(f[1:], "\t") + "\n"),
		"a known hello, no cohort":               []byte(line + "\n" + strings.Join(f[:19], "\t") + "\n"),
		"a known hello, bad date":                []byte(line + "\n" + "x" + line + "\n" + line + "\n"),
		"a header, then a garbage line":          []byte(Header() + "garbage line\n"),
	}
	for _, empty := range []string{"-", ""} {
		g := append([]string(nil), f...)
		g[13], g[14] = empty, empty
		l := strings.Join(g, "\t") + "\n"
		seeds[fmt.Sprintf("empty lists spelled %q, twice", empty)] = []byte(l + l + line + "\n" + l)
	}
	for _, list := range []string{
		"C02F,c013", "c02f,C013,00Ff", "f", "0,1,22,333", "00000ffff", "0000c02f,c013", "10000", "c02f,10000",
		"c02f,", "c02f,,c013", ",c02f", ",", ",,", "c02f,c013,", "c02f, c013", "c02f c013", "+c02f", "0xc02f", "c0_2f",
		"c02g", "c02f,c01", "c02f,c013x", "-", "--", "-,c02f", "c02f,-", "", "c02f\r", "00ff", "0100", "0100,01ff", "ff", "100",
	} {
		for _, field := range []int{11, 14, 15} { // suites; point formats (uint8); supported versions
			seeds[fmt.Sprintf("list %q in field %d", list, field)] = with(field, list)
		}
	}
	for _, scalar := range []string{"C02F", "c02f", "f", "00000ffff", "10000", "", "-", "c02g", "+fff", "0x1f", " c02f", "c02f "} {
		for _, field := range []int{2, 3, 4, 10} {
			seeds[fmt.Sprintf("scalar %q in field %d", scalar, field)] = with(field, scalar)
		}
	}
	for _, alert := range []string{"0", "7", "40", "255", "256", "007", "0255", "", "-1", "+1", "a", "4 0"} {
		seeds[fmt.Sprintf("alert %q", alert)] = with(7, alert)
	}
	for _, flag := range []string{"T", "F", "", "t", "TT", "true", "-"} {
		seeds[fmt.Sprintf("flag %q", flag)] = with(1, flag)
		seeds[fmt.Sprintf("last flag %q", flag)] = with(16, flag)
	}
	for _, date := range []string{
		"2015-06-03", "2015-6-3", "02015-006-003", "+2015-06-03", "2015-+6-03", "0000-06-03", "9999-12-31", "10000-01-01",
		"2015-13-03", "2015-06-32", "2015-06-00", "2015/06/03", "2015-06-03-", "2015-06", "20150603", "", "-", "201a-06-03",
		"2015-0a-03", "2015-06-0a", "２０１５-06-03",
	} {
		seeds[fmt.Sprintf("date %q", date)] = with(0, date)
	}
	return seeds
}

// longLines are the line-ceiling cases, too big to hand the fuzzer: a record
// line one byte under the ceiling, and one at it.
func longLines() map[string][]byte {
	line := strings.TrimSuffix(string(sampleRecord().AppendTSV(nil)), "\n")
	f := strings.Split(line, "\t")
	padded := func(total int) []byte {
		g := append([]string(nil), f...)
		g[17] = strings.Repeat("f", total-(len(line)-len(f[17])))
		return []byte(line + "\n" + strings.Join(g, "\t") + "\n" + line + "\n")
	}
	return map[string][]byte{
		"a 4 MiB-1 line": padded(maxLogLine - 1),
		"a 4 MiB line":   padded(maxLogLine),
	}
}

func TestDecodersMatchReference(t *testing.T) {
	tlsb, tsv, logs := tlsbSeeds(), tsvSeeds(), logSeeds()
	for name, data := range tlsb {
		t.Run("tlsb/"+name, func(t *testing.T) { diffReadBatches(t, data) })
	}
	for _, seeds := range []map[string][]byte{tsv, longLines()} {
		for name, data := range seeds {
			t.Run("tsv/"+name, func(t *testing.T) { diffReadLog(t, data) })
		}
	}
	for name, data := range logs {
		t.Run("log/"+name, func(t *testing.T) { diffReadLog(t, data) })
	}
	// The seeds above are only worth their names if both outcomes occur.
	var sink collectSink
	if _, _, err := ReadBatches(bytes.NewReader(tlsb["varints padded to 10 bytes"]), &sink); err != nil || len(sink.recs) != 12 {
		t.Errorf("ten-byte varints: %d records, err %v; want all 12 accepted", len(sink.recs), err)
	}
	if _, _, err := ReadBatches(bytes.NewReader(tlsb["varints padded to 11 bytes"]), nullSink()); err == nil {
		t.Error("eleven-byte varints accepted")
	}
	if n, _, err := ReadLogTail(bytes.NewReader(longLines()["a 4 MiB-1 line"]), 0, nullSink()); err != nil || n != 3 {
		t.Errorf("a line one byte under the ceiling: %d records, err %v", n, err)
	}
	// refused requires a log reader to stop at a *LineError naming text,
	// after the given number of records.
	refused := func(t *testing.T, name string, data []byte, records uint64, text string) {
		t.Helper()
		var le *LineError
		if n, _, err := ReadLogTail(bytes.NewReader(data), 0, nullSink()); !errors.As(err, &le) || n != records || !strings.Contains(err.Error(), text) {
			t.Errorf("%s: %d records, err %v; want %d and a *LineError naming %q", name, n, err, records, text)
		}
	}
	t.Run("parse-tsv-errors", func(t *testing.T) {
		refused(t, "too few fields", tsv["19 fields"], 0, "line 1")
		for _, name := range []string{`date "201a-06-03"`, `scalar "c02g" in field 2`, `list "c02g" in field 11`} {
			refused(t, name, tsv[name], 1, "line 2")
		}
		refused(t, "a garbage line", tsv["a header, then a garbage line"], 0, "line 4")
	})
	// A #base directive that moves the generation backwards is a bad line:
	// the records before it are kept.
	t.Run("base-rewind", func(t *testing.T) {
		refused(t, "base rewind", tsv["base rewind"], 2, "line 3: base directive rewinds")
		refused(t, "a base directive rewinding a frame", logs["a base directive rewinding a frame"], 16, "rewinds generation 16")
	})
	// A point format is one byte, in both formats: 0x100 is refused, 0xff read.
	t.Run("point-formats-bounded", func(t *testing.T) {
		refused(t, "client_pfs 0100,01ff", tsv[`list "0100,01ff" in field 14`], 1, `bad hex list element "0100"`)
		var got collectSink
		if err := ReadLog(bytes.NewReader(tsv[`list "00ff" in field 14`]), &got); err != nil ||
			!reflect.DeepEqual(got.recs[1].PointFmts(), []registry.ECPointFormat{255}) {
			t.Errorf("client_pfs 00ff: %v, err %v", got.recs, err)
		}
		var be *BatchError
		if _, _, err := ReadBatches(bytes.NewReader(tlsb["value 0x100 in field 7"]), nullSink()); !errors.As(err, &be) ||
			!strings.Contains(err.Error(), "list element 256 out of range") {
			t.Errorf("TLSB point format 256: err %v, want a *BatchError naming it", err)
		}
	})
	// The entry rule: at an entry boundary the TLSB magic starts a frame; a
	// snapshot's magic, a header, a record line or under four bytes is a line.
	t.Run("is-batch-stream", func(t *testing.T) {
		if !IsBatchStream(logs["frames"]) || !IsBatchStream(logs["the magic alone"]) {
			t.Error("a frame's magic not recognized")
		}
		for _, s := range [][]byte{nil, []byte("T"), []byte("TLS"), []byte("TLSN"), tsv["valid"], tsv["dash string"]} {
			if IsBatchStream(s) {
				t.Errorf("%q misrecognized as a frame", s[:min(len(s), 16)])
			}
		}
	})
}

func FuzzReadLog(f *testing.F) {
	for _, seeds := range []map[string][]byte{tsvSeeds(), logSeeds()} {
		for _, data := range seeds {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffReadLog(t, data) })
}

// --- strings the log cannot carry ---

// Whatever ReadBatches accepts survives the TSV tee: the log LogWriter makes
// of it reads back as the same records. Strings are drawn from an alphabet
// heavy in the bytes the log format gives meaning to.
func TestAcceptedTLSBSurvivesTheTSVTee(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	text := func() string {
		b := make([]byte, rnd.Intn(4))
		for i := range b {
			const alphabet = "ab-#, \t\n\r\x00\xff"
			b[i] = alphabet[rnd.Intn(len(alphabet))]
		}
		return string(b)
	}
	base := buildBatchRecords(37, 32)
	accepted, refused := 0, 0
	for trial := 0; trial < 3000; trial++ {
		r := base[rnd.Intn(len(base))].Clone()
		fp, truth := text(), text()
		editHello(r, func(h *Hello) { h.Fingerprint, h.Truth = fp, truth })
		r.ServerCohort = text()
		var log bytes.Buffer
		var took collectSink
		lw := NewLogWriter(&log)
		if _, _, err := ReadBatches(bytes.NewReader(encodeBatch([]*Record{r})), Tee(&took, lw)); err != nil {
			refused++
			continue
		}
		accepted++
		if err := lw.Flush(); err != nil {
			t.Fatal(err)
		}
		var back collectSink
		if err := ReadLog(&log, &back); err != nil {
			t.Fatalf("accepted %q/%q/%q, but the teed log does not replay: %v", fp, truth, r.ServerCohort, err)
		}
		requireSameRecords(t, fmt.Sprintf("tee of %q/%q/%q", fp, truth, r.ServerCohort), back.recs, took.recs)
	}
	if accepted < 300 || refused < 300 {
		t.Fatalf("vacuous: %d inputs accepted, %d refused", accepted, refused)
	}
	// A record whose fp, truth or cohort would add or drop a log field, or
	// read back as empty, is refused as a *BatchError after the record before
	// it, and what was delivered replays from the tee.
	t.Run("refuses-strings-the-log-cannot-carry", func(t *testing.T) {
		seeds := tlsbSeeds()
		for _, s := range []string{"a\tb", "a\nb", "a\rb", "-"} {
			for field := 0; field < 3; field++ {
				name := fmt.Sprintf("string %q in field %d", s, field)
				var log bytes.Buffer
				var took, back collectSink
				lw := NewLogWriter(&log)
				_, n, err := ReadBatches(bytes.NewReader(seeds[name]), Tee(&took, lw))
				var be *BatchError
				if !errors.As(err, &be) || n != 1 {
					t.Errorf("%s: %d records, err %v; want the first record and a *BatchError", name, n, err)
					continue
				}
				if err := lw.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := ReadLog(&log, &back); err != nil {
					t.Fatalf("%s: the teed log does not replay: %v", name, err)
				}
				requireSameRecords(t, name+": the teed log", back.recs, took.recs)
			}
		}
	})
}
