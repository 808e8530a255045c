package notary

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// The record decoders as they were before the fixed-shape kernels: one
// generic binary.Uvarint call per varint, one strings.IndexByte and one
// strconv.ParseUint per hex element, a string per line. They are the oracles
// of the differential tests in decode_diff_test.go and share no decoding
// statement with production — only the snapDecoder struct, its fail method
// and the frame envelope.
//
// refRules names the three places the production decoders are deliberately
// stricter than these were. With all off a reference is its predecessor,
// verbatim; the differential tests compare production against all on and
// check that off-versus-on differs on nothing but those three refusals.
type refRules struct {
	loggableStrings bool // both: fp/truth/cohort must survive a TSV line (TSV can only spell the CR)
	boundedElements bool // TSV: a list element must fit its code-point type
	listCap         bool // both: a list holds at most maxListLen elements
}

var predecessor, current = refRules{}, refRules{loggableStrings: true, boundedElements: true, listCap: true}

// --- TLSB ---

func refUvarint(d *snapDecoder) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func refCount(d *snapDecoder) int {
	v := refUvarint(d)
	if v > uint64(math.MaxInt)/2 {
		d.fail("implausible count %d", v)
		return 0
	}
	return int(v)
}

func refLength(d *snapDecoder, min int) int {
	n := refCount(d)
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > d.remaining()/min {
		d.fail("length %d exceeds remaining %d bytes", n, d.remaining())
		return 0
	}
	return n
}

func refByte(d *snapDecoder) byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("unexpected end of payload")
		return 0
	}
	b := d.b[d.off]
	d.off++
	return b
}

func refU16(d *snapDecoder) uint16 {
	v := refUvarint(d)
	if v > math.MaxUint16 {
		d.fail("code point %d exceeds uint16", v)
		return 0
	}
	return uint16(v)
}

func refDate(d *snapDecoder) timeline.Date {
	y := refCount(d)
	m := refCount(d)
	day := refCount(d)
	if d.err != nil {
		return timeline.Date{}
	}
	if !validDate(y, m, day) {
		d.fail("bad date %d-%d-%d", y, m, day)
		return timeline.Date{}
	}
	return timeline.Date{Year: y, Month: time.Month(m), Day: day}
}

func refStr(d *snapDecoder, in map[string]string, rules refRules) string {
	n := refLength(d, 1)
	if d.err != nil || n == 0 {
		return ""
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	if rules.loggableStrings && (bytes.ContainsAny(b, "\t\n\r") || string(b) == "-") {
		d.fail("record string %q cannot be written to a log line", b)
		return ""
	}
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in) < maxInternEntries {
		in[s] = s
	}
	return s
}

func refDecodeCodeList[T ~uint8 | ~uint16](d *snapDecoder, dst []T, max uint64, rules refRules) []T {
	n := refLength(d, 1)
	dst = dst[:0]
	if rules.listCap && n > maxListLen {
		d.fail("list of %d elements exceeds %d", n, maxListLen)
		return dst
	}
	for i := 0; i < n && d.err == nil; i++ {
		v := refUvarint(d)
		if v > max {
			d.fail("list element %d out of range", v)
			return dst
		}
		dst = append(dst, T(v))
	}
	return dst
}

// refEntries is what a version-3 frame has defined so far, as the reference
// keeps it: the values, looked up by position and nothing else.
type refEntries struct {
	hellos  []Hello
	cohorts []string
}

// refRef reads a version-3 reference against the defined entries of its kind.
func refRef(d *snapDecoder, defined int) int {
	v := refUvarint(d)
	if d.err != nil {
		return 0
	}
	if v > uint64(defined)+1 {
		d.fail("reference %d, but the frame has defined %d entries", v, defined)
		return 0
	}
	if v == uint64(defined)+1 && defined >= maxHelloRows {
		d.fail("more than %d definitions in one frame", maxHelloRows)
		return 0
	}
	return int(v)
}

// refDecodeRecordBinary decodes one record into r, its hello into h, whose
// lists it allocates afresh.
func refDecodeRecordBinary(d *snapDecoder, r *Record, h *Hello, in map[string]string, rules refRules, version byte, e *refEntries) {
	*r = Record{}
	flags := refByte(d)
	if d.err == nil && flags&^byte(batchFlagMask) != 0 {
		d.fail("unknown record flag bits %#x", flags)
		return
	}
	r.Established = flags&batchEstablished != 0
	r.OffersHeartbeat = flags&batchOffersHB != 0
	r.HeartbeatAck = flags&batchHBAck != 0
	r.SuiteUnoffer = flags&batchSuiteUnoffer != 0
	r.UsedFallback = flags&batchFallback != 0
	r.SSLv2Hello = flags&batchSSLv2 != 0
	r.Date = refDate(d)
	r.ClientVersion = registry.Version(refU16(d))
	r.Version = registry.Version(refU16(d))
	r.Suite = refU16(d)
	r.Curve = registry.CurveID(refU16(d))
	r.AlertDesc = refByte(d)
	ref := 0
	if version >= 3 {
		ref = refRef(d, len(e.hellos))
	}
	if ref >= 1 && ref <= len(e.hellos) {
		*h = e.hellos[ref-1]
	} else {
		start := d.off
		h.Suites = refDecodeCodeList[uint16](d, nil, math.MaxUint16, rules)
		h.Extensions = refDecodeCodeList[registry.ExtensionID](d, nil, math.MaxUint16, rules)
		h.Curves = refDecodeCodeList[registry.CurveID](d, nil, math.MaxUint16, rules)
		h.PointFmts = refDecodeCodeList[registry.ECPointFormat](d, nil, math.MaxUint8, rules)
		h.SupportedVersions = refDecodeCodeList[registry.Version](d, nil, math.MaxUint16, rules)
		h.Fingerprint = refStr(d, in, rules)
		h.Truth = refStr(d, in, rules)
		if ref != 0 && d.err == nil {
			if d.off-start > maxHelloSpan {
				d.fail("definition of %d bytes exceeds %d", d.off-start, maxHelloSpan)
				return
			}
			e.hellos = append(e.hellos, *h)
		}
	}
	ref = 0
	if version >= 3 {
		ref = refRef(d, len(e.cohorts))
	}
	if ref >= 1 && ref <= len(e.cohorts) {
		r.ServerCohort = e.cohorts[ref-1]
		return
	}
	start := d.off
	r.ServerCohort = refStr(d, in, rules)
	if ref != 0 && d.err == nil {
		if d.off-start > maxHelloSpan {
			d.fail("definition of %d bytes exceeds %d", d.off-start, maxHelloSpan)
			return
		}
		e.cohorts = append(e.cohorts, r.ServerCohort)
	}
}

func refReadBatches(r io.Reader, sink Sink, rules refRules) (frames, records uint64, err error) {
	fr := batchFormat.NewReader(r)
	intern := make(map[string]string)
	var tab HelloTable
	for frame := 0; ; frame++ {
		version, payload, err := fr.Next()
		if err == io.EOF {
			return frames, records, nil
		}
		if err != nil {
			return frames, records, &BatchError{Frame: frame, Err: err}
		}
		_, n, err := refDecodeFrame(frame, version, payload, intern, &tab, rules, 0, sink)
		records += n
		if err != nil {
			return frames, records, err
		}
		frames++
	}
}

// refDecodeFrame decodes one frame's payload record by record, interning each
// hello through tab, and delivers the records past the first skip; a frame of
// no more than skip records is believed at its count.
func refDecodeFrame(frame int, version byte, payload []byte, intern map[string]string, tab *HelloTable, rules refRules, skip uint64, sink Sink) (held, delivered uint64, err error) {
	var rec Record
	var h Hello
	d := &snapDecoder{b: payload, what: "batch"}
	minLen := 17 // flags, 3 date, 4 code points, alert, 5 counts, 3 string lengths
	if version >= 3 {
		minLen = 11 // two references in place of the counts and lengths
	}
	count := refLength(d, minLen)
	if d.err == nil && count > 0 && uint64(count) <= skip {
		return uint64(count), 0, nil
	}
	var entries refEntries // nothing crosses a frame
	for i := 0; i < count && d.err == nil; i++ {
		refDecodeRecordBinary(d, &rec, &h, intern, rules, version, &entries)
		if d.err != nil {
			break
		}
		tab.Intern(&rec, &h)
		if held++; held <= skip {
			continue
		}
		if err := sink.Observe(&rec); err != nil {
			return held, delivered, err
		}
		delivered++
	}
	if d.err == nil && d.remaining() != 0 {
		d.fail("%d trailing bytes", d.remaining())
	}
	if d.err != nil {
		return held, delivered, &BatchError{Frame: frame, Err: d.err}
	}
	return held, delivered, nil
}

// --- the version-2 record encoder ---

// appendRecordBinary packs r the way BatchWriter did through version 2: every
// hello and cohort in line, no references. It is the oracle version-3 streams
// are held to (the same records must come back from either spelling) and what
// the hand-built payloads of these tests start from.
func appendRecordBinary(dst []byte, r *Record) []byte {
	return appendString(appendHelloSpan(appendRecordHead(dst, r), &r.row().Hello), r.ServerCohort)
}

func appendRecordHead(dst []byte, r *Record) []byte {
	dst = append(dst, recordFlags(r))
	dst = appendDateEnc(dst, r.Date)
	dst = appendUvarint(dst, uint64(r.ClientVersion))
	dst = appendUvarint(dst, uint64(r.Version))
	dst = appendUvarint(dst, uint64(r.Suite))
	dst = appendUvarint(dst, uint64(r.Curve))
	return append(dst, r.AlertDesc)
}

// encodeBatchV2 frames recs as one version-2 frame.
func encodeBatchV2(recs []*Record) []byte {
	payload := appendCount(nil, len(recs))
	for _, r := range recs {
		payload = appendRecordBinary(payload, r)
	}
	return reframe(2, payload)
}

// --- TSV ---

// refParseTSVInto parses one line into r, interning its hello through tab.
func refParseTSVInto(r *Record, line string, rules refRules, tab *HelloTable) error {
	*r = Record{}
	var h Hello
	line = strings.TrimSuffix(line, "\n")
	var fields [20]string
	n := 0
	for s := line; ; {
		i := strings.IndexByte(s, '\t')
		if i < 0 {
			if n < len(fields) {
				fields[n] = s
			}
			n++
			break
		}
		if n < len(fields) {
			fields[n] = s[:i]
		}
		n++
		s = s[i+1:]
	}
	if n != 20 {
		return fmt.Errorf("notary: %d fields, want 20", n)
	}
	var err error
	if r.Date, err = refParseDate(fields[0]); err != nil {
		return err
	}
	r.Established = fields[1] == "T"
	if v, err := strconv.ParseUint(fields[2], 16, 16); err == nil {
		r.Version = registry.Version(v)
	} else {
		return err
	}
	if v, err := strconv.ParseUint(fields[3], 16, 16); err == nil {
		r.Suite = uint16(v)
	} else {
		return err
	}
	if v, err := strconv.ParseUint(fields[4], 16, 16); err == nil {
		r.Curve = registry.CurveID(v)
	} else {
		return err
	}
	r.HeartbeatAck = fields[5] == "T"
	r.SuiteUnoffer = fields[6] == "T"
	if v, err := strconv.ParseUint(fields[7], 10, 8); err == nil {
		r.AlertDesc = uint8(v)
	} else {
		return err
	}
	r.UsedFallback = fields[8] == "T"
	r.SSLv2Hello = fields[9] == "T"
	if v, err := strconv.ParseUint(fields[10], 16, 16); err == nil {
		r.ClientVersion = registry.Version(v)
	} else {
		return err
	}
	if h.Suites, err = refAppendParsedHexList(h.Suites, fields[11], rules); err != nil {
		return err
	}
	if h.Extensions, err = refAppendParsedHexList(h.Extensions, fields[12], rules); err != nil {
		return err
	}
	if h.Curves, err = refAppendParsedHexList(h.Curves, fields[13], rules); err != nil {
		return err
	}
	if h.PointFmts, err = refAppendParsedHexList(h.PointFmts, fields[14], rules); err != nil {
		return err
	}
	if h.SupportedVersions, err = refAppendParsedHexList(h.SupportedVersions, fields[15], rules); err != nil {
		return err
	}
	r.OffersHeartbeat = fields[16] == "T"
	h.Fingerprint = refDashEmpty(fields[17])
	h.Truth = refDashEmpty(fields[18])
	r.ServerCohort = refDashEmpty(fields[19])
	if rules.loggableStrings {
		for _, s := range []string{h.Fingerprint, h.Truth, r.ServerCohort} {
			if strings.Contains(s, "\r") {
				return fmt.Errorf("notary: record string %q cannot be written to a log", s)
			}
		}
	}
	tab.Intern(r, &h)
	return nil
}

func refDashEmpty(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

func refParseDate(s string) (timeline.Date, error) {
	i := strings.IndexByte(s, '-')
	if i < 0 {
		return timeline.Date{}, fmt.Errorf("notary: bad date %q", s)
	}
	j := strings.IndexByte(s[i+1:], '-')
	if j < 0 || strings.IndexByte(s[i+1+j+1:], '-') >= 0 {
		return timeline.Date{}, fmt.Errorf("notary: bad date %q", s)
	}
	j += i + 1
	y, err1 := strconv.Atoi(s[:i])
	m, err2 := strconv.Atoi(s[i+1 : j])
	d, err3 := strconv.Atoi(s[j+1:])
	if err1 != nil || err2 != nil || err3 != nil || !validDate(y, m, d) {
		return timeline.Date{}, fmt.Errorf("notary: bad date %q", s)
	}
	return timeline.Date{Year: y, Month: time.Month(m), Day: d}, nil
}

func refAppendParsedHexList[T ~uint8 | ~uint16](dst []T, s string, rules refRules) ([]T, error) {
	dst = dst[:0]
	if s == "-" || s == "" {
		return dst, nil
	}
	for len(s) > 0 {
		if rules.listCap && len(dst) >= maxListLen {
			return dst, fmt.Errorf("notary: hex list exceeds %d elements", maxListLen)
		}
		var p string
		if i := strings.IndexByte(s, ','); i >= 0 {
			p, s = s[:i], s[i+1:]
		} else {
			p, s = s, ""
		}
		v, err := strconv.ParseUint(p, 16, 16)
		if err != nil || rules.boundedElements && v > uint64(^T(0)) {
			return dst, fmt.Errorf("notary: bad hex list element %q", p)
		}
		dst = append(dst, T(v))
	}
	return dst, nil
}

func refParseLogBase(line string) (uint64, bool) {
	if !strings.HasPrefix(line, logBasePrefix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimSpace(line[len(logBasePrefix):]), 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// refReadLogTail is the log reader over the whole log in memory, which makes
// the entry rule one statement: where an entry starts, the TLSB magic means a
// frame and anything else a line.
func refReadLogTail(r io.Reader, skip uint64, sink Sink, rules refRules) (delivered, base uint64, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, 0, err
	}
	var rec Record
	var tab HelloTable
	intern := make(map[string]string)
	entry, frames := 0, 0
	sawBase := false
	var gen uint64
	for len(data) > 0 {
		entry++
		if bytes.HasPrefix(data, []byte("TLSB")) {
			br := bytes.NewReader(data)
			version, payload, err := batchFormat.NewReader(br).Next()
			if err != nil {
				return delivered, base, &LineError{Line: entry, Err: fmt.Errorf("batch frame: %w", err)}
			}
			data = data[len(data)-br.Len():]
			var behind uint64
			if skip > gen {
				behind = skip - gen
			}
			held, n, err := refDecodeFrame(frames, version, payload, intern, &tab, rules, behind, sink)
			gen += held
			delivered += n
			if err != nil {
				return delivered, base, err
			}
			frames++
			continue
		}
		raw, rest, _ := bytes.Cut(data, []byte("\n"))
		if len(raw) >= maxLogLine {
			return delivered, base, bufio.ErrTooLong
		}
		data = rest
		line := strings.TrimSuffix(string(raw), "\r")
		if b, ok := refParseLogBase(line); ok {
			if b < gen {
				return delivered, base, &LineError{Line: entry,
					Err: fmt.Errorf("base directive rewinds generation %d to %d", gen, b)}
			}
			if !sawBase {
				base, sawBase = b, true
			}
			gen = b
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		if err := refParseTSVInto(&rec, line, rules, &tab); err != nil {
			return delivered, base, &LineError{Line: entry, Err: err}
		}
		gen++
		if gen <= skip {
			continue
		}
		if err := sink.Observe(&rec); err != nil {
			return delivered, base, err
		}
		delivered++
	}
	return delivered, base, nil
}
