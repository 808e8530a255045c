// Package notary implements the passive TLS monitor of the study: the
// equivalent of the ICSI SSL Notary's Bro-based collection pipeline. It
// turns observed hello exchanges into connection records, persists them as
// Bro-style tab-separated logs, and aggregates them into the monthly
// statistics behind every figure of the paper.
package notary

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
	"tlsage/internal/wire"
)

// Record is the metadata the Notary retains about one observed connection.
// Like the real Notary it keeps no client identity — only the hello
// parameters and the negotiation outcome. The offered side — the five client
// lists, the fingerprint and the truth label (the generating profile,
// recorded by the simulator for evaluation only) — is a hello row, shared and
// immutable, read through Suites … Truth; a HelloTable or a record decoder
// points the record at it, and a zero Record reads as the empty hello.
type Record struct {
	Date timeline.Date

	// Client Hello side, beside the row.
	ClientVersion   registry.Version
	OffersHeartbeat bool

	// Negotiation outcome.
	Established  bool
	Version      registry.Version // canonical negotiated version when established
	Suite        uint16
	Curve        registry.CurveID
	HeartbeatAck bool
	SuiteUnoffer bool // server chose a suite the client did not offer
	AlertDesc    uint8
	UsedFallback bool
	SSLv2Hello   bool

	// ServerCohort labels the responding server's cohort for evaluation.
	ServerCohort string

	// hello is the record's offered side (hello.go); nil for the empty hello.
	hello *helloRow
}

// The offered side, read from the record's row. The lists are shared with
// every record of the hello and must not be written through.

func (r *Record) Suites() []uint16                      { return r.row().Suites }
func (r *Record) Extensions() []registry.ExtensionID    { return r.row().Extensions }
func (r *Record) Curves() []registry.CurveID            { return r.row().Curves }
func (r *Record) PointFmts() []registry.ECPointFormat   { return r.row().PointFmts }
func (r *Record) SupportedVersions() []registry.Version { return r.row().SupportedVersions }
func (r *Record) Fingerprint() string                   { return r.row().Fingerprint }
func (r *Record) Truth() string                         { return r.row().Truth }

// Clone returns a copy of r, which shares r's row. A sink that retains a
// record beyond Observe clones it, because producers refill the record they
// hand over as soon as Observe returns.
func (r *Record) Clone() *Record {
	cp := *r
	return &cp
}

// CopyClientSide sets r's client side — ClientVersion, OffersHeartbeat and the
// row of its offered side — to src's. A producer that keeps the record of a
// hello it built gives later records that hello without interning it again.
func (r *Record) CopyClientSide(src *Record) {
	r.ClientVersion, r.OffersHeartbeat, r.hello = src.ClientVersion, src.OffersHeartbeat, src.hello
}

// ObserveWire reconstructs the client side of a connection from raw
// ClientHello record bytes, exactly as a passive monitor on the wire would:
// r's version and flags, and h's lists, for the caller to intern. It returns
// an error for bytes the Bro analyzer would reject.
func (r *Record) ObserveWire(clientHelloRecord []byte, h *Hello) error {
	if wire.IsSSLv2Hello(clientHelloRecord) {
		var v2 wire.SSLv2ClientHello
		if err := v2.DecodeFromBytes(clientHelloRecord); err != nil {
			return err
		}
		r.FromSSLv2Hello(&v2, h)
		return nil
	}
	rec, _, err := wire.DecodeRecord(clientHelloRecord)
	if err != nil {
		return err
	}
	if rec.Type != wire.ContentHandshake {
		return fmt.Errorf("notary: unexpected record type %v", rec.Type)
	}
	typ, body, _, err := wire.DecodeHandshake(rec.Payload)
	if err != nil {
		return err
	}
	if typ != wire.TypeClientHello {
		return fmt.Errorf("notary: unexpected handshake type %d", typ)
	}
	var ch wire.ClientHello
	if err := ch.DecodeFromBytes(body); err != nil {
		return err
	}
	r.FromClientHello(&ch, h)
	return nil
}

// FromClientHello fills the client side from a parsed hello: r's version and
// heartbeat offer, and h's lists, whose capacity is reused, so refilling one
// Hello connection after connection is allocation-free in steady state.
func (r *Record) FromClientHello(ch *wire.ClientHello, h *Hello) {
	r.ClientVersion = ch.Version
	r.OffersHeartbeat = ch.OffersHeartbeat()
	h.Suites = append(h.Suites[:0], ch.CipherSuites...)
	h.Extensions = ch.AppendExtensionIDs(h.Extensions[:0])
	h.Curves = ch.AppendSupportedGroups(h.Curves[:0])
	h.PointFmts = ch.AppendECPointFormats(h.PointFmts[:0])
	h.SupportedVersions = ch.AppendSupportedVersions(h.SupportedVersions[:0])
}

// FromSSLv2Hello is FromClientHello for an SSLv2-compatible hello: its cipher
// specs that name TLS suites, and no other list.
func (r *Record) FromSSLv2Hello(v2 *wire.SSLv2ClientHello, h *Hello) {
	r.SSLv2Hello = true
	r.ClientVersion = v2.Version
	r.OffersHeartbeat = false
	h.Suites = wire.TLSSuitesFromSSLv2(v2.CipherSpecs)
	h.Extensions, h.Curves, h.PointFmts, h.SupportedVersions = h.Extensions[:0], h.Curves[:0], h.PointFmts[:0], h.SupportedVersions[:0]
}

// --- TSV serialization (Bro-style log line) ---

// tsvVersion tags the log schema.
const tsvVersion = "tlsage-conn-1"

// Header returns the log header lines.
func Header() string {
	return "#separator \\t\n#format " + tsvVersion + "\n#fields\tdate\testablished\tversion\tsuite\tcurve\thb_ack\tsuite_unoffered\talert\tfallback\tsslv2\tclient_version\tclient_suites\tclient_exts\tclient_curves\tclient_pfs\tclient_svs\toffers_hb\tfp\ttruth\tcohort\n"
}

const hexDigits = "0123456789abcdef"

// AppendTSV serializes the record as one log line appended to dst. It
// writes directly into dst — no intermediate builder — so serializing into
// a reused buffer allocates nothing.
func (r *Record) AppendTSV(dst []byte) []byte {
	dst = appendDate(dst, r.Date)
	dst = appendBoolField(dst, r.Established)
	dst = appendHex16(append(dst, '\t'), uint16(r.Version))
	dst = appendHex16(append(dst, '\t'), r.Suite)
	dst = appendHex16(append(dst, '\t'), uint16(r.Curve))
	dst = appendBoolField(dst, r.HeartbeatAck)
	dst = appendBoolField(dst, r.SuiteUnoffer)
	dst = strconv.AppendUint(append(dst, '\t'), uint64(r.AlertDesc), 10)
	dst = appendBoolField(dst, r.UsedFallback)
	dst = appendBoolField(dst, r.SSLv2Hello)
	dst = appendHex16(append(dst, '\t'), uint16(r.ClientVersion))
	dst = appendHexList(append(dst, '\t'), r.Suites())
	dst = appendHexList(append(dst, '\t'), r.Extensions())
	dst = appendHexList(append(dst, '\t'), r.Curves())
	dst = appendHexList(append(dst, '\t'), r.PointFmts())
	dst = appendHexList(append(dst, '\t'), r.SupportedVersions())
	dst = appendBoolField(dst, r.OffersHeartbeat)
	dst = appendStrField(dst, r.Fingerprint())
	dst = appendStrField(dst, r.Truth())
	dst = appendStrField(dst, r.ServerCohort)
	return append(dst, '\n')
}

func appendBoolField(dst []byte, v bool) []byte {
	if v {
		return append(dst, '\t', 'T')
	}
	return append(dst, '\t', 'F')
}

func appendStrField(dst []byte, s string) []byte {
	dst = append(dst, '\t')
	if s == "" {
		return append(dst, '-')
	}
	return append(dst, s...)
}

// appendHex16 appends v as four lowercase hex digits (%04x).
func appendHex16(dst []byte, v uint16) []byte {
	return append(dst,
		hexDigits[v>>12&0xf], hexDigits[v>>8&0xf],
		hexDigits[v>>4&0xf], hexDigits[v&0xf])
}

// appendZeroPad appends v in decimal, zero-padded to width digits.
func appendZeroPad(dst []byte, v, width int) []byte {
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for i := digits; i < width; i++ {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendDate appends d as YYYY-MM-DD, matching timeline.Date.String.
func appendDate(dst []byte, d timeline.Date) []byte {
	dst = appendZeroPad(dst, d.Year, 4)
	dst = append(dst, '-')
	dst = appendZeroPad(dst, int(d.Month), 2)
	dst = append(dst, '-')
	return appendZeroPad(dst, d.Day, 2)
}

// appendHexList appends a comma-separated %04x list, "-" when empty. It is
// generic over the registry's uint16- and uint8-backed code point types.
func appendHexList[T ~uint8 | ~uint16](dst []byte, vals []T) []byte {
	if len(vals) == 0 {
		return append(dst, '-')
	}
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendHex16(dst, uint16(v))
	}
	return dst
}

// hexNibble maps an ASCII hex digit of either case to its value and every
// other byte to 0xff. The decimal digits are its entries up to 9.
var hexNibble = func() (t [256]uint8) {
	for i := range t {
		t[i] = 0xff
	}
	for i := range 10 {
		t['0'+i] = uint8(i)
	}
	for i := range 6 {
		t['a'+i], t['A'+i] = uint8(10+i), uint8(10+i)
	}
	return t
}()

// hex4 reads the four hex digits appendHex16 writes from the head of p.
func hex4(p []byte) (v uint16, ok bool) {
	_ = p[3]
	a, b, c, d := hexNibble[p[0]], hexNibble[p[1]], hexNibble[p[2]], hexNibble[p[3]]
	return uint16(a)<<12 | uint16(b)<<8 | uint16(c)<<4 | uint16(d), a|b|c|d <= 0xf
}

// parseTSVLine parses one log line produced by AppendTSV (terminator
// excluded) into r through the decoder tables t, so the log-ingestion hot
// path allocates only for a hello or a string new to t. The eight fields
// client_suites … truth are the line's hello span: a span t holds is not
// parsed again, and one it does not is parsed into t's scratch hello and
// made a row once all of it parsed. It assigns every field of r and points it
// at its row; on error r is left in an unspecified partially-filled state.
func parseTSVLine(r *Record, line []byte, t *decodeTables) error {
	p := tsvLine{b: line}
	r.Date = p.date()
	r.Established = p.flag()
	r.Version = registry.Version(p.hex16())
	r.Suite = p.hex16()
	r.Curve = registry.CurveID(p.hex16())
	r.HeartbeatAck = p.flag()
	r.SuiteUnoffer = p.flag()
	r.AlertDesc = p.alert()
	r.UsedFallback = p.flag()
	r.SSLv2Hello = p.flag()
	r.ClientVersion = registry.Version(p.hex16())
	start := p.off
	key := tsvHelloSpan(line, start)
	if row := t.rows[string(key)]; row != nil {
		r.hello = row
		r.OffersHeartbeat = row.offersHB
		p.off += len(key) + 1
	} else {
		s := &t.scratch
		s.Suites = parseHexList(&p, s.Suites)
		s.Extensions = parseHexList(&p, s.Extensions)
		s.Curves = parseHexList(&p, s.Curves)
		s.PointFmts = parseHexList(&p, s.PointFmts)
		s.SupportedVersions = parseHexList(&p, s.SupportedVersions)
		r.OffersHeartbeat = p.flag()
		s.Fingerprint = p.text(t)
		s.Truth = p.text(t)
		// The eight fields are a span once a tab has ended the last of them;
		// until then the line has an error to report.
		if p.err == nil && p.off <= len(line) {
			t.settle(r, line[start:p.off-1], s)
		}
	}
	r.ServerCohort = p.text(t)
	if p.err == nil && p.off > len(line) {
		return nil
	}
	// A line of the wrong width is reported as that, whatever else is wrong
	// with it.
	if n := bytes.Count(line, []byte{'\t'}) + 1; n != 20 {
		return fmt.Errorf("notary: %d fields, want 20", n)
	}
	return p.err
}

// tsvLine is the cursor that walks one log line, left to right, once. Each
// reader first tries its field in the one spelling AppendTSV writes — four
// hex digits, YYYY-MM-DD, one letter, one decimal digit — with the tab after
// it, through hexNibble; any other spelling is cut at its tab by field and
// handed to the strconv statements below the fixed shape, which decide what
// else is accepted and own every error text. Errors are sticky the way
// snapDecoder's are: the first one is kept, reading goes on, and the caller
// checks once at the end.
type tsvLine struct {
	b   []byte
	off int // start of the next field; len(b)+1 once the last one is cut
	err error
}

func (p *tsvLine) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// field cuts the next field at its tab, or at the end of the line.
func (p *tsvLine) field() []byte {
	if p.off > len(p.b) {
		p.fail(io.ErrUnexpectedEOF) // parseTSVLine reports such a line by its width
		return nil
	}
	rest := p.b[p.off:]
	if i := bytes.IndexByte(rest, '\t'); i >= 0 {
		p.off += i + 1
		return rest[:i]
	}
	p.off = len(p.b) + 1
	return rest
}

// shaped returns the next w bytes when a tab follows them: the next field,
// if the caller finds no tab among them. The caller then steps w+1 on.
func (p *tsvLine) shaped(w int) []byte {
	if e := p.off + w; e < len(p.b) && p.b[e] == '\t' {
		return p.b[p.off:e]
	}
	return nil
}

func (p *tsvLine) flag() bool {
	if f := p.shaped(1); f != nil && f[0] != '\t' {
		p.off += 2
		return f[0] == 'T'
	}
	f := p.field()
	return len(f) == 1 && f[0] == 'T'
}

func (p *tsvLine) hex16() uint16 {
	if f := p.shaped(4); f != nil {
		if v, ok := hex4(f); ok {
			p.off += 5
			return v
		}
	}
	v, err := strconv.ParseUint(string(p.field()), 16, 16)
	if err != nil {
		p.fail(err)
	}
	return uint16(v)
}

func (p *tsvLine) alert() uint8 {
	if f := p.shaped(1); f != nil && hexNibble[f[0]] <= 9 {
		p.off += 2
		return hexNibble[f[0]]
	}
	v, err := strconv.ParseUint(string(p.field()), 10, 8)
	if err != nil {
		p.fail(err)
	}
	return uint8(v)
}

func (p *tsvLine) date() timeline.Date {
	if f := p.shaped(10); f != nil && f[4] == '-' && f[7] == '-' {
		yh, ok1 := dec2(f)
		yl, ok2 := dec2(f[2:])
		m, ok3 := dec2(f[5:])
		d, ok4 := dec2(f[8:])
		if y := yh*100 + yl; ok1 && ok2 && ok3 && ok4 && validDate(y, m, d) {
			p.off += 11
			return timeline.Date{Year: y, Month: time.Month(m), Day: d}
		}
	}
	// Three signed decimal numbers of any width between exactly two dashes.
	s := string(p.field())
	if ymd := strings.Split(s, "-"); len(ymd) == 3 {
		y, err1 := strconv.Atoi(ymd[0])
		m, err2 := strconv.Atoi(ymd[1])
		d, err3 := strconv.Atoi(ymd[2])
		if err1 == nil && err2 == nil && err3 == nil && validDate(y, m, d) {
			return timeline.Date{Year: y, Month: time.Month(m), Day: d}
		}
	}
	p.fail(fmt.Errorf("notary: bad date %q", s))
	return timeline.Date{}
}

// dec2 reads two decimal digits from the head of f.
func dec2(f []byte) (int, bool) {
	a, b := hexNibble[f[0]], hexNibble[f[1]]
	return int(a)*10 + int(b), a <= 9 && b <= 9
}

// validDate bounds every date on its way in: TSV lines (tsvLine.date) and
// TLSB records, snapshots and deltas (snapDecoder.date) all pass through it,
// so a date that was accepted can always be written out and read back. The
// year range is the one appendDate's four digits can carry; the day is
// range-checked only, never against the month's length.
func validDate(year, month, day int) bool {
	return year >= 1 && year <= 9999 && month >= 1 && month <= 12 && day >= 1 && day <= 31
}

// parseHexList parses the next field, a comma-separated %04x list, into
// dst[:0], keeping dst's capacity. "-" and "" parse to an empty list.
// Elements are bounded by T's range and the list by maxListLen, as the TLSB
// decoder bounds them.
func parseHexList[T ~uint8 | ~uint16](p *tsvLine, dst []T) []T {
	dst = dst[:0]
	if f := p.shaped(1); f != nil && f[0] == '-' {
		p.off += 2
		return dst
	}
	// The shape appendHexList writes: four digits, then a comma or the
	// field's tab.
	for b := p.b; p.off+4 < len(b) && len(dst) < maxListLen; {
		v, ok := hex4(b[p.off:])
		c := b[p.off+4]
		if !ok || v > uint16(^T(0)) || c != ',' && c != '\t' {
			break
		}
		dst = append(dst, T(v))
		p.off += 5
		if c == '\t' {
			return dst
		}
	}
	// Whatever else ParseUint takes — fewer or more digits — and every
	// refusal, over what is left of the field.
	rest := p.field()
	if len(dst) == 0 && len(rest) == 1 && rest[0] == '-' {
		return dst // the whole field: nothing of it was taken above
	}
	for len(rest) > 0 {
		if len(dst) >= maxListLen {
			p.fail(fmt.Errorf("notary: hex list exceeds %d elements", maxListLen))
			return dst
		}
		e := rest
		if i := bytes.IndexByte(rest, ','); i >= 0 {
			e, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		v, err := strconv.ParseUint(string(e), 16, 16)
		if err != nil || v > uint64(^T(0)) {
			p.fail(fmt.Errorf("notary: bad hex list element %q", e))
			return dst
		}
		dst = append(dst, T(v))
	}
	return dst
}

// text cuts and interns the next field, a record string, "-" and "" reading
// as empty. A string new to t must be loggable: a line cannot spell a TAB or a
// newline inside a field, but it can a carriage return, which no frame reader
// takes — and a collector tees what this parser accepts into frames.
func (p *tsvLine) text(t *decodeTables) string {
	f := p.field()
	if len(f) == 0 || len(f) == 1 && f[0] == '-' {
		return ""
	}
	if s, ok := t.strs[string(f)]; ok {
		return s
	}
	if !loggable(f) {
		p.fail(fmt.Errorf("notary: record string %q cannot be written to a log", f))
		return ""
	}
	return t.intern(f)
}
