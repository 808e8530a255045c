// Package notary implements the passive TLS monitor of the study: the
// equivalent of the ICSI SSL Notary's Bro-based collection pipeline. It
// turns observed hello exchanges into connection records, persists them as
// Bro-style tab-separated logs, and aggregates them into the monthly
// statistics behind every figure of the paper.
package notary

import (
	"fmt"
	"strconv"
	"strings"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
	"tlsage/internal/wire"
)

// Record is the metadata the Notary retains about one observed connection.
// Like the real Notary it keeps no client identity — only the hello
// parameters and the negotiation outcome. TruthClient (the generating
// profile) is recorded by the simulator for evaluation only and is never
// consulted by the analysis pipeline.
type Record struct {
	Date timeline.Date

	// Client Hello side.
	ClientVersion     registry.Version
	ClientSuites      []uint16
	ClientExtensions  []registry.ExtensionID
	ClientCurves      []registry.CurveID
	ClientPointFmts   []registry.ECPointFormat
	ClientSupportedVs []registry.Version
	OffersHeartbeat   bool

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

	// Fingerprint is the §4 client fingerprint string (GREASE-stripped),
	// filled by the observation pipeline.
	Fingerprint string

	// TruthClient is ground truth for evaluation (profile name); empty in
	// purely passive deployments.
	TruthClient string
	// ServerCohort labels the responding server's cohort for evaluation.
	ServerCohort string
}

// Reset zeroes the record while keeping the capacity of its five
// client-side slices, so a pooled record is refilled without allocating.
func (r *Record) Reset() {
	suites := r.ClientSuites[:0]
	exts := r.ClientExtensions[:0]
	curves := r.ClientCurves[:0]
	pfs := r.ClientPointFmts[:0]
	svs := r.ClientSupportedVs[:0]
	*r = Record{
		ClientSuites:      suites,
		ClientExtensions:  exts,
		ClientCurves:      curves,
		ClientPointFmts:   pfs,
		ClientSupportedVs: svs,
	}
}

// Clone returns a deep copy of r that shares no slices with it. Sinks that
// retain records beyond Observe must clone them, because producers reclaim
// pooled records as soon as Observe returns.
func (r *Record) Clone() *Record {
	cp := *r
	cp.ClientSuites = append([]uint16(nil), r.ClientSuites...)
	cp.ClientExtensions = append([]registry.ExtensionID(nil), r.ClientExtensions...)
	cp.ClientCurves = append([]registry.CurveID(nil), r.ClientCurves...)
	cp.ClientPointFmts = append([]registry.ECPointFormat(nil), r.ClientPointFmts...)
	cp.ClientSupportedVs = append([]registry.Version(nil), r.ClientSupportedVs...)
	return &cp
}

// ObserveWire reconstructs the client-side fields of a Record from raw
// ClientHello record bytes, exactly as a passive monitor on the wire would.
// It returns an error for bytes the Bro analyzer would reject.
func (r *Record) ObserveWire(clientHelloRecord []byte) error {
	if wire.IsSSLv2Hello(clientHelloRecord) {
		var v2 wire.SSLv2ClientHello
		if err := v2.DecodeFromBytes(clientHelloRecord); err != nil {
			return err
		}
		r.SSLv2Hello = true
		r.ClientVersion = v2.Version
		r.ClientSuites = wire.TLSSuitesFromSSLv2(v2.CipherSpecs)
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
	r.FromClientHello(&ch)
	return nil
}

// FromClientHello fills the client-side fields from a parsed hello. The
// record's existing slice capacity is reused, so feeding pooled records
// through here is allocation-free in steady state.
func (r *Record) FromClientHello(ch *wire.ClientHello) {
	r.ClientVersion = ch.Version
	r.ClientSuites = append(r.ClientSuites[:0], ch.CipherSuites...)
	r.ClientExtensions = ch.AppendExtensionIDs(r.ClientExtensions[:0])
	r.ClientCurves = ch.AppendSupportedGroups(r.ClientCurves[:0])
	r.ClientPointFmts = ch.AppendECPointFormats(r.ClientPointFmts[:0])
	r.ClientSupportedVs = ch.AppendSupportedVersions(r.ClientSupportedVs[:0])
	r.OffersHeartbeat = ch.OffersHeartbeat()
}

// SupportsTLS13 reports whether the client advertised any TLS 1.3 variant in
// supported_versions (§6.4's "client indicates support" metric).
func (r *Record) SupportsTLS13() bool {
	for _, v := range r.ClientSupportedVs {
		if registry.IsGREASE(uint16(v)) {
			continue
		}
		if v.IsTLS13Variant() {
			return true
		}
	}
	return false
}

// AdvertisedTLS13Variant returns the first (highest-preference) TLS 1.3
// variant offered, or 0 — the per-draft deployment view of §6.4.
func (r *Record) AdvertisedTLS13Variant() registry.Version {
	for _, v := range r.ClientSupportedVs {
		if registry.IsGREASE(uint16(v)) {
			continue
		}
		if v.IsTLS13Variant() {
			return v
		}
	}
	return 0
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
	dst = appendHexList(append(dst, '\t'), r.ClientSuites)
	dst = appendHexList(append(dst, '\t'), r.ClientExtensions)
	dst = appendHexList(append(dst, '\t'), r.ClientCurves)
	dst = appendHexList(append(dst, '\t'), r.ClientPointFmts)
	dst = appendHexList(append(dst, '\t'), r.ClientSupportedVs)
	dst = appendBoolField(dst, r.OffersHeartbeat)
	dst = appendStrField(dst, r.Fingerprint)
	dst = appendStrField(dst, r.TruthClient)
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

// ParseTSVInto parses one log line produced by AppendTSV into r, reusing r's
// slice capacity, so the log-ingestion hot path parses into one pooled
// record. On error r is left in an unspecified partially-filled state.
func ParseTSVInto(r *Record, line string) error {
	r.Reset()
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
	if r.Date, err = parseDate(fields[0]); err != nil {
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
	if r.ClientSuites, err = appendParsedHexList(r.ClientSuites, fields[11]); err != nil {
		return err
	}
	if r.ClientExtensions, err = appendParsedHexList(r.ClientExtensions, fields[12]); err != nil {
		return err
	}
	if r.ClientCurves, err = appendParsedHexList(r.ClientCurves, fields[13]); err != nil {
		return err
	}
	if r.ClientPointFmts, err = appendParsedHexList(r.ClientPointFmts, fields[14]); err != nil {
		return err
	}
	if r.ClientSupportedVs, err = appendParsedHexList(r.ClientSupportedVs, fields[15]); err != nil {
		return err
	}
	r.OffersHeartbeat = fields[16] == "T"
	r.Fingerprint = dashEmpty(fields[17])
	r.TruthClient = dashEmpty(fields[18])
	r.ServerCohort = dashEmpty(fields[19])
	return nil
}

func dashEmpty(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

func parseDate(s string) (timeline.Date, error) {
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
	return timeline.Date{Year: y, Month: timeMonth(m), Day: d}, nil
}

// validDate bounds every date on its way in: TSV lines (parseDate) and TLSB
// records, snapshots and deltas (snapDecoder.date) all pass through it, so a
// date that was accepted can always be written out and read back. The year
// range is the one appendDate's four digits can carry; the day is
// range-checked only, never against the month's length.
func validDate(year, month, day int) bool {
	return year >= 1 && year <= 9999 && month >= 1 && month <= 12 && day >= 1 && day <= 31
}

// appendParsedHexList parses a comma-separated %04x list into dst[:0],
// keeping dst's capacity. "-" and "" parse to an empty list.
func appendParsedHexList[T ~uint8 | ~uint16](dst []T, s string) ([]T, error) {
	dst = dst[:0]
	if s == "-" || s == "" {
		return dst, nil
	}
	for len(s) > 0 {
		var p string
		if i := strings.IndexByte(s, ','); i >= 0 {
			p, s = s[:i], s[i+1:]
		} else {
			p, s = s, ""
		}
		v, err := strconv.ParseUint(p, 16, 16)
		if err != nil {
			return dst, fmt.Errorf("notary: bad hex list element %q", p)
		}
		dst = append(dst, T(v))
	}
	return dst, nil
}
