package notary

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"tlsage/internal/framing"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Batch codec: frames carrying batches of Records, in the same envelope as
// the snapshot codec (see package framing) — the binary sibling of the TSV
// log line. A producer packs records into frames (BatchWriter); ReadLog, the
// one record reader, streams them back into a Sink wherever they arrive,
// alone or between the lines of a record log. ReadBatches, which reads a
// stream of frames alone, is left to the benchmark's per-layer decode timing
// and the tests.
// TSV stays the debug/interop path; this format exists so a record costs a
// few dozen varint reads rather than a line of text, and a stream one
// checksum and one read per frame.
//
// The payload is an unsigned varint record count followed by that many
// packed records. Per record:
//
//	flags byte (bit0 established, bit1 offers_hb, bit2 hb_ack,
//	            bit3 suite_unoffered, bit4 fallback, bit5 sslv2;
//	            high bits must be zero)
//	date (uvarint year, month, day)
//	client_version, version, suite, curve (uvarints, uint16-bounded)
//	alert byte
//	hello reference (uvarint; version 3 on)
//	hello span, unless the reference stands for it:
//	    client_suites, client_exts, client_curves, client_pfs, client_svs
//	            (uvarint count + uvarint elements, bounds-checked)
//	    fp, truth (uvarint length + raw bytes)
//	cohort reference (uvarint; version 3 on)
//	cohort (uvarint length + raw bytes), unless the reference stands for it
//
// A hello repeats — a 512-record frame of a collector's intake spells some 65
// distinct ones — and so does a cohort, so from version 3 on a frame sends
// each once. A reference is read against d, the entries of its kind the frame
// has defined so far: 0 means the value follows and is not remembered (what a
// writer sends for a span too long to keep, or in a frame already at its
// definition cap); d+1 means it follows and becomes entry d+1; 1..d stands
// for that entry and nothing follows; anything larger is an error. Entries
// never cross a frame: frames stay self-contained, so a stream can be cut
// and concatenated at frame boundaries, and the frame checksum covers every
// definition. Versions 1 and 2 are the same grammar with every reference 0
// and omitted. A record is ≈ 37 bytes at 512-record frames where version 2
// spent ≈ 203.
//
// Decoding is defensive the same way the snapshot codec is: every length is
// bounds-checked against the bytes actually present, and a frame may define
// at most maxHelloRows entries of either kind, none above maxHelloSpan bytes
// (hello.go). It is also the largest line in a collector's CPU profile, so
// the decoder reads a record in the spelling every writer uses — varints of
// one to three bytes, values in range — through fixed-shape code
// (decodeRecordHead, decodeCodeList's loop, varint3) that touches each byte
// once and calls nothing per element. Anything else is not consumed there: it
// drops to the checked snapDecoder statements in the same function, which
// accept what else is legal (a non-minimal varint) and produce every error. A
// record's five lists, fp and truth — its hello — are decoded once per
// distinct spelling and found again by their bytes after that (hello.go).
// FuzzReadBatches holds the result to the statement-per-element decoder kept
// in decode_ref_test.go.
//
// The three strings must be ones a TSV line can carry too (see loggable): a
// collector writes what it acknowledges to -out as frames of this format,
// recovery reads them back, and LogWriter must be able to write any record
// either decoder accepted.

// BatchVersion is the batch wire-format version byte written by this build.
// Version 2 marks the generation where aggregates derive fingerprint/client
// attribution counters from Record.Fingerprint, over version 1's payload;
// version 3 adds the two frame-local references. Readers accept
// batchFormat.MinVersion through BatchVersion and reject anything newer — the
// format can evolve without silent misdecodes. So a version-2 feeder still
// feeds this build, and this build's feeder fails loudly against a collector
// older than version 3 ("batch frame 0: version 3, this build reads 1..2"),
// with nothing ingested.
const BatchVersion = 3

// batchFormat is the TLSB envelope. The magic differs from the snapshot
// magic in its first bytes read off the wire, which is what lets a record
// log hold frames between its lines (no TSV line starts with it: headers
// start with '#', record lines with a decimal year). Frames are
// producer-sized (a few hundred records, tens of KiB); the 64 MiB cap keeps
// a corrupt length field from driving a huge allocation.
var batchFormat = framing.Format{
	Magic:      "TLSB",
	MinVersion: 1,
	Version:    BatchVersion,
	LenBytes:   4,
	MaxPayload: 1 << 26,
}

// DefaultBatchSize is the records-per-frame used by producers that don't
// choose one. Big enough to amortize framing and syscalls, small enough to
// keep frames well under a megabyte.
const DefaultBatchSize = 512

// IsBatchStream reports whether prefix (the first bytes of a stream, at
// least 4 to be conclusive) begins with the batch frame magic. It is
// ReadLog's entry rule: at every entry boundary of a record log it decides
// whether a frame or a line follows.
func IsBatchStream(prefix []byte) bool {
	magic := batchFormat.Magic
	return len(prefix) >= len(magic) && string(prefix[:len(magic)]) == magic
}

// BatchError tags a malformed batch frame with its 0-based index in the
// stream. Like LineError for TSV, it separates input the producer must fix
// from internal sink failures — the live service maps it to a 4xx response.
type BatchError struct {
	Frame int
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("notary: batch frame %d: %v", e.Frame, e.Err) }

func (e *BatchError) Unwrap() error { return e.Err }

// --- encoding ---

// Record flag bits in the batch encoding.
const (
	batchEstablished = 1 << iota
	batchOffersHB
	batchHBAck
	batchSuiteUnoffer
	batchFallback
	batchSSLv2

	batchFlagMask = batchSSLv2<<1 - 1
)

func recordFlags(r *Record) byte {
	var b byte
	if r.Established {
		b |= batchEstablished
	}
	if r.OffersHeartbeat {
		b |= batchOffersHB
	}
	if r.HeartbeatAck {
		b |= batchHBAck
	}
	if r.SuiteUnoffer {
		b |= batchSuiteUnoffer
	}
	if r.UsedFallback {
		b |= batchFallback
	}
	if r.SSLv2Hello {
		b |= batchSSLv2
	}
	return b
}

func appendCodeList[T ~uint8 | ~uint16](dst []byte, vals []T) []byte {
	dst = appendCount(dst, len(vals))
	for _, v := range vals {
		dst = appendUvarint(dst, uint64(v))
	}
	return dst
}

// appendHelloSpan appends h as a record's hello span: the five lists, fp and
// truth.
func appendHelloSpan(dst []byte, h *Hello) []byte {
	dst = appendCodeList(dst, h.Suites)
	dst = appendCodeList(dst, h.Extensions)
	dst = appendCodeList(dst, h.Curves)
	dst = appendCodeList(dst, h.PointFmts)
	dst = appendCodeList(dst, h.SupportedVersions)
	return appendString(appendString(dst, h.Fingerprint), h.Truth)
}

// frameDict is one of a BatchWriter's two dictionaries, hellos or cohorts:
// which entry of the frame being built stands for a value. It outlives the
// frame — a slot is stamped with the frame that defined it last and stands
// for nothing in any other — so a writer whose values repeat from frame to
// frame allocates nothing; it is emptied at the bounds a decoder's table is.
type frameDict struct {
	slots   map[string]*dictSlot
	held    int // bytes of slots' keys
	defs    int // entries the frame being built has defined
	emptied int // times slots was emptied: a slot found before the last is stale
}

// dictSlot is one value of a frameDict: body is its encoding, the slot's key.
type dictSlot struct {
	body       string
	frame, ref int
}

// slot returns the slot of body — a hello span, or a cohort with its length —
// making one, and room for it first, when the dictionary has none; nil for a
// body that cannot become an entry: one too long, or new to a frame already
// at its definition cap.
func (t *frameDict) slot(body []byte) *dictSlot {
	s := t.slots[string(body)]
	if s == nil && len(body) <= maxHelloSpan && t.defs < maxHelloRows {
		if len(t.slots) >= maxHelloRows || t.held+len(body) > maxTableBytes {
			clear(t.slots)
			t.held = 0
			t.emptied++
		}
		s = &dictSlot{body: string(body), frame: -1}
		t.slots[s.body] = s
		t.held += len(body)
	}
	return s
}

// put appends the reference that stands for a value in the given frame, and
// the value where the reference says it follows. The value is s's; one that
// got no slot is body, and is sent as it is.
func (t *frameDict) put(dst []byte, s *dictSlot, body []byte, frame int) []byte {
	if s == nil {
		return append(append(dst, 0), body...)
	}
	if s.frame == frame {
		return appendCount(dst, s.ref)
	}
	ref := 0 // in a frame at its definition cap the value follows and is not an entry
	if t.defs < maxHelloRows {
		t.defs++
		s.frame, s.ref, ref = frame, t.defs, t.defs
	}
	return append(appendCount(dst, ref), s.body...)
}

// BatchWriter packs records into framed batches. It implements Sink: Observe
// buffers one encoded record, emitting a frame — one Write — every batchSize
// records, or sooner, when one more record would push the payload past the
// format's cap; Close flushes the partial frame and leaves the writer ready
// for the next record. The encode buffers and the dictionaries are reused
// across frames, so steady-state writing allocates nothing — the binary
// counterpart of LogWriter.
//
// A record's hello row is spelled and hashed once: the writer remembers the
// slot it found for the row. The slots, keyed by content, stay the authority
// on what a frame has defined, because two tables hand a writer two rows for
// one hello.
type BatchWriter struct {
	w     io.Writer
	every int
	recs  []byte // packed records of the frame being built
	count int    // records in recs
	frame int    // frames emitted so far: the stamp of the one being built
	value []byte // the hello span or cohort being looked up

	hellos, cohorts frameDict
	out             []byte // reused frame assembly buffer
	// rows holds, at a hello row's slot, the slot in hellos of that row's
	// span as this format spells it; an entry is good for the row it names,
	// and only while hellos.emptied is rowsAt.
	rows   [maxHelloRows]rowSlot
	rowsAt int
}

// rowSlot is an entry of BatchWriter.rows.
type rowSlot struct {
	row  *helloRow
	slot *dictSlot
}

// NewBatchWriter wraps w. batchSize <= 0 uses DefaultBatchSize.
func NewBatchWriter(w io.Writer, batchSize int) *BatchWriter {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &BatchWriter{w: w, every: batchSize,
		hellos:  frameDict{slots: make(map[string]*dictSlot)},
		cohorts: frameDict{slots: make(map[string]*dictSlot)}}
}

// helloSlot returns the slot of r's hello span, or nil with the span left in
// bw.value when it gets none.
func (bw *BatchWriter) helloSlot(r *Record) *dictSlot {
	row := r.row()
	if bw.rowsAt != bw.hellos.emptied {
		clear(bw.rows[:])
		bw.rowsAt = bw.hellos.emptied
	}
	if memo := bw.rows[row.slot()]; memo.row == row {
		return memo.slot
	}
	bw.value = appendHelloSpan(bw.value[:0], &row.Hello)
	s := bw.hellos.slot(bw.value)
	if s != nil {
		// Should the lookup have emptied hellos, the next one clears rows.
		bw.rows[row.slot()] = rowSlot{row, s}
	}
	return s
}

// appendRecord packs r onto dst for the frame being built.
func (bw *BatchWriter) appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, recordFlags(r))
	dst = appendDateEnc(dst, r.Date)
	dst = appendUvarint(dst, uint64(r.ClientVersion))
	dst = appendUvarint(dst, uint64(r.Version))
	dst = appendUvarint(dst, uint64(r.Suite))
	dst = appendUvarint(dst, uint64(r.Curve))
	dst = append(dst, r.AlertDesc)
	dst = bw.hellos.put(dst, bw.helloSlot(r), bw.value, bw.frame)
	bw.value = appendString(bw.value[:0], r.ServerCohort)
	return bw.cohorts.put(dst, bw.cohorts.slot(bw.value), bw.value, bw.frame)
}

// Observe implements Sink.
func (bw *BatchWriter) Observe(r *Record) error {
	before := len(bw.recs)
	bw.recs = bw.appendRecord(bw.recs, r)
	if bw.count > 0 && uint64(len(bw.recs))+binary.MaxVarintLen64 > batchFormat.MaxPayload {
		// r would take the payload past the cap every reader enforces: ship
		// the records before it and let r open the next frame, packed again
		// because its references pointed into the frame just shipped. (A
		// single record past the cap is refused by the envelope when it
		// flushes.)
		bw.recs = bw.recs[:before]
		if err := bw.flushFrame(); err != nil {
			return err
		}
		bw.recs = bw.appendRecord(bw.recs, r)
	}
	bw.count++
	if bw.count >= bw.every {
		return bw.flushFrame()
	}
	return nil
}

// Close implements Sink by flushing any partial frame.
func (bw *BatchWriter) Close() error {
	if bw.count == 0 {
		return nil
	}
	return bw.flushFrame()
}

// WriteFrames writes frames — whole frames of this format, such as another
// BatchWriter packed — in one Write. A collector appends each merged shard's
// frame to its log this way. A BatchWriter that takes frames takes no
// records: WriteFrames does not flush a partial frame of Observed ones.
func (bw *BatchWriter) WriteFrames(frames []byte) error {
	_, err := bw.w.Write(frames)
	return err
}

// flushFrame emits the packed records as one frame and starts the next, which
// has defined nothing.
func (bw *BatchWriter) flushFrame() error {
	dst, mark := batchFormat.Begin(bw.out[:0])
	dst = appendCount(dst, bw.count)
	dst = append(dst, bw.recs...)
	dst, err := batchFormat.End(dst, mark)
	bw.out = dst
	bw.recs, bw.count = bw.recs[:0], 0
	bw.frame++
	bw.hellos.defs, bw.cohorts.defs = 0, 0
	if err != nil {
		return fmt.Errorf("notary: batch: %w", err)
	}
	_, err = bw.w.Write(dst)
	return err
}

// --- decoding ---

// minRecordEncodedLen bounds how small one packed record can be, by frame
// version: flags, three date varints, four code-point varints and the alert
// byte, then five list counts and three string lengths — or, from version 3
// on, two references. Used to sanity-bound the record count against the
// payload size before decoding.
var minRecordEncodedLen = [BatchVersion + 1]int{1: 17, 2: 17, 3: 11}

// loggable reports whether a record string survives a TSV line: a TAB, LF or
// CR would split the line LogWriter writes it into, and "-" is how that line
// spells the empty string. A record carrying such a string is refused at
// decode, in either format, so whatever was acknowledged can be written out
// as lines or as frames and read back (the rule validDate gives dates). A
// TSV line can spell only one of them, a CR inside a field.
func loggable(b []byte) bool {
	return bytes.IndexAny(b, "\t\n\r") < 0 && !(len(b) == 1 && b[0] == '-')
}

// str reads one length-prefixed record string from d. The loggable check
// runs on a table miss only: what the table holds has passed it.
func (t *decodeTables) str(d *snapDecoder) string {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return ""
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	if s, ok := t.strs[string(b)]; ok {
		return s
	}
	if !loggable(b) {
		d.fail("record string %q cannot be written to a log line", b)
		return ""
	}
	return t.intern(b)
}

// maxListLen bounds a record's code-point lists in both formats: TLS carries
// at most 32,767 cipher suites, and every other list is shorter. Without it a
// count is bounded only by its frame (64 MiB) or line (4 MiB), and one record
// buys a 100 MB slice.
const maxListLen = 1 << 15

// decodeCodeList decodes a count-prefixed code-point list into dst's storage,
// sized once from the bounds-checked count. The loop reads the one-, two- and
// three-byte varints every value up to 0xFFFF fits in straight off the
// payload. An element of any other shape — a longer varint, a value beyond
// T's range, fewer than three bytes left (a valid record has its three string
// lengths there) — is left unconsumed for the checked statements below it,
// which own every error.
func decodeCodeList[T ~uint8 | ~uint16](d *snapDecoder, dst []T) []T {
	n := d.length(1)
	if n > maxListLen {
		d.fail("list of %d elements exceeds %d", n, maxListLen)
		return dst[:0]
	}
	if n > cap(dst) {
		dst = make([]T, n, max(n, 2*cap(dst)))
	}
	dst = dst[:n]
	b, off, i := d.b, d.off, 0
	for ; i < n; i++ {
		v, w := varint3(b, off)
		if w == 0 || v > uint32(^T(0)) {
			break
		}
		dst[i] = T(v)
		off += w
	}
	d.off = off
	dst = dst[:i]
	for ; i < n && d.err == nil; i++ {
		v := d.uvarint()
		if v > uint64(^T(0)) {
			d.fail("list element %d out of range", v)
			break
		}
		dst = append(dst, T(v))
	}
	return dst
}

// maxRecordHeadLen is the widest fixed head decodeRecordHead recognises:
// flags, seven varints of up to three bytes, alert.
const maxRecordHeadLen = 1 + 7*3 + 1

// decodeRecordHead reads a record's fixed head — flags, date, four code
// points, alert — when it is spelled the way every writer spells it: each
// varint one to three bytes wide, each value in range. It reports the flags
// and whether it did; when it did not (a wider varint, a bad value, a head
// within maxRecordHeadLen of the payload's end) it has consumed nothing and
// the checked statements in decodeRecordBinary read the same bytes. The head
// is cut to maxRecordHeadLen bytes once, so each varint is read from a
// three-byte window the cut already holds: varint3 without its length check.
func decodeRecordHead(d *snapDecoder, r *Record) (flags byte, ok bool) {
	if d.err != nil || d.remaining() < maxRecordHeadLen {
		return 0, false
	}
	b := d.b[d.off : d.off+maxRecordHeadLen]
	off := 1
	var v [7]uint32 // year, month, day, client_version, version, suite, curve
	for i := range v {
		p := b[off : off+3]
		x, w := uint32(p[0]), 1
		if x >= 0x80 {
			y := uint32(p[1])
			x, w = x&0x7f|y<<7, 2
			if y >= 0x80 {
				z := uint32(p[2])
				if z >= 0x80 {
					return 0, false
				}
				x, w = x&0x3fff|z<<14, 3
			}
		}
		v[i], off = x, off+w
	}
	if b[0]&^byte(batchFlagMask) != 0 || !validDate(int(v[0]), int(v[1]), int(v[2])) ||
		v[3]|v[4]|v[5]|v[6] > math.MaxUint16 {
		return 0, false
	}
	r.Date = timeline.Date{Year: int(v[0]), Month: time.Month(v[1]), Day: int(v[2])}
	r.ClientVersion = registry.Version(v[3])
	r.Version = registry.Version(v[4])
	r.Suite = uint16(v[5])
	r.Curve = registry.CurveID(v[6])
	r.AlertDesc = b[off]
	d.off += off + 1
	return b[0], true
}

// ref reads a version-3 reference against the defined entries its kind has in
// this frame; see the package comment for the rule.
func (d *snapDecoder) ref(defined int) int {
	v := d.uvarint()
	switch {
	case v > uint64(defined)+1:
		d.fail("reference %d, but the frame has defined %d entries", v, defined)
	case v == uint64(defined)+1 && defined >= maxHelloRows:
		d.fail("more than %d definitions in one frame", maxHelloRows)
	default:
		return int(v)
	}
	return 0
}

// decodeRecordBinary decodes one packed record of a frame of the given version
// into r through the decoder tables t. The five lists, fp and truth are the
// record's hello span: a span t holds is stepped over, and one it does not is
// read by the checked decoders into t's scratch hello and made a row once all
// of it decoded. A version-3 record may name an entry of its frame in place of
// the span, or of the cohort, and a span or cohort it defines becomes one. It
// assigns every field of r and points it at its row.
func decodeRecordBinary(d *snapDecoder, r *Record, t *decodeTables, version byte) {
	flags, ok := decodeRecordHead(d, r)
	if !ok {
		flags = d.byte()
		if d.err == nil && flags&^byte(batchFlagMask) != 0 {
			d.fail("unknown record flag bits %#x", flags)
			return
		}
		r.Date = d.date()
		r.ClientVersion = registry.Version(d.u16())
		r.Version = registry.Version(d.u16())
		r.Suite = d.u16()
		r.Curve = registry.CurveID(d.u16())
		r.AlertDesc = d.byte()
	}
	r.Established = flags&batchEstablished != 0
	r.OffersHeartbeat = flags&batchOffersHB != 0
	r.HeartbeatAck = flags&batchHBAck != 0
	r.SuiteUnoffer = flags&batchSuiteUnoffer != 0
	r.UsedFallback = flags&batchFallback != 0
	r.SSLv2Hello = flags&batchSSLv2 != 0
	ref := 0 // versions 1 and 2: every reference is 0 and omitted
	if version >= 3 {
		ref = d.ref(len(t.hellos))
	}
	if 0 < ref && ref <= len(t.hellos) {
		r.hello = t.hellos[ref-1]
	} else {
		start := d.off
		key := tlsbHelloSpan(d.b, start)
		if row := t.rows[string(key)]; row != nil && d.err == nil {
			r.hello = row
			d.off += len(key)
		} else {
			s := &t.scratch
			s.Suites = decodeCodeList(d, s.Suites)
			s.Extensions = decodeCodeList(d, s.Extensions)
			s.Curves = decodeCodeList(d, s.Curves)
			s.PointFmts = decodeCodeList(d, s.PointFmts)
			s.SupportedVersions = decodeCodeList(d, s.SupportedVersions)
			s.Fingerprint = t.str(d)
			s.Truth = t.str(d)
			if d.err == nil {
				t.settle(r, d.b[start:d.off], s)
			}
		}
		if ref != 0 && d.err == nil {
			// What the table would not keep is not an entry either.
			if d.off-start > maxHelloSpan {
				d.fail("definition of %d bytes exceeds %d", d.off-start, maxHelloSpan)
				return
			}
			t.hellos = append(t.hellos, r.hello)
		}
	}
	if ref = 0; version >= 3 {
		ref = d.ref(len(t.cohorts))
	}
	if 0 < ref && ref <= len(t.cohorts) {
		r.ServerCohort = t.cohorts[ref-1]
		return
	}
	start := d.off
	r.ServerCohort = t.str(d)
	if ref != 0 && d.err == nil {
		if d.off-start > maxHelloSpan {
			d.fail("definition of %d bytes exceeds %d", d.off-start, maxHelloSpan)
			return
		}
		t.cohorts = append(t.cohorts, r.ServerCohort)
	}
}

// ReadBatches streams framed batches from r, delivering each record to sink.
// EOF at a frame boundary (including an empty stream) ends the stream
// cleanly; a truncated, corrupted or version-mismatched frame surfaces as
// *BatchError and stops the stream, like ReadLog's *LineError. Records are
// decoded into one reused Record, so the Sink contract applies: the record is
// only valid for the duration of Observe. The sink is not closed. It returns
// how many frames and records were delivered.
func ReadBatches(r io.Reader, sink Sink) (frames, records uint64, err error) {
	t := tlsbTables.Get().(*decodeTables)
	defer tlsbTables.Put(t)
	return readBatches(r, sink, t)
}

// readBatches is ReadBatches through the given decoder tables, which a test
// can hold cold or warm where the pool's state is the garbage collector's.
func readBatches(r io.Reader, sink Sink, t *decodeTables) (frames, records uint64, err error) {
	fr := t.frameReader(r)
	defer t.endFrames(fr)
	var rec Record
	for ; ; frames++ {
		version, payload, err := fr.Next()
		if err == io.EOF {
			return frames, records, nil
		}
		if err != nil {
			return frames, records, &BatchError{Frame: int(frames), Err: err}
		}
		_, n, err := t.decodeFrame(int(frames), version, payload, &rec, 0, sink)
		records += n
		if err != nil {
			return frames, records, err
		}
	}
}

// frameReader starts reading r's frames into the body buffer t keeps from
// stream to stream; endFrames takes the buffer back.
func (t *decodeTables) frameReader(r io.Reader) *framing.Reader {
	fr := batchFormat.NewReader(r)
	fr.Lend(t.frame)
	return fr
}

func (t *decodeTables) endFrames(fr *framing.Reader) {
	t.endFrame()
	// All of the body, or none of it when a frame grew it past the bound: a
	// single 64 MiB frame must not stay pinned in a pool.
	if t.frame = fr.Reclaim(); cap(t.frame) > maxKeptBuffer {
		t.frame = nil
	}
}

// decodeFrame decodes the records of one frame's payload through t, into rec
// one after the other, and delivers those past the first skip to sink. It
// returns how many records the frame holds and how many it delivered; a frame
// of no more than skip records is taken at its leading count and not decoded.
// A malformed payload ends it with a *BatchError naming frame, everything
// before the malformed record delivered.
func (t *decodeTables) decodeFrame(frame int, version byte, payload []byte, rec *Record, skip uint64, sink Sink) (held, delivered uint64, err error) {
	t.endFrame()
	d := &snapDecoder{b: payload, what: "batch"}
	count := d.length(minRecordEncodedLen[version])
	if d.err == nil && count > 0 && uint64(count) <= skip {
		return uint64(count), 0, nil
	}
	for ; held < uint64(count) && d.err == nil; held++ {
		decodeRecordBinary(d, rec, t, version)
		if d.err != nil {
			break
		}
		if held < skip {
			continue
		}
		if err := sink.Observe(rec); err != nil {
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
