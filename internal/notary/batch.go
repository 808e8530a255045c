package notary

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"tlsage/internal/framing"
	"tlsage/internal/registry"
)

// Batch codec: frames carrying batches of Records, in the same envelope as
// the snapshot codec (see package framing) — the binary sibling of the TSV
// log line. A producer packs records into frames (BatchWriter); a consumer
// streams frames back into a Sink (ReadBatches).
// TSV stays the debug/interop path; this format exists so ingest cost scales
// with batch count instead of per-line parsing.
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
//	client_suites, client_exts, client_curves, client_pfs, client_svs
//	            (uvarint count + uvarint elements, bounds-checked)
//	fp, truth, cohort (uvarint length + raw bytes)
//
// Decoding is defensive the same way the snapshot codec is: every length is
// bounds-checked against the bytes actually present (FuzzReadBatches).

// BatchVersion is the batch wire-format version byte written by this build.
// Version 2 marks the generation where aggregates derive fingerprint/client
// attribution counters from Record.Fingerprint; the record payload itself is
// unchanged (the fingerprint was always carried), so readers accept
// batchFormat.MinVersion through BatchVersion and reject anything newer —
// the format can evolve without silent misdecodes.
const BatchVersion = 2

// batchFormat is the TLSB envelope. The magic differs from the snapshot
// magic in its first bytes read off the wire, which is what lets the TCP
// listener sniff binary streams apart from TSV (no TSV log starts with it:
// headers start with '#', record lines with a decimal year). Frames are
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
// least 4 to be conclusive) begins with the batch frame magic. The TCP
// listener peeks ahead with this to route one port between binary batches
// and TSV lines.
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

func appendRecordBinary(dst []byte, r *Record) []byte {
	dst = append(dst, recordFlags(r))
	dst = appendDateEnc(dst, r.Date)
	dst = appendUvarint(dst, uint64(r.ClientVersion))
	dst = appendUvarint(dst, uint64(r.Version))
	dst = appendUvarint(dst, uint64(r.Suite))
	dst = appendUvarint(dst, uint64(r.Curve))
	dst = append(dst, r.AlertDesc)
	dst = appendCodeList(dst, r.ClientSuites)
	dst = appendCodeList(dst, r.ClientExtensions)
	dst = appendCodeList(dst, r.ClientCurves)
	dst = appendCodeList(dst, r.ClientPointFmts)
	dst = appendCodeList(dst, r.ClientSupportedVs)
	dst = appendString(dst, r.Fingerprint)
	dst = appendString(dst, r.TruthClient)
	return appendString(dst, r.ServerCohort)
}

func appendCodeList[T ~uint8 | ~uint16](dst []byte, vals []T) []byte {
	dst = appendCount(dst, len(vals))
	for _, v := range vals {
		dst = appendUvarint(dst, uint64(v))
	}
	return dst
}

// BatchWriter packs records into framed batches. It implements Sink: Observe
// buffers one encoded record, emitting a frame every batchSize records — or
// sooner, when one more record would push the payload past the format's cap;
// Close flushes the partial frame. The encode buffers are reused across
// frames, so steady-state writing allocates nothing — the binary counterpart
// of LogWriter.
type BatchWriter struct {
	w     io.Writer
	every int
	recs  []byte // packed records of the frame being built
	count int    // records in recs
	frame []byte // reused frame assembly buffer
}

// NewBatchWriter wraps w. batchSize <= 0 uses DefaultBatchSize.
func NewBatchWriter(w io.Writer, batchSize int) *BatchWriter {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &BatchWriter{w: w, every: batchSize}
}

// Observe implements Sink.
func (bw *BatchWriter) Observe(r *Record) error {
	before := len(bw.recs)
	bw.recs = appendRecordBinary(bw.recs, r)
	if bw.count > 0 && uint64(len(bw.recs))+binary.MaxVarintLen64 > batchFormat.MaxPayload {
		// r would take the payload past the cap every reader enforces: ship
		// the records before it and let r open the next frame. (A single
		// record past the cap is refused by the envelope when it flushes.)
		if err := bw.flushFrame(before); err != nil {
			return err
		}
	}
	bw.count++
	if bw.count >= bw.every {
		return bw.flushFrame(len(bw.recs))
	}
	return nil
}

// Close implements Sink by flushing any partial frame.
func (bw *BatchWriter) Close() error {
	if bw.count == 0 {
		return nil
	}
	return bw.flushFrame(len(bw.recs))
}

// flushFrame emits the first n packed bytes — bw.count records — as one
// frame and keeps whatever follows them as the start of the next.
func (bw *BatchWriter) flushFrame(n int) error {
	dst, mark := batchFormat.Begin(bw.frame[:0])
	dst = appendCount(dst, bw.count)
	dst = append(dst, bw.recs[:n]...)
	dst, err := batchFormat.End(dst, mark)
	bw.frame = dst
	bw.recs = bw.recs[:copy(bw.recs, bw.recs[n:])]
	bw.count = 0
	if err != nil {
		return fmt.Errorf("notary: batch: %w", err)
	}
	_, err = bw.w.Write(dst)
	return err
}

// --- decoding ---

// minRecordEncodedLen bounds how small one packed record can be: flags,
// three date varints, four code-point varints, the alert byte, five list
// counts and three string lengths — 17 bytes. Used to sanity-bound the
// record count against the payload size before decoding.
const minRecordEncodedLen = 17

// maxInternEntries caps the decoder's string intern table. Real streams
// carry a few hundred distinct fingerprint/profile/cohort strings; past the
// cap new strings just allocate instead of interning.
const maxInternEntries = 1 << 16

// internTable dedupes the record strings of a stream. Fingerprints, truth
// labels and cohorts repeat across virtually every record, so interning
// makes steady-state binary decode allocation-free where TSV pays at least
// one line allocation per record.
type internTable map[string]string

// str reads one length-prefixed string from d, returning a previously
// interned copy when the bytes were seen before. The map lookup keyed by
// string(b) does not allocate (the compiler elides the conversion).
func (in internTable) str(d *snapDecoder) string {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return ""
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in) < maxInternEntries {
		in[s] = s
	}
	return s
}

func decodeCodeList[T ~uint8 | ~uint16](d *snapDecoder, dst []T, max uint64) []T {
	n := d.length(1)
	dst = dst[:0]
	for i := 0; i < n && d.err == nil; i++ {
		v := d.uvarint()
		if v > max {
			d.fail("list element %d out of range", v)
			return dst
		}
		dst = append(dst, T(v))
	}
	return dst
}

// decodeRecordBinary decodes one packed record into r, reusing r's slice
// capacity and interning strings through in.
func decodeRecordBinary(d *snapDecoder, r *Record, in internTable) {
	r.Reset()
	flags := d.byte()
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
	r.Date = d.date()
	r.ClientVersion = registry.Version(d.u16())
	r.Version = registry.Version(d.u16())
	r.Suite = d.u16()
	r.Curve = registry.CurveID(d.u16())
	r.AlertDesc = d.byte()
	r.ClientSuites = decodeCodeList(d, r.ClientSuites, math.MaxUint16)
	r.ClientExtensions = decodeCodeList(d, r.ClientExtensions, math.MaxUint16)
	r.ClientCurves = decodeCodeList(d, r.ClientCurves, math.MaxUint16)
	r.ClientPointFmts = decodeCodeList(d, r.ClientPointFmts, math.MaxUint8)
	r.ClientSupportedVs = decodeCodeList(d, r.ClientSupportedVs, math.MaxUint16)
	r.Fingerprint = in.str(d)
	r.TruthClient = in.str(d)
	r.ServerCohort = in.str(d)
}

// ReadBatches streams framed batches from r, delivering each record to sink.
// EOF at a frame boundary (including an empty stream) ends the stream
// cleanly; a truncated, corrupted or version-mismatched frame surfaces as
// *BatchError and stops the stream, like ReadLog's *LineError. Records are
// decoded into a reused buffer, so the Sink contract applies: the record is
// only valid for the duration of Observe. The sink is not closed. It
// returns how many frames and records were delivered.
func ReadBatches(r io.Reader, sink Sink) (frames, records uint64, err error) {
	fr := batchFormat.NewReader(r)
	var rec Record
	intern := make(internTable)
	for frame := 0; ; frame++ {
		_, payload, err := fr.Next()
		if err == io.EOF {
			return frames, records, nil
		}
		if err != nil {
			return frames, records, &BatchError{Frame: frame, Err: err}
		}
		d := &snapDecoder{b: payload, what: "batch"}
		count := d.length(minRecordEncodedLen)
		for i := 0; i < count && d.err == nil; i++ {
			decodeRecordBinary(d, &rec, intern)
			if d.err != nil {
				break
			}
			if err := sink.Observe(&rec); err != nil {
				return frames, records, err
			}
			records++
		}
		if d.err == nil && d.remaining() != 0 {
			d.fail("%d trailing bytes", d.remaining())
		}
		if d.err != nil {
			return frames, records, &BatchError{Frame: frame, Err: d.err}
		}
		frames++
	}
}

// SniffReader wraps r in a buffered reader whose first bytes have been
// peeked, reporting whether the stream starts with a batch frame. The
// returned reader replays the stream from the beginning. Short or empty
// streams are reported as not-binary and left for the TSV reader to
// diagnose.
func SniffReader(r io.Reader) (*bufio.Reader, bool) {
	br := bufio.NewReaderSize(r, 1<<16)
	prefix, _ := br.Peek(len(batchFormat.Magic))
	return br, IsBatchStream(prefix)
}
