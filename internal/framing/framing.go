// Package framing is the one frame envelope every tlsage disk and wire
// format travels in; snapshots, record batches and edge→core deltas differ
// only in the payload:
//
//	offset  size  field
//	0       4     magic (Format.Magic)
//	4       1     version byte (MinVersion..Version are read, Version written)
//	5       L     payload length, little-endian (L = Format.LenBytes, 4 or 8)
//	5+L     N     payload (owned by the format's codec)
//	5+L+N   4     CRC32-IEEE of the payload, little-endian
//
// A stream is any number of frames back to back. Reading is defensive: magic,
// version range and length cap are checked before any payload byte is read,
// the body buffer grows with the bytes actually present, and a payload is
// only handed out once its checksum matched. Errors carry no package prefix
// (the owning codec wraps them) and wrap the underlying read error.
package framing

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	magicLen   = 4
	trailerLen = 4 // CRC32
	// growChunk is the least a Reader's body buffer grows by; from there it
	// doubles, never past the frame's declared size.
	growChunk = 1 << 20
)

// Checksum is the envelope's CRC32-IEEE, for a record too small to frame:
// each slot of the edge's shipped-through cursor file carries it in hex.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Format describes one wire format's envelope; declare one per format,
// beside its payload codec.
type Format struct {
	Magic               string // 4 bytes branding the format's frames
	MinVersion, Version byte   // range readers accept; writers stamp Version
	LenBytes            int    // width of the length field: 4 or 8
	// MaxPayload caps the payload End will frame and a reader will believe, so
	// a corrupt length cannot drive a huge allocation. It must fit LenBytes.
	MaxPayload uint64
}

func (f *Format) headerLen() int { return magicLen + 1 + f.LenBytes }

// Begin appends a frame header with a blank length to dst and returns the
// extended slice plus the mark End needs; the caller appends the payload.
func (f *Format) Begin(dst []byte) (out []byte, mark int) {
	mark = len(dst)
	dst = append(append(dst, f.Magic...), f.Version)
	return append(dst, make([]byte, f.LenBytes)...), mark
}

// End completes the frame Begin opened at mark: what was appended since is
// the payload; its length is backfilled and its CRC32 appended. A payload
// over MaxPayload is refused — no reader would accept the frame — and dst
// comes back cut to mark.
func (f *Format) End(dst []byte, mark int) ([]byte, error) {
	payload := dst[mark+f.headerLen():]
	if uint64(len(payload)) > f.MaxPayload {
		return dst[:mark], fmt.Errorf("payload of %d bytes exceeds the %d-byte cap", len(payload), f.MaxPayload)
	}
	var n [8]byte // little-endian: the low LenBytes bytes are the narrow form
	binary.LittleEndian.PutUint64(n[:], uint64(len(payload)))
	copy(dst[mark+magicLen+1:], n[:f.LenBytes])
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload)), nil
}

// header validates a complete frame header and returns its version byte and
// how many bytes follow it (payload plus checksum trailer).
func (f *Format) header(hdr []byte) (version byte, rest uint64, err error) {
	if string(hdr[:magicLen]) != f.Magic {
		return 0, 0, fmt.Errorf("bad magic %q, want %q", hdr[:magicLen], f.Magic)
	}
	version = hdr[magicLen]
	if version < f.MinVersion || version > f.Version {
		return 0, 0, fmt.Errorf("version %d, this build reads %d..%d", version, f.MinVersion, f.Version)
	}
	var n [8]byte
	copy(n[:], hdr[magicLen+1:])
	rest = binary.LittleEndian.Uint64(n[:])
	if rest > f.MaxPayload || rest > math.MaxInt-trailerLen {
		return 0, 0, fmt.Errorf("implausible payload length %d (cap %d)", rest, f.MaxPayload)
	}
	return version, rest + trailerLen, nil
}

// errTruncated keeps bare io.EOF for frame boundaries: a stream that ends
// inside a frame wraps io.ErrUnexpectedEOF instead.
func errTruncated(what string, have, want uint64, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("truncated %s: %d of %d bytes: %w", what, have, want, err)
}

// Reader reads a stream of one format's frames. The header scratch and the
// body buffer live in the Reader and are reused from frame to frame, so a
// stream's allocations do not grow with its frame count.
type Reader struct {
	f    *Format
	r    io.Reader
	hdr  [magicLen + 1 + 8]byte
	body []byte
}

// NewReader starts reading frames of format f from r.
func (f *Format) NewReader(r io.Reader) *Reader { return &Reader{f: f, r: r} }

// Lend gives the Reader a body buffer to start from in place of growing its
// own: a caller that reads stream after stream keeps one between them. The
// Reader grows past it like any other.
func (rd *Reader) Lend(body []byte) { rd.body = body }

// Reclaim takes the body buffer back — the lent one, or what the Reader grew
// in its place — and ends the Reader's use of it: the last payload handed out
// is the caller's to overwrite.
func (rd *Reader) Reclaim() (body []byte) {
	body, rd.body = rd.body, nil
	return body
}

// Next reads the next frame and returns its version byte and payload; the
// payload is valid until the following call. A stream that ends at a frame
// boundary (an empty stream included) returns bare io.EOF.
func (rd *Reader) Next() (version byte, payload []byte, err error) {
	hdr := rd.hdr[:rd.f.headerLen()]
	if n, err := io.ReadFull(rd.r, hdr); err == io.EOF {
		return 0, nil, io.EOF
	} else if err != nil {
		return 0, nil, errTruncated("frame header", uint64(n), uint64(len(hdr)), err)
	}
	version, want, err := rd.f.header(hdr)
	if err != nil {
		return 0, nil, err
	}
	// Fill the reused body buffer. Capacity grows by at least growChunk, at
	// most doubling, and only once what is allocated has been filled from the
	// stream: a declared length the stream cannot back never costs more than
	// the bytes present plus one step.
	buf := rd.body[:0]
	for len(buf) < int(want) {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(int(want), max(2*cap(buf), len(buf)+growChunk))), buf...)
		}
		at := len(buf)
		buf = buf[:min(cap(buf), int(want))]
		if n, err := io.ReadFull(rd.r, buf[at:]); err != nil {
			return 0, nil, errTruncated("frame", uint64(at+n), want, err)
		}
	}
	rd.body = buf
	payload, trailer := buf[:len(buf)-trailerLen], buf[len(buf)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(trailer); got != want {
		return 0, nil, fmt.Errorf("checksum mismatch (%08x, want %08x)", got, want)
	}
	return version, payload, nil
}

// AppendFrame appends to dst the frame Next last returned without an error —
// header, payload and checksum, as read — and returns the extended slice.
func (rd *Reader) AppendFrame(dst []byte) []byte {
	return append(append(dst, rd.hdr[:rd.f.headerLen()]...), rd.body...)
}

// Decode reads exactly one frame from b — trailing bytes are an error — and
// returns its version byte and a copy of its payload.
func (f *Format) Decode(b []byte) (version byte, payload []byte, err error) {
	br := bytes.NewReader(b)
	version, payload, err = f.NewReader(br).Next()
	switch {
	case err == io.EOF:
		err = errTruncated("frame header", 0, uint64(f.headerLen()), err)
	case err == nil && br.Len() > 0:
		err = fmt.Errorf("%d trailing bytes after the frame", br.Len())
	}
	return version, payload, err
}
