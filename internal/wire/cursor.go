package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode errors: every decode failure wraps ErrMalformed so callers can
// classify with errors.Is; truncation additionally wraps ErrTruncated.
// Encoding has no errors (see the package doc).
var (
	ErrMalformed = errors.New("wire: malformed message")
	ErrTruncated = fmt.Errorf("%w: truncated", ErrMalformed)
)

// reader is a bounds-checked big-endian cursor over a byte slice, in the
// style of golang.org/x/crypto/cryptobyte but stdlib-only. All methods are
// total: after the first failure the reader is poisoned and every subsequent
// call fails fast, so parse code can run a straight-line sequence of reads
// and check the error once.
type reader struct {
	data []byte
	err  error
}

func newReader(data []byte) *reader { return &reader{data: data} }

func (r *reader) fail(context string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w (%s)", ErrTruncated, context)
	}
}

// empty reports whether all input has been consumed (and no error occurred).
func (r *reader) empty() bool { return r.err == nil && len(r.data) == 0 }

func (r *reader) u8(context string) uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 1 {
		r.fail(context)
		return 0
	}
	v := r.data[0]
	r.data = r.data[1:]
	return v
}

func (r *reader) u16(context string) uint16 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 2 {
		r.fail(context)
		return 0
	}
	v := binary.BigEndian.Uint16(r.data)
	r.data = r.data[2:]
	return v
}

// bytes consumes exactly n bytes. The returned slice aliases the input; the
// caller copies if it needs to retain the data (gopacket NoCopy convention).
func (r *reader) bytes(n int, context string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data) < n {
		r.fail(context)
		return nil
	}
	v := r.data[:n]
	r.data = r.data[n:]
	return v
}

// vec8 consumes a uint8-length-prefixed vector.
func (r *reader) vec8(context string) []byte {
	n := int(r.u8(context))
	return r.bytes(n, context)
}

// vec16 consumes a uint16-length-prefixed vector.
func (r *reader) vec16(context string) []byte {
	n := int(r.u16(context))
	return r.bytes(n, context)
}

// u16list parses a uint16-length-prefixed list of uint16s; the byte length
// must be even.
func (r *reader) u16list(context string) []uint16 {
	body := r.vec16(context)
	if r.err != nil {
		return nil
	}
	if len(body)%2 != 0 {
		r.err = fmt.Errorf("%w: odd-length uint16 list (%s)", ErrMalformed, context)
		return nil
	}
	out := make([]uint16, len(body)/2)
	for i := range out {
		out[i] = binary.BigEndian.Uint16(body[2*i:])
	}
	return out
}

// builder is the write-side counterpart of reader: an appending big-endian
// serializer with length-prefix support. The zero value is ready to use.
type builder struct {
	buf []byte
}

func (b *builder) u8(v uint8)   { b.buf = append(b.buf, v) }
func (b *builder) u16(v uint16) { b.buf = append(b.buf, byte(v>>8), byte(v)) }
func (b *builder) u24(v uint32) { b.buf = append(b.buf, byte(v>>16), byte(v>>8), byte(v)) }
func (b *builder) raw(p []byte) { b.buf = append(b.buf, p...) }

// vec8 appends a uint8-length-prefixed vector. Panics if p exceeds 255
// bytes: these limits are structural, exceeding them is a programming error.
func (b *builder) vec8(p []byte) {
	if len(p) > 0xff {
		panic("wire: vec8 overflow")
	}
	b.u8(uint8(len(p)))
	b.raw(p)
}

// vec16 appends a uint16-length-prefixed vector.
func (b *builder) vec16(p []byte) {
	if len(p) > 0xffff {
		panic("wire: vec16 overflow")
	}
	b.u16(uint16(len(p)))
	b.raw(p)
}

// u16listVec appends a uint16-length-prefixed list of uint16 values.
func (b *builder) u16listVec(vals []uint16) {
	if len(vals) > 0x7fff {
		panic("wire: uint16 list overflow")
	}
	b.u16(uint16(2 * len(vals)))
	for _, v := range vals {
		b.u16(v)
	}
}
