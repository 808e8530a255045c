package wire

import (
	"fmt"

	"tlsage/internal/registry"
)

// SSLv2ClientHello is the legacy SSL 2 CLIENT-HELLO message (including its
// 2-byte record header with the high bit set). SSLv2 cipher specs are 3
// bytes; SSLv2-compatible hellos can also carry TLS suites as 0x00XXYY.
// The Notary observed 1.2K SSLv2 connections in February 2018 (§5.1), all of
// them terminating at a single university's Nagios servers, so the codec
// must still parse the format.
type SSLv2ClientHello struct {
	Version     registry.Version // version requested inside the v2 hello
	CipherSpecs []uint32         // 3-byte specs, stored in the low 24 bits
	SessionID   []byte
	Challenge   []byte
}

// sslv2MsgClientHello is the SSLv2 CLIENT-HELLO message type byte.
const sslv2MsgClientHello = 1

// Append appends the full SSLv2 record (2-byte header + hello) to dst. It
// panics on a hello over 0x7fff bytes, the most the header can carry.
func (h *SSLv2ClientHello) Append(dst []byte) []byte {
	var b builder
	b.u8(sslv2MsgClientHello)
	b.u16(uint16(h.Version))
	b.u16(uint16(3 * len(h.CipherSpecs)))
	b.u16(uint16(len(h.SessionID)))
	b.u16(uint16(len(h.Challenge)))
	for _, cs := range h.CipherSpecs {
		b.u24(cs & 0xffffff)
	}
	b.raw(h.SessionID)
	b.raw(h.Challenge)
	if len(b.buf) > 0x7fff {
		panic("wire: sslv2 hello exceeds 0x7fff")
	}
	dst = append(dst, byte(len(b.buf)>>8)|0x80, byte(len(b.buf)))
	return append(dst, b.buf...)
}

// DecodeFromBytes parses a full SSLv2 record containing a CLIENT-HELLO.
func (h *SSLv2ClientHello) DecodeFromBytes(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("%w: sslv2 record header", ErrTruncated)
	}
	if data[0]&0x80 == 0 {
		return fmt.Errorf("%w: not an sslv2 2-byte record header", ErrMalformed)
	}
	length := int(data[0]&0x7f)<<8 | int(data[1])
	if len(data) < 2+length {
		return fmt.Errorf("%w: sslv2 record body", ErrTruncated)
	}
	r := newReader(data[2 : 2+length])
	if typ := r.u8("sslv2 message type"); r.err == nil && typ != sslv2MsgClientHello {
		return fmt.Errorf("%w: sslv2 message type %d", ErrMalformed, typ)
	}
	h.Version = registry.Version(r.u16("sslv2 version"))
	csLen := int(r.u16("cipher spec length"))
	sidLen := int(r.u16("session id length"))
	chLen := int(r.u16("challenge length"))
	if r.err != nil {
		return r.err
	}
	if csLen%3 != 0 {
		return fmt.Errorf("%w: sslv2 cipher spec length %d not divisible by 3", ErrMalformed, csLen)
	}
	specs := r.bytes(csLen, "cipher specs")
	sid := r.bytes(sidLen, "session id")
	challenge := r.bytes(chLen, "challenge")
	if r.err != nil {
		return r.err
	}
	h.CipherSpecs = make([]uint32, csLen/3)
	for i := range h.CipherSpecs {
		h.CipherSpecs[i] = uint32(specs[3*i])<<16 | uint32(specs[3*i+1])<<8 | uint32(specs[3*i+2])
	}
	h.SessionID = append([]byte(nil), sid...)
	h.Challenge = append([]byte(nil), challenge...)
	return nil
}

// IsSSLv2Hello sniffs whether data starts with an SSLv2 2-byte record header
// carrying a CLIENT-HELLO — the disambiguation a passive monitor performs
// before choosing a parser.
func IsSSLv2Hello(data []byte) bool {
	return len(data) >= 3 && data[0]&0x80 != 0 && data[2] == sslv2MsgClientHello
}

// TLSSuitesFromSSLv2 extracts the TLS-compatible cipher suites (specs of the
// form 0x00XXYY) from an SSLv2 spec list, preserving order.
func TLSSuitesFromSSLv2(specs []uint32) []uint16 {
	var out []uint16
	for _, s := range specs {
		if s>>16 == 0 {
			out = append(out, uint16(s))
		}
	}
	return out
}
