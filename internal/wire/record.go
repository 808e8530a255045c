// Package wire implements the SSL/TLS wire format needed to observe and
// generate handshakes: the record layer, handshake-message framing, the
// ClientHello and ServerHello messages (SSL3 through TLS 1.3 draft
// negotiation), alerts, and the legacy SSLv2 ClientHello.
//
// The codec follows the decoding conventions of the gopacket DecodingLayer
// API: each message type has a DecodeFromBytes method that parses from a
// byte slice without retaining it (all variable-length fields are copied),
// and an Append method that serializes into a caller-provided buffer to
// avoid allocation in hot paths.
//
// Encoding is total: Append never fails. A length that its prefix or the
// record layer cannot hold panics, because every encoder's input is either
// built by the program or already bounded by a decoder, so exceeding a
// limit is a programming error. Nothing else is checked on encode: each
// message's Append takes every value its decoder returns. Re-framing a
// decoded ClientHello whole is the exception: Append writes the extension
// block and compression list a decoded hello may lack, so a hello that
// filled its record can outgrow it. No caller re-frames a decoded hello.
package wire

import (
	"fmt"
	"io"

	"tlsage/internal/registry"
)

// ContentType is the TLS record-layer content type.
type ContentType uint8

// Record content types used by the handshake-observation code paths.
const (
	ContentChangeCipherSpec ContentType = 20
	ContentAlert            ContentType = 21
	ContentHandshake        ContentType = 22
	ContentApplicationData  ContentType = 23
	ContentHeartbeat        ContentType = 24
)

// String returns the conventional name of the content type.
func (c ContentType) String() string {
	switch c {
	case ContentChangeCipherSpec:
		return "change_cipher_spec"
	case ContentAlert:
		return "alert"
	case ContentHandshake:
		return "handshake"
	case ContentApplicationData:
		return "application_data"
	case ContentHeartbeat:
		return "heartbeat"
	}
	return fmt.Sprintf("content(%d)", uint8(c))
}

// HandshakeType is the handshake-message type byte.
type HandshakeType uint8

// Handshake message types relevant to passive hello observation.
const (
	TypeClientHello HandshakeType = 1
	TypeServerHello HandshakeType = 2
)

// maxRecordLen is the maximum TLSPlaintext fragment length (RFC 5246 §6.2.1).
const maxRecordLen = 1 << 14

// Record is one TLS record: the 5-byte header plus its payload.
type Record struct {
	Type    ContentType
	Version registry.Version
	Payload []byte
}

// AppendRecord serializes a record header plus payload into dst and returns
// the extended slice. It panics on a payload over 2^14 bytes.
func AppendRecord(dst []byte, typ ContentType, ver registry.Version, payload []byte) []byte {
	if len(payload) > maxRecordLen {
		panic("wire: record payload exceeds 2^14")
	}
	dst = append(dst, byte(typ), byte(ver>>8), byte(ver), byte(len(payload)>>8), byte(len(payload)))
	return append(dst, payload...)
}

// ReadRecord reads exactly one TLS record from r. The payload is freshly
// allocated. It rejects payloads longer than 2^14 as the record layer does.
func ReadRecord(r io.Reader) (Record, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, fmt.Errorf("wire: reading record header: %w", err)
	}
	length := int(hdr[3])<<8 | int(hdr[4])
	if length > maxRecordLen {
		return Record{}, fmt.Errorf("%w: record length %d exceeds 2^14", ErrMalformed, length)
	}
	rec := Record{
		Type:    ContentType(hdr[0]),
		Version: registry.Version(uint16(hdr[1])<<8 | uint16(hdr[2])),
		Payload: make([]byte, length),
	}
	if _, err := io.ReadFull(r, rec.Payload); err != nil {
		return Record{}, fmt.Errorf("wire: reading record payload: %w", err)
	}
	return rec, nil
}

// DecodeRecord parses a record from the front of data and returns the record
// plus the number of bytes consumed. The payload aliases data.
func DecodeRecord(data []byte) (Record, int, error) {
	if len(data) < 5 {
		return Record{}, 0, fmt.Errorf("%w: record header", ErrTruncated)
	}
	length := int(data[3])<<8 | int(data[4])
	if length > maxRecordLen {
		return Record{}, 0, fmt.Errorf("%w: record length %d exceeds 2^14", ErrMalformed, length)
	}
	if len(data) < 5+length {
		return Record{}, 0, fmt.Errorf("%w: record payload", ErrTruncated)
	}
	rec := Record{
		Type:    ContentType(data[0]),
		Version: registry.Version(uint16(data[1])<<8 | uint16(data[2])),
		Payload: data[5 : 5+length],
	}
	return rec, 5 + length, nil
}

// AppendHandshake wraps a handshake body with its 4-byte message header
// (type + uint24 length) and appends to dst. It panics on a body of 2^24
// bytes or more.
func AppendHandshake(dst []byte, typ HandshakeType, body []byte) []byte {
	if len(body) >= 1<<24 {
		panic("wire: handshake body exceeds 2^24-1")
	}
	dst = append(dst, byte(typ), byte(len(body)>>16), byte(len(body)>>8), byte(len(body)))
	return append(dst, body...)
}

// DecodeHandshake splits one handshake message off the front of data,
// returning its type, body (aliasing data) and bytes consumed.
func DecodeHandshake(data []byte) (HandshakeType, []byte, int, error) {
	if len(data) < 4 {
		return 0, nil, 0, fmt.Errorf("%w: handshake header", ErrTruncated)
	}
	length := int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	if len(data) < 4+length {
		return 0, nil, 0, fmt.Errorf("%w: handshake body", ErrTruncated)
	}
	return HandshakeType(data[0]), data[4 : 4+length], 4 + length, nil
}

// Alert is a TLS alert message (2 bytes).
type Alert struct {
	Level       uint8 // 1 = warning, 2 = fatal
	Description uint8
}

// Alert descriptions used by the negotiation engine.
const (
	AlertCloseNotify           = 0
	AlertHandshakeFailure      = 40
	AlertProtocolVersion       = 70
	AlertInappropriateFallback = 86 // RFC 7507, TLS_FALLBACK_SCSV
)

// Append appends the 2-byte alert to dst.
func (a Alert) Append(dst []byte) []byte {
	return append(dst, a.Level, a.Description)
}

// DecodeFromBytes parses an alert payload.
func (a *Alert) DecodeFromBytes(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("%w: alert", ErrTruncated)
	}
	a.Level, a.Description = data[0], data[1]
	return nil
}
