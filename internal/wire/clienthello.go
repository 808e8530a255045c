package wire

import (
	"fmt"

	"tlsage/internal/registry"
)

// ClientHello is a parsed TLS ClientHello handshake message (RFC 5246
// §7.4.1.2). Field order matches the wire layout. All slices are owned by
// the struct (decoding copies out of the input buffer).
type ClientHello struct {
	Version            registry.Version // legacy_version on the wire
	Random             [32]byte
	SessionID          []byte
	CipherSuites       []uint16
	CompressionMethods []byte
	Extensions         []Extension
}

// Append serializes the ClientHello handshake body (without the handshake
// header) into dst and returns the extended slice. An empty compression
// list is written as [0] (null compression).
func (ch *ClientHello) Append(dst []byte) []byte {
	b := builder{buf: dst}
	b.u16(uint16(ch.Version))
	b.raw(ch.Random[:])
	b.vec8(ch.SessionID)
	b.u16listVec(ch.CipherSuites)
	comp := ch.CompressionMethods
	if len(comp) == 0 {
		comp = []byte{0}
	}
	b.vec8(comp)
	appendExtensions(&b, ch.Extensions)
	return b.buf
}

// DecodeFromBytes parses a ClientHello handshake body. On error the receiver
// is left in an undefined state. The input is not retained.
func (ch *ClientHello) DecodeFromBytes(data []byte) error {
	r := newReader(data)
	ch.Version = registry.Version(r.u16("client version"))
	copy(ch.Random[:], r.bytes(32, "random"))
	sid := r.vec8("session id")
	suites := r.u16list("cipher suites")
	comp := r.vec8("compression methods")
	if r.err != nil {
		return r.err
	}
	ch.SessionID = append([]byte(nil), sid...)
	ch.CipherSuites = append([]uint16(nil), suites...)
	ch.CompressionMethods = append([]byte(nil), comp...)
	ch.Extensions = nil
	if r.empty() {
		return nil // SSL3-style hello without extensions
	}
	exts, err := parseExtensions(r)
	if err != nil {
		return err
	}
	if !r.empty() {
		return fmt.Errorf("%w: %d trailing bytes after extensions", ErrMalformed, len(r.data))
	}
	ch.Extensions = exts
	return nil
}

// AppendRecord serializes the full on-the-wire form: handshake header plus
// record header, appended to dst.
func (ch *ClientHello) AppendRecord(dst []byte) []byte {
	var e HelloEncoder
	return e.AppendRecord(ch, dst)
}

// HelloEncoder serializes hellos through reusable scratch buffers, so a loop
// encoding many hellos (the simulator's wire round-trip does one per
// connection) pays for the intermediate handshake framing buffers once
// instead of on every message. The zero value is ready to use. An encoder
// must not be shared between goroutines. The bytes appended to dst are
// copies and stay valid across later calls.
type HelloEncoder struct {
	body, msg []byte
}

// AppendRecord appends ch's full on-the-wire form to dst — identical bytes
// to (*ClientHello).AppendRecord — reusing the encoder's internal buffers.
func (e *HelloEncoder) AppendRecord(ch *ClientHello, dst []byte) []byte {
	e.body = ch.Append(e.body[:0])
	e.msg = AppendHandshake(e.msg[:0], TypeClientHello, e.body)
	// The record-layer version of a ClientHello is conventionally TLS 1.0
	// for maximum middlebox tolerance when the hello itself is ≥ TLS 1.0.
	recVer := ch.Version
	if recVer > registry.VersionTLS10 {
		recVer = registry.VersionTLS10
	}
	return AppendRecord(dst, ContentHandshake, recVer, e.msg)
}

// AppendExtensionIDs appends the extension code points in wire order to dst.
// Append-variant accessors exist for every list the Notary pipeline copies
// into a (pooled) record, so observation reuses the record's capacity
// instead of allocating per connection.
func (ch *ClientHello) AppendExtensionIDs(dst []registry.ExtensionID) []registry.ExtensionID {
	for _, e := range ch.Extensions {
		dst = append(dst, e.ID)
	}
	return dst
}

// AppendSupportedGroups appends the supported_groups curves to dst; dst is
// returned unchanged when the extension is absent or malformed.
func (ch *ClientHello) AppendSupportedGroups(dst []registry.CurveID) []registry.CurveID {
	e, ok := FindExtension(ch.Extensions, registry.ExtSupportedGroups)
	if !ok {
		return dst
	}
	r := newReader(e.Data)
	body := r.vec16("supported_groups")
	if r.err != nil || len(body)%2 != 0 {
		return dst
	}
	for i := 0; i+1 < len(body); i += 2 {
		dst = append(dst, registry.CurveID(uint16(body[i])<<8|uint16(body[i+1])))
	}
	return dst
}

// AppendECPointFormats appends the offered EC point formats to dst; dst is
// returned unchanged when the extension is absent or malformed.
func (ch *ClientHello) AppendECPointFormats(dst []registry.ECPointFormat) []registry.ECPointFormat {
	e, ok := FindExtension(ch.Extensions, registry.ExtECPointFormats)
	if !ok {
		return dst
	}
	r := newReader(e.Data)
	body := r.vec8("ec_point_formats")
	if r.err != nil {
		return dst
	}
	for _, v := range body {
		dst = append(dst, registry.ECPointFormat(v))
	}
	return dst
}

// AppendSupportedVersions appends the supported_versions list to dst; dst is
// returned unchanged when the extension is absent or malformed.
func (ch *ClientHello) AppendSupportedVersions(dst []registry.Version) []registry.Version {
	e, ok := FindExtension(ch.Extensions, registry.ExtSupportedVersions)
	if !ok {
		return dst
	}
	r := newReader(e.Data)
	body := r.vec8("supported_versions")
	if r.err != nil || len(body)%2 != 0 {
		return dst
	}
	for i := 0; i+1 < len(body); i += 2 {
		dst = append(dst, registry.Version(uint16(body[i])<<8|uint16(body[i+1])))
	}
	return dst
}

// SupportedGroups returns the curves offered in the supported_groups
// extension, or nil when absent.
func (ch *ClientHello) SupportedGroups() []registry.CurveID {
	return ch.AppendSupportedGroups(nil)
}

// SupportedVersions returns the supported_versions list (TLS 1.3 style
// version negotiation), or nil when the extension is absent.
func (ch *ClientHello) SupportedVersions() []registry.Version {
	return ch.AppendSupportedVersions(nil)
}

// OffersHeartbeat reports whether the hello carries the heartbeat extension.
func (ch *ClientHello) OffersHeartbeat() bool {
	_, ok := FindExtension(ch.Extensions, registry.ExtHeartbeat)
	return ok
}
