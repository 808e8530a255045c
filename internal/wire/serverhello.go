package wire

import (
	"fmt"

	"tlsage/internal/registry"
)

// ServerHello is a parsed TLS ServerHello handshake message: the server's
// choice of version, cipher suite and extensions.
type ServerHello struct {
	Version           registry.Version
	Random            [32]byte
	SessionID         []byte
	CipherSuite       uint16
	CompressionMethod byte
	Extensions        []Extension
}

// Append serializes the ServerHello handshake body into dst.
func (sh *ServerHello) Append(dst []byte) []byte {
	b := builder{buf: dst}
	b.u16(uint16(sh.Version))
	b.raw(sh.Random[:])
	b.vec8(sh.SessionID)
	b.u16(sh.CipherSuite)
	b.u8(sh.CompressionMethod)
	appendExtensions(&b, sh.Extensions)
	return b.buf
}

// DecodeFromBytes parses a ServerHello handshake body. The input is not
// retained.
func (sh *ServerHello) DecodeFromBytes(data []byte) error {
	r := newReader(data)
	sh.Version = registry.Version(r.u16("server version"))
	copy(sh.Random[:], r.bytes(32, "random"))
	sid := r.vec8("session id")
	sh.CipherSuite = r.u16("cipher suite")
	sh.CompressionMethod = r.u8("compression method")
	if r.err != nil {
		return r.err
	}
	sh.SessionID = append([]byte(nil), sid...)
	sh.Extensions = nil
	if r.empty() {
		return nil
	}
	exts, err := parseExtensions(r)
	if err != nil {
		return err
	}
	if !r.empty() {
		return fmt.Errorf("%w: %d trailing bytes after extensions", ErrMalformed, len(r.data))
	}
	sh.Extensions = exts
	return nil
}

// AppendRecord serializes the full on-the-wire form (record + handshake
// headers) appended to dst.
func (sh *ServerHello) AppendRecord(dst []byte) []byte {
	msg := AppendHandshake(nil, TypeServerHello, sh.Append(nil))
	recVer := sh.Version
	if recVer.IsTLS13Variant() {
		recVer = registry.VersionTLS12 // 1.3 ServerHellos use a 1.2 record version
	}
	return AppendRecord(dst, ContentHandshake, recVer, msg)
}

// AcksHeartbeat reports whether the server echoed the heartbeat extension
// (the condition the paper uses for "heartbeat negotiated", §5.4).
func (sh *ServerHello) AcksHeartbeat() bool {
	_, ok := FindExtension(sh.Extensions, registry.ExtHeartbeat)
	return ok
}

// NewServerSupportedVersionsExtension builds the ServerHello form of
// supported_versions: exactly one selected version.
func NewServerSupportedVersionsExtension(v registry.Version) Extension {
	return Extension{
		ID:   registry.ExtSupportedVersions,
		Data: []byte{byte(v >> 8), byte(v)},
	}
}
