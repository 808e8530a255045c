package wire

import "tlsage/internal/registry"

// Extension is one raw TLS extension: its code point and opaque body.
// Typed accessors for the bodies the study decodes (supported_groups,
// ec_point_formats, supported_versions, server_name, heartbeat) live on
// ClientHello/ServerHello.
type Extension struct {
	ID   registry.ExtensionID
	Data []byte
}

// appendExtensions serializes an extension block (uint16 total length, then
// each extension as ID, uint16 body length, body).
func appendExtensions(b *builder, exts []Extension) {
	var inner builder
	for _, e := range exts {
		inner.u16(uint16(e.ID))
		inner.vec16(e.Data)
	}
	b.vec16(inner.buf)
}

// parseExtensions parses an extension block. Bodies are copied so the result
// does not alias the input.
func parseExtensions(r *reader) ([]Extension, error) {
	block := r.vec16("extensions block")
	if r.err != nil {
		return nil, r.err
	}
	er := newReader(block)
	var out []Extension
	for !er.empty() {
		id := er.u16("extension id")
		body := er.vec16("extension body")
		if er.err != nil {
			return nil, er.err
		}
		out = append(out, Extension{
			ID:   registry.ExtensionID(id),
			Data: append([]byte(nil), body...),
		})
	}
	return out, nil
}

// FindExtension returns the first extension with the given ID, or false.
func FindExtension(exts []Extension, id registry.ExtensionID) (Extension, bool) {
	for _, e := range exts {
		if e.ID == id {
			return e, true
		}
	}
	return Extension{}, false
}

// --- Typed extension constructors ---

// NewSupportedGroupsExtension builds a supported_groups (elliptic_curves)
// extension body from the curve list.
func NewSupportedGroupsExtension(curves []registry.CurveID) Extension {
	var b builder
	vals := make([]uint16, len(curves))
	for i, c := range curves {
		vals[i] = uint16(c)
	}
	b.u16listVec(vals)
	return Extension{ID: registry.ExtSupportedGroups, Data: b.buf}
}

// NewECPointFormatsExtension builds an ec_point_formats extension body.
func NewECPointFormatsExtension(formats []registry.ECPointFormat) Extension {
	body := make([]byte, 1+len(formats))
	body[0] = byte(len(formats))
	for i, f := range formats {
		body[1+i] = byte(f)
	}
	return Extension{ID: registry.ExtECPointFormats, Data: body}
}

// NewSupportedVersionsExtension builds the TLS 1.3 supported_versions
// ClientHello body (uint8 length prefix, then uint16 versions).
func NewSupportedVersionsExtension(versions []registry.Version) Extension {
	body := make([]byte, 1, 1+2*len(versions))
	body[0] = byte(2 * len(versions))
	for _, v := range versions {
		body = append(body, byte(v>>8), byte(v))
	}
	return Extension{ID: registry.ExtSupportedVersions, Data: body}
}

// NewHeartbeatExtension builds a heartbeat extension (RFC 6520) with the
// given mode (1 = peer_allowed_to_send).
func NewHeartbeatExtension(mode uint8) Extension {
	return Extension{ID: registry.ExtHeartbeat, Data: []byte{mode}}
}

// The supported_groups / ec_point_formats / supported_versions bodies are
// decoded by the ClientHello.Append* accessors in clienthello.go — one
// decoder per extension, shared by the plain and append-into accessor
// families.
