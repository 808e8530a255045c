// Package fingerprint implements §4 of the paper: TLS client fingerprints
// built from the Client Hello, the fingerprint database with its collision
// rules, and the §4.1 lifetime statistics.
//
// A fingerprint is the concatenation of four features in wire order: the
// cipher-suite list, the client extension list, the supported elliptic
// curves, and the EC point formats. GREASE values are identified and removed
// first, exactly as the paper does for Chrome-lineage clients.
package fingerprint

import (
	"slices"
	"strings"

	"tlsage/internal/registry"
	"tlsage/internal/wire"
)

// Fingerprint is the canonical string form of a client fingerprint. It is
// stable across runs and usable as a map key and log token.
type Fingerprint string

// FromParts computes the fingerprint from the four Client Hello features,
// all in wire order: "cs:" suites "|ext:" extensions "|grp:" curves "|pf:"
// point formats, each value four lowercase hex digits, comma-separated.
// GREASE values are skipped in place; a point format is one byte, never a
// GREASE code point, so that list is written whole. The lists are written
// into one buffer sized up front, which becomes the returned string: the
// only allocation.
func FromParts(suites []uint16, exts []registry.ExtensionID, curves []registry.CurveID, pfs []registry.ECPointFormat) Fingerprint {
	var b strings.Builder
	b.Grow(len("cs:|ext:|grp:|pf:") + 5*(len(suites)+len(exts)+len(curves)+len(pfs)))
	b.WriteString("cs:")
	writeHexList(&b, suites)
	b.WriteString("|ext:")
	writeHexList(&b, exts)
	b.WriteString("|grp:")
	writeHexList(&b, curves)
	b.WriteString("|pf:")
	writeHexList(&b, pfs)
	return Fingerprint(b.String())
}

const hexDigits = "0123456789abcdef"

// writeHexList writes the non-GREASE values of vals as %04x, comma-separated.
func writeHexList[T ~uint16 | ~uint8](b *strings.Builder, vals []T) {
	sep := false
	for _, v := range vals {
		u := uint16(v)
		if registry.IsGREASE(u) {
			continue
		}
		if sep {
			b.WriteByte(',')
		}
		sep = true
		b.Write([]byte{hexDigits[u>>12], hexDigits[u>>8&0xf], hexDigits[u>>4&0xf], hexDigits[u&0xf]})
	}
}

// FromClientHello computes the fingerprint of a parsed hello.
func FromClientHello(ch *wire.ClientHello) Fingerprint {
	return FromParts(ch.CipherSuites, ch.AppendExtensionIDs(nil), ch.SupportedGroups(), ch.AppendECPointFormats(nil))
}

// Usable reports whether a hello carries enough of the §4 feature set to be
// fingerprinted meaningfully. The paper requires the fingerprinting fields
// introduced into the Notary in February 2014; here the proxy is a cipher
// list with at least one non-GREASE suite.
func Usable(suites []uint16) bool {
	return slices.ContainsFunc(suites, func(s uint16) bool { return !registry.IsGREASE(s) })
}
