// Package registry holds the static IANA-derived TLS parameter registries the
// rest of the system is built on: protocol versions, cipher suites, TLS
// extensions, named elliptic curves, EC point formats and GREASE values.
//
// The data mirrors the registries referenced by the paper (IANA "TLS
// parameters" and "TLS ExtensionType values" as of 2018) closely enough that
// every cipher suite, extension and curve the study discusses is present with
// its real code point. Lookup is by numeric ID, wire order is preserved
// everywhere, and all slices returned by the package are copies so callers
// can mutate them freely.
package registry

import "fmt"

// Version is a TLS protocol version as carried on the wire (major<<8|minor).
// SSL 2 is represented by its conventional 0x0002 value even though the SSLv2
// record format does not actually carry it in this form.
type Version uint16

// Wire values for every SSL/TLS protocol version the study observes,
// including the TLS 1.3 draft and Google-experimental values seen in the
// supported_versions extension (§6.4 of the paper).
const (
	VersionSSL2  Version = 0x0002
	VersionSSL3  Version = 0x0300
	VersionTLS10 Version = 0x0301
	VersionTLS11 Version = 0x0302
	VersionTLS12 Version = 0x0303
	VersionTLS13 Version = 0x0304

	// VersionTLS13Draft18 is draft-ietf-tls-tls13-18, the most commonly
	// advertised "official" draft in the paper's data (13.4%).
	VersionTLS13Draft18 Version = 0x7f12
	// VersionTLS13Draft28 is the final draft referenced by the paper.
	VersionTLS13Draft28 Version = 0x7f1c
	// VersionTLS13Google is 0x7e02, the experimental Google variant that
	// accounted for 82.3% of supported_versions advertisements in the study.
	VersionTLS13Google Version = 0x7e02
)

// String returns the conventional name for v ("TLSv12", "SSLv3", ...).
func (v Version) String() string {
	switch v {
	case VersionSSL2:
		return "SSLv2"
	case VersionSSL3:
		return "SSLv3"
	case VersionTLS10:
		return "TLSv10"
	case VersionTLS11:
		return "TLSv11"
	case VersionTLS12:
		return "TLSv12"
	case VersionTLS13:
		return "TLSv13"
	case VersionTLS13Draft18:
		return "TLSv13-draft18"
	case VersionTLS13Draft28:
		return "TLSv13-draft28"
	case VersionTLS13Google:
		return "TLSv13-google"
	}
	return fmt.Sprintf("Version(%#04x)", uint16(v))
}

// IsTLS13Variant reports whether v denotes TLS 1.3 proper or one of its
// draft/experimental code points.
func (v Version) IsTLS13Variant() bool {
	if v == VersionTLS13 || v == VersionTLS13Google {
		return true
	}
	return v >= 0x7f00 && v <= 0x7fff // draft versions
}

// Canonical collapses TLS 1.3 draft and experimental values onto
// VersionTLS13 and returns every other version unchanged. Analysis code uses
// it so that draft traffic counts as TLS 1.3.
func (v Version) Canonical() Version {
	if v.IsTLS13Variant() {
		return VersionTLS13
	}
	return v
}

// ReleaseDate is the date a protocol version was published (Table 1 of the
// paper). Year and month only; day is pinned to 1.
type ReleaseDate struct {
	Year  int
	Month int
}

// VersionReleases reproduces Table 1: the release dates of all SSL/TLS
// versions, in chronological order.
func VersionReleases() []struct {
	Version Version
	Name    string
	Date    ReleaseDate
} {
	return []struct {
		Version Version
		Name    string
		Date    ReleaseDate
	}{
		{VersionSSL2, "SSL 2", ReleaseDate{1995, 2}},
		{VersionSSL3, "SSL 3", ReleaseDate{1996, 11}},
		{VersionTLS10, "TLS 1.0", ReleaseDate{1999, 1}},
		{VersionTLS11, "TLS 1.1", ReleaseDate{2006, 4}},
		{VersionTLS12, "TLS 1.2", ReleaseDate{2008, 8}},
		{VersionTLS13, "TLS 1.3", ReleaseDate{2018, 8}},
	}
}
