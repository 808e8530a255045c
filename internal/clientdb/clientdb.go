// Package clientdb is the ground-truth database of TLS client software the
// study observes: the five major browsers with their documented
// configuration histories (Tables 3, 4, 5 and 6 of the paper), the TLS
// libraries that dominate Notary traffic (OpenSSL, OS libraries, Java), and
// the odd long-tail clients behind the paper's NULL/anonymous/export
// findings (§5.5, §6.1, §6.2).
//
// Each Profile carries a chronological list of dated version configurations.
// Combined with an adoption.LagDistribution, a profile yields the installed
// version mix at any study date; the population package samples from these
// mixes to synthesize traffic.
package clientdb

import (
	"math/rand"

	"tlsage/internal/adoption"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
	"tlsage/internal/wire"
)

// Class buckets client software the way Table 2 of the paper does.
type Class string

// Fingerprint classes from Table 2.
const (
	ClassLibrary      Class = "Libraries"
	ClassBrowser      Class = "Browsers"
	ClassOSTool       Class = "OS Tools and Services"
	ClassMobileApp    Class = "Mobile apps"
	ClassDevTool      Class = "Dev. tools"
	ClassAV           Class = "AV"
	ClassCloudStorage Class = "Cloud Storage"
	ClassEmail        Class = "Email"
	ClassMalware      Class = "Malware & PUP"
)

// AllClasses returns the Table 2 classes in the paper's row order.
func AllClasses() []Class {
	return []Class{ClassLibrary, ClassBrowser, ClassOSTool, ClassMobileApp,
		ClassDevTool, ClassAV, ClassCloudStorage, ClassEmail, ClassMalware}
}

// Config is one client software version's complete TLS posture: everything
// needed to build its ClientHello and to model its negotiation behaviour.
type Config struct {
	// LegacyVersion is the version field of the ClientHello.
	LegacyVersion registry.Version
	// SupportedVersions, when non-empty, is sent in the supported_versions
	// extension (TLS 1.3-style negotiation).
	SupportedVersions []registry.Version
	// Suites is the advertised cipher-suite list in preference order.
	Suites []uint16
	// Extensions is the advertised extension order (bodies are synthesized).
	Extensions []registry.ExtensionID
	// Curves is the supported_groups list.
	Curves []registry.CurveID
	// PointFormats is the ec_point_formats list.
	PointFormats []registry.ECPointFormat
	// GREASE injects GREASE values into suites/extensions/curves on the wire
	// (Chrome lineage).
	GREASE bool
	// SSL3Fallback reports whether the client retries failed handshakes
	// down to SSL 3 (the POODLE precondition; Table 6 removal dates).
	SSL3Fallback bool
	// SendsFallbackSCSV marks fallback retries with TLS_FALLBACK_SCSV.
	SendsFallbackSCSV bool
	// RC4FallbackOnly models Firefox 36–43: RC4 withheld from the first
	// hello, offered only on retry (Table 4 footnote).
	RC4FallbackOnly bool
	// HeartbeatMode, when nonzero, advertises the heartbeat extension with
	// that mode (OpenSSL lineage; §5.4).
	HeartbeatMode uint8
	// SSLv2Compat marks clients that still open with an SSLv2-compatible
	// hello (the Nagios monitoring traffic of §5.1).
	SSLv2Compat bool
	// MinVersion is the lowest version the client accepts in a ServerHello.
	MinVersion registry.Version
}

// MaxVersion returns the highest protocol version the config offers.
func (c *Config) MaxVersion() registry.Version {
	max := c.LegacyVersion
	for _, v := range c.SupportedVersions {
		if cv := v.Canonical(); cv > max {
			max = cv
		}
	}
	return max
}

// CountWhere counts advertised suites matching pred (unknown IDs never
// match). Tables 3–5 are computed with this.
func (c *Config) CountWhere(pred func(registry.Suite) bool) int {
	n := 0
	for _, id := range c.Suites {
		if s, ok := registry.SuiteByID(id); ok && pred(s) {
			n++
		}
	}
	return n
}

// BuildHello constructs the wire ClientHello for this configuration.
// rnd seeds the random field and GREASE placement; fallback selects the
// downgraded retry form (used after a failed first attempt). It is Draw, then
// Assemble.
func (c *Config) BuildHello(rnd *rand.Rand, fallback bool) *wire.ClientHello {
	var d Draws
	c.Draw(rnd, &d)
	return c.Assemble(&d, fallback)
}

// Draws are a hello's random choices. GREASE holds the GREASE value of each
// slot — 0 the cipher list, 1 supported_groups, 2 supported_versions, 3 the
// trailing extension — and 0, which no GREASE value is, where the config sends
// none. Nothing else of a hello is random: with the fallback flag, the draws
// fix the hello, and GREASE alone fixes every field but Random.
type Draws struct {
	GREASE [4]uint16
	Random [32]byte
}

// Draw makes a hello's random choices from rnd, in the order the hello holds
// them: slot 0, the Random bytes, slots 1 and 2 in extension order, slot 3.
// It allocates nothing.
func (c *Config) Draw(rnd *rand.Rand, d *Draws) {
	d.GREASE = [4]uint16{}
	if c.GREASE {
		d.GREASE[0] = grease(rnd, 0)
	}
	rnd.Read(d.Random[:])
	if !c.GREASE {
		return
	}
	for _, id := range c.Extensions {
		switch {
		case id == registry.ExtSupportedGroups:
			d.GREASE[1] = grease(rnd, 1)
		case id == registry.ExtSupportedVersions && len(c.SupportedVersions) > 0:
			d.GREASE[2] = grease(rnd, 2)
		}
	}
	d.GREASE[3] = grease(rnd, 3)
}

// Assemble builds the hello of the given draws; fallback selects the
// downgraded retry form.
func (c *Config) Assemble(d *Draws, fallback bool) *wire.ClientHello {
	suites := make([]uint16, 0, len(c.Suites)+2)
	if c.GREASE {
		suites = append(suites, d.GREASE[0])
	}
	suites = append(suites, c.Suites...)
	if c.RC4FallbackOnly && fallback {
		suites = append(suites, rc4FallbackSuites...)
	}
	if fallback && c.SendsFallbackSCSV {
		suites = append(suites, 0x5600)
	}

	ch := &wire.ClientHello{
		Version:            c.LegacyVersion,
		Random:             d.Random,
		CipherSuites:       suites,
		CompressionMethods: []byte{0},
	}

	for _, id := range c.Extensions {
		switch id {
		case registry.ExtSupportedGroups:
			curves := c.Curves
			if c.GREASE {
				withGrease := make([]registry.CurveID, 0, len(curves)+1)
				withGrease = append(withGrease, registry.CurveID(d.GREASE[1]))
				curves = append(withGrease, curves...)
			}
			ch.Extensions = append(ch.Extensions, wire.NewSupportedGroupsExtension(curves))
		case registry.ExtECPointFormats:
			ch.Extensions = append(ch.Extensions, wire.NewECPointFormatsExtension(c.PointFormats))
		case registry.ExtSupportedVersions:
			if len(c.SupportedVersions) > 0 {
				vs := c.SupportedVersions
				if c.GREASE {
					withGrease := make([]registry.Version, 0, len(vs)+1)
					withGrease = append(withGrease, registry.Version(d.GREASE[2]))
					vs = append(withGrease, vs...)
				}
				ch.Extensions = append(ch.Extensions, wire.NewSupportedVersionsExtension(vs))
			}
		case registry.ExtHeartbeat:
			if c.HeartbeatMode != 0 {
				ch.Extensions = append(ch.Extensions, wire.NewHeartbeatExtension(c.HeartbeatMode))
			}
		default:
			ch.Extensions = append(ch.Extensions, wire.Extension{ID: id})
		}
	}
	if c.GREASE {
		ch.Extensions = append(ch.Extensions, wire.Extension{ID: registry.ExtensionID(d.GREASE[3])})
	}
	return ch
}

// greaseValues are the values grease picks from.
var greaseValues = registry.GREASEValues()

// grease picks a GREASE value; slot diversifies which one per position.
func grease(rnd *rand.Rand, slot int) uint16 {
	return greaseValues[(rnd.Intn(len(greaseValues))+slot)%len(greaseValues)]
}

// rc4FallbackSuites is the RC4 set Firefox re-enabled on retry during its
// fallback-only phase.
var rc4FallbackSuites = []uint16{0x0005, 0x0004, 0xC011, 0xC007}

// VersionConfig is one dated release of a product.
type VersionConfig struct {
	Version string
	Date    timeline.Date
	Config  Config
}

// Profile is one client software product with its release history.
type Profile struct {
	Name     string
	Class    Class
	Lag      adoption.LagDistribution
	Releases []VersionConfig // chronological
	// Unlabeled marks software the fingerprint database cannot attribute —
	// the ~30% of Notary traffic outside the paper's 69.23% coverage
	// (Table 2). Unlabeled profiles still generate traffic and fingerprints,
	// but the fingerprint DB holds no entry for them.
	Unlabeled bool
}

// MixAt returns the share of the installed base on each release at date d.
// Index i corresponds to Releases[i]; the pre-first-release share is folded
// into Releases[0] (the oldest config keeps serving users who never moved).
func (p *Profile) MixAt(d timeline.Date) []float64 {
	rel := make([]adoption.Release, len(p.Releases))
	for i, r := range p.Releases {
		rel[i] = adoption.Release{Version: r.Version, Date: r.Date}
	}
	raw := adoption.VersionMix(rel, d, p.Lag)
	out := make([]float64, len(p.Releases))
	out[0] = raw[0] + raw[1]
	for i := 1; i < len(p.Releases); i++ {
		out[i] = raw[i+1]
	}
	return out
}

// ReleaseByVersion finds a release by version string.
func (p *Profile) ReleaseByVersion(v string) (VersionConfig, bool) {
	for _, r := range p.Releases {
		if r.Version == v {
			return r, true
		}
	}
	return VersionConfig{}, false
}

// AllProfiles returns every profile in the database: browsers, libraries,
// tools and odd clients. The slice and its contents are shared; callers must
// not mutate.
func AllProfiles() []*Profile {
	out := make([]*Profile, 0, len(browserProfiles)+len(libraryProfiles)+len(unknownProfiles))
	out = append(out, browserProfiles...)
	out = append(out, libraryProfiles...)
	out = append(out, unknownProfiles...)
	return out
}

// LabeledProfiles returns only the profiles the fingerprint database can
// attribute.
func LabeledProfiles() []*Profile {
	var out []*Profile
	for _, p := range AllProfiles() {
		if !p.Unlabeled {
			out = append(out, p)
		}
	}
	return out
}

// ProfileByName looks a profile up by name.
func ProfileByName(name string) (*Profile, bool) {
	for _, p := range AllProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}
