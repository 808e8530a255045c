// Package handshake implements the server side of SSL/TLS parameter
// negotiation as the study needs to model it: version selection (including
// TLS 1.3 supported_versions and downgrade/fallback handling), cipher-suite
// selection under server or client preference, extension echo, and the
// spec-violating behaviours the paper caught in the wild (§5.5, §7.3).
//
// The engine is deliberately pure: it maps (ClientHello, ServerConfig) to a
// deterministic Result with no I/O, so the same code path serves the passive
// traffic simulator, the TCP server farm and the unit tests.
package handshake

import (
	"fmt"

	"tlsage/internal/registry"
	"tlsage/internal/wire"
)

// Misbehavior enumerates the non-compliant server behaviours observed in the
// study.
type Misbehavior uint8

// Misbehaviors.
const (
	// BehaveCompliant follows the RFC.
	BehaveCompliant Misbehavior = iota
	// BehaveChooseGOST answers with a GOST suite the client never offered
	// (§7.3). Standard clients abort such handshakes.
	BehaveChooseGOST
	// BehaveExportDowngrade answers a plain RC4_128 offer with
	// EXP_RC4_40_MD5, the Interwise anomaly of §5.5. Some clients complete
	// the handshake anyway.
	BehaveExportDowngrade
	// BehavePreferRC4 picks RC4 whenever offered even though stronger
	// suites are available — the bankmellat.ir behaviour of §5.3.
	BehavePreferRC4
)

// ServerConfig is one server's TLS posture.
type ServerConfig struct {
	// Name labels the configuration cohort for logs.
	Name string
	// MinVersion and MaxVersion bound the negotiable protocol versions.
	MinVersion, MaxVersion registry.Version
	// SupportsSSLv2 answers SSLv2 CLIENT-HELLOs (§5.1's Nagios servers).
	SupportsSSLv2 bool
	// Suites is the supported suite set in server preference order.
	Suites []uint16
	// PreferServerOrder selects by server preference; otherwise the client
	// list order wins.
	PreferServerOrder bool
	// Curves is the set of supported named groups.
	Curves []registry.CurveID
	// TLS13Variants lists the 1.3 draft/experimental code points the server
	// accepts in supported_versions. Empty means "any 1.3 variant" when
	// MaxVersion is 1.3.
	TLS13Variants []registry.Version
	// HeartbeatEnabled echoes the heartbeat extension when offered (§5.4).
	HeartbeatEnabled bool
	// HeartbleedVulnerable marks servers running unpatched OpenSSL 1.0.1
	// (only meaningful when HeartbeatEnabled).
	HeartbleedVulnerable bool
	// VersionIntolerant models the broken middleboxes and servers that
	// reject ClientHellos whose version field exceeds what they speak —
	// the reason browsers performed the fallback dance POODLE exploited.
	VersionIntolerant bool
	// Misbehavior selects a non-compliant negotiation behaviour.
	Misbehavior Misbehavior
}

// Validate checks structural sanity.
func (c *ServerConfig) Validate() error {
	if c.MaxVersion < c.MinVersion {
		return fmt.Errorf("handshake: %s: max version %v below min %v", c.Name, c.MaxVersion, c.MinVersion)
	}
	if len(c.Suites) == 0 && c.Misbehavior == BehaveCompliant {
		return fmt.Errorf("handshake: %s: no suites", c.Name)
	}
	for _, id := range c.Suites {
		if _, ok := registry.SuiteByID(id); !ok {
			return fmt.Errorf("handshake: %s: unknown suite %#04x", c.Name, id)
		}
	}
	return nil
}

// Result is the outcome of one negotiation.
type Result struct {
	// OK is true when the server answered with a ServerHello (even a
	// non-compliant one); false when it alerted.
	OK bool
	// Alert is set when OK is false.
	Alert wire.Alert
	// Version is the negotiated protocol version (canonical: TLS 1.3 drafts
	// collapse to TLS 1.3).
	Version registry.Version
	// Suite is the chosen cipher suite.
	Suite uint16
	// Curve is the named group serving an ECDHE exchange, 0 otherwise.
	Curve registry.CurveID
	// SuiteUnoffered marks spec-violating choices of suites the client did
	// not offer; compliant clients abort these handshakes.
	SuiteUnoffered bool
	// HeartbeatAck is true when the server echoed the heartbeat extension.
	HeartbeatAck bool
	// ServerHello is the full message the server would send.
	ServerHello *wire.ServerHello
}

// Negotiate runs server-side parameter selection for one ClientHello.
func Negotiate(ch *wire.ClientHello, cfg *ServerConfig) Result {
	if cfg.VersionIntolerant && ch.Version > cfg.MaxVersion {
		// Broken implementations abort instead of negotiating down.
		return alertResult(wire.AlertHandshakeFailure)
	}
	version, ok := selectVersion(ch, cfg)
	if !ok {
		return alertResult(wire.AlertProtocolVersion)
	}
	if hasSuite(ch.CipherSuites, 0x5600) && version < cfg.MaxVersion && cfg.MaxVersion <= registry.VersionTLS12 {
		// RFC 7507: the client fell back below what we mutually support.
		return alertResult(wire.AlertInappropriateFallback)
	}

	var suite uint16
	var unoffered bool
	switch cfg.Misbehavior {
	case BehaveChooseGOST:
		suite, unoffered = 0x0081, !hasSuite(ch.CipherSuites, 0x0081)
	case BehaveExportDowngrade:
		if hasSuite(ch.CipherSuites, 0x0005) || hasSuite(ch.CipherSuites, 0x0004) {
			suite, unoffered = 0x0003, true
		}
	}
	if suite == 0 {
		s, ok := selectSuite(ch, cfg, version)
		if !ok {
			return alertResult(wire.AlertHandshakeFailure)
		}
		suite = s
	}

	res := Result{
		OK:             true,
		Version:        version.Canonical(),
		Suite:          suite,
		SuiteUnoffered: unoffered,
	}
	if s, known := registry.SuiteByID(suite); known {
		switch s.Kex {
		case registry.KexECDHE, registry.KexECDH, registry.KexTLS13:
			res.Curve = selectCurve(ch, cfg)
		}
	}
	if cfg.HeartbeatEnabled && ch.OffersHeartbeat() {
		res.HeartbeatAck = true
	}
	res.ServerHello = buildServerHello(&res, version)
	return res
}

func alertResult(desc uint8) Result {
	return Result{Alert: wire.Alert{Level: 2, Description: desc}}
}

// selectVersion picks the protocol version. TLS 1.3 negotiation goes through
// supported_versions; everything older through the legacy version field.
func selectVersion(ch *wire.ClientHello, cfg *ServerConfig) (registry.Version, bool) {
	if cfg.MaxVersion.Canonical() == registry.VersionTLS13 {
		if v, ok := match13Variant(ch, cfg); ok {
			return v, true
		}
	}
	clientMax := ch.Version
	if clientMax > registry.VersionTLS12 {
		clientMax = registry.VersionTLS12 // 1.3 clients use a 1.2 legacy field
	}
	serverMax := cfg.MaxVersion
	if serverMax > registry.VersionTLS12 {
		serverMax = registry.VersionTLS12
	}
	v := clientMax
	if serverMax < v {
		v = serverMax
	}
	if v < cfg.MinVersion {
		return 0, false
	}
	return v, true
}

// match13Variant finds a TLS 1.3 version both sides speak. The paper's
// observation window is full of incompatible drafts (0x7e02, draft 18, ...),
// so exact variant matching matters: a draft-18 client gets nothing from a
// 0x7e02-only server.
func match13Variant(ch *wire.ClientHello, cfg *ServerConfig) (registry.Version, bool) {
	offered := ch.SupportedVersions()
	if len(offered) == 0 {
		return 0, false
	}
	accepts := func(v registry.Version) bool {
		if !v.IsTLS13Variant() {
			return false
		}
		if len(cfg.TLS13Variants) == 0 {
			return true
		}
		for _, s := range cfg.TLS13Variants {
			if s == v {
				return true
			}
		}
		return false
	}
	for _, v := range offered {
		if registry.IsGREASE(uint16(v)) {
			continue
		}
		if accepts(v) {
			return v, true
		}
	}
	return 0, false
}

// selectSuite picks the cipher suite honouring preference order, version
// floors and curve availability.
func selectSuite(ch *wire.ClientHello, cfg *ServerConfig, version registry.Version) (uint16, bool) {
	primary, secondary := ch.CipherSuites, cfg.Suites
	if cfg.PreferServerOrder {
		primary, secondary = cfg.Suites, ch.CipherSuites
	}
	if cfg.Misbehavior == BehavePreferRC4 {
		// Non-compliant preference: any mutually supported RC4 suite first.
		for _, id := range ch.CipherSuites {
			if s, ok := registry.SuiteByID(id); ok && s.IsRC4() && hasSuite(cfg.Suites, id) &&
				usable(s, ch, cfg, version) {
				return id, true
			}
		}
	}
	for _, id := range primary {
		if !hasSuite(secondary, id) {
			continue
		}
		s, ok := registry.SuiteByID(id)
		if !ok || id == 0x00FF || id == 0x5600 || registry.IsGREASE(id) {
			continue
		}
		if !usable(s, ch, cfg, version) {
			continue
		}
		return id, true
	}
	return 0, false
}

// usable reports whether suite s can serve the negotiated version with the
// client's and server's curves.
func usable(s registry.Suite, ch *wire.ClientHello, cfg *ServerConfig, version registry.Version) bool {
	if version.Canonical() == registry.VersionTLS13 {
		return s.IsTLS13()
	}
	if s.IsTLS13() {
		return false
	}
	if s.MinVersion > version {
		return false
	}
	switch s.Kex {
	case registry.KexECDHE, registry.KexECDH:
		return selectCurve(ch, cfg) != 0
	}
	return true
}

// selectCurve returns the first client-offered group the server supports.
func selectCurve(ch *wire.ClientHello, cfg *ServerConfig) registry.CurveID {
	for _, c := range ch.SupportedGroups() {
		if registry.IsGREASE(uint16(c)) {
			continue
		}
		for _, s := range cfg.Curves {
			if s == c {
				return c
			}
		}
	}
	return 0
}

func hasSuite(list []uint16, id uint16) bool {
	for _, v := range list {
		if v == id {
			return true
		}
	}
	return false
}

// buildServerHello assembles the wire message for a successful negotiation.
// rawVersion is the pre-canonicalization version (a 1.3 draft keeps its
// draft code point inside supported_versions).
func buildServerHello(res *Result, rawVersion registry.Version) *wire.ServerHello {
	sh := &wire.ServerHello{
		CipherSuite: res.Suite,
	}
	if rawVersion.IsTLS13Variant() {
		sh.Version = registry.VersionTLS12
		sh.Extensions = append(sh.Extensions, wire.NewServerSupportedVersionsExtension(rawVersion))
	} else {
		sh.Version = rawVersion
	}
	if res.HeartbeatAck {
		sh.Extensions = append(sh.Extensions, wire.NewHeartbeatExtension(1))
	}
	return sh
}

// NegotiateSSLv2 answers an SSLv2 CLIENT-HELLO: only servers still speaking
// SSLv2 respond; everything else drops the connection.
func NegotiateSSLv2(h *wire.SSLv2ClientHello, cfg *ServerConfig) Result {
	if !cfg.SupportsSSLv2 || len(h.CipherSpecs) == 0 {
		return alertResult(wire.AlertHandshakeFailure)
	}
	// Pick the first TLS-compatible spec if present, else record the v2
	// spec in the low 16 bits for logging.
	suite := uint16(h.CipherSpecs[0] & 0xffff)
	if tls := wire.TLSSuitesFromSSLv2(h.CipherSpecs); len(tls) > 0 {
		suite = tls[0]
	}
	return Result{OK: true, Version: registry.VersionSSL2, Suite: suite}
}
