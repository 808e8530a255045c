package handshake

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tlsage/internal/registry"
	"tlsage/internal/wire"
)

func hello(version registry.Version, suites []uint16, exts ...wire.Extension) *wire.ClientHello {
	return &wire.ClientHello{
		Version:      version,
		CipherSuites: suites,
		Extensions:   exts,
	}
}

func modernServer() *ServerConfig {
	return &ServerConfig{
		Name:       "modern",
		MinVersion: registry.VersionTLS10,
		MaxVersion: registry.VersionTLS12,
		Suites: []uint16{0xC02F, 0xC030, 0xC013, 0xC014, 0x009C, 0x002F, 0x0035,
			0x000A},
		PreferServerOrder: true,
		Curves:            []registry.CurveID{registry.CurveX25519, registry.CurveSecp256r1},
	}
}

func groupsExt(curves ...registry.CurveID) wire.Extension {
	return wire.NewSupportedGroupsExtension(curves)
}

func TestNegotiateBasicAEAD(t *testing.T) {
	ch := hello(registry.VersionTLS12, []uint16{0xC02F, 0xC013, 0x002F},
		groupsExt(registry.CurveSecp256r1))
	res := Negotiate(ch, modernServer())
	if !res.OK {
		t.Fatalf("alerted: %v", res.Alert)
	}
	if res.Version != registry.VersionTLS12 || res.Suite != 0xC02F {
		t.Fatalf("got %v %04x", res.Version, res.Suite)
	}
	if res.Curve != registry.CurveSecp256r1 {
		t.Errorf("curve = %v", res.Curve)
	}
	if res.ServerHello == nil || res.ServerHello.CipherSuite != 0xC02F {
		t.Error("server hello missing/incorrect")
	}
}

func TestNegotiateClientPreference(t *testing.T) {
	cfg := modernServer()
	cfg.PreferServerOrder = false
	ch := hello(registry.VersionTLS12, []uint16{0x002F, 0xC02F},
		groupsExt(registry.CurveSecp256r1))
	res := Negotiate(ch, cfg)
	if res.Suite != 0x002F {
		t.Errorf("client-preference pick = %04x, want 0x002f", res.Suite)
	}
}

func TestNegotiateVersionIntersection(t *testing.T) {
	cfg := modernServer()
	// TLS 1.0 client vs TLS 1.2 server → TLS 1.0.
	ch := hello(registry.VersionTLS10, []uint16{0x002F})
	res := Negotiate(ch, cfg)
	if !res.OK || res.Version != registry.VersionTLS10 {
		t.Fatalf("got %v", res.Version)
	}
	// Version floor rejects SSL3-only client.
	ch = hello(registry.VersionSSL3, []uint16{0x002F})
	res = Negotiate(ch, cfg)
	if res.OK || res.Alert.Description != wire.AlertProtocolVersion {
		t.Fatalf("SSL3 client should be alerted, got %+v", res)
	}
}

func TestNegotiateVersionDependentSuites(t *testing.T) {
	// GCM requires TLS 1.2: a TLS 1.1 client offering only GCM fails.
	ch := hello(registry.VersionTLS11, []uint16{0x009C})
	res := Negotiate(ch, modernServer())
	if res.OK {
		t.Fatal("GCM on TLS 1.1 should fail")
	}
	// With a CBC suite added, negotiation succeeds on the CBC suite.
	ch = hello(registry.VersionTLS11, []uint16{0x009C, 0x002F})
	res = Negotiate(ch, modernServer())
	if !res.OK || res.Suite != 0x002F {
		t.Fatalf("got %+v", res)
	}
}

func TestNegotiateECDHERequiresCommonCurve(t *testing.T) {
	cfg := modernServer()
	// Client offers ECDHE suites but only an unsupported curve.
	ch := hello(registry.VersionTLS12, []uint16{0xC02F, 0x009C},
		groupsExt(registry.CurveSect571r1))
	res := Negotiate(ch, cfg)
	if !res.OK {
		t.Fatal(res.Alert)
	}
	if res.Suite != 0x009C {
		t.Errorf("should skip ECDHE without common curve, got %04x", res.Suite)
	}
	// No groups extension at all: ECDHE unusable.
	ch = hello(registry.VersionTLS12, []uint16{0xC02F, 0x0035})
	res = Negotiate(ch, cfg)
	if res.Suite != 0x0035 {
		t.Errorf("got %04x", res.Suite)
	}
}

func TestNegotiateTLS13VariantMatching(t *testing.T) {
	server13 := &ServerConfig{
		Name:       "tls13",
		MinVersion: registry.VersionTLS10,
		MaxVersion: registry.VersionTLS13,
		Suites:     []uint16{0x1301, 0x1303, 0xC02F, 0x002F},
		Curves:     []registry.CurveID{registry.CurveX25519},
		TLS13Variants: []registry.Version{
			registry.VersionTLS13Google,
		},
	}
	// Matching experimental variant negotiates 1.3.
	ch := hello(registry.VersionTLS12, []uint16{0x1301, 0xC02F},
		groupsExt(registry.CurveX25519),
		wire.NewSupportedVersionsExtension([]registry.Version{
			registry.VersionTLS13Google, registry.VersionTLS12}))
	res := Negotiate(ch, server13)
	if !res.OK || res.Version != registry.VersionTLS13 || res.Suite != 0x1301 {
		t.Fatalf("got %+v", res)
	}
	// The ServerHello keeps the draft code point in supported_versions.
	if e, ok := wire.FindExtension(res.ServerHello.Extensions, registry.ExtSupportedVersions); !ok ||
		!slices.Equal(e.Data, wire.NewServerSupportedVersionsExtension(registry.VersionTLS13Google).Data) {
		t.Errorf("supported_versions on wire = %v, %v; want the 0x7e02 code point", e, ok)
	}
	if res.ServerHello.Version != registry.VersionTLS12 {
		t.Errorf("legacy field = %v, want TLS12", res.ServerHello.Version)
	}

	// Draft-18 client against a 0x7e02-only server falls back to 1.2.
	ch = hello(registry.VersionTLS12, []uint16{0x1301, 0xC02F},
		groupsExt(registry.CurveX25519),
		wire.NewSupportedVersionsExtension([]registry.Version{
			registry.VersionTLS13Draft18, registry.VersionTLS12}))
	res = Negotiate(ch, server13)
	if !res.OK || res.Version != registry.VersionTLS12 || res.Suite != 0xC02F {
		t.Fatalf("draft mismatch should fall back to 1.2: %+v", res)
	}
}

func TestNegotiateTLS13AnyVariant(t *testing.T) {
	server13 := &ServerConfig{
		Name:       "tls13-any",
		MinVersion: registry.VersionTLS10,
		MaxVersion: registry.VersionTLS13,
		Suites:     []uint16{0x1301, 0xC02F},
		Curves:     []registry.CurveID{registry.CurveX25519},
	}
	ch := hello(registry.VersionTLS12, []uint16{0x1301},
		groupsExt(registry.CurveX25519),
		wire.NewSupportedVersionsExtension([]registry.Version{registry.VersionTLS13Draft18}))
	res := Negotiate(ch, server13)
	if !res.OK || res.Version != registry.VersionTLS13 {
		t.Fatalf("got %+v", res)
	}
}

func TestFallbackSCSV(t *testing.T) {
	cfg := modernServer()
	// A fallback hello at TLS 1.0 against a 1.2 server triggers
	// inappropriate_fallback.
	ch := hello(registry.VersionTLS10, []uint16{0x002F, 0x5600})
	res := Negotiate(ch, cfg)
	if res.OK || res.Alert.Description != wire.AlertInappropriateFallback {
		t.Fatalf("got %+v", res)
	}
	// Same hello at the server's max version is fine.
	ch = hello(registry.VersionTLS12, []uint16{0x002F, 0x5600})
	res = Negotiate(ch, cfg)
	if !res.OK {
		t.Fatalf("got %+v", res)
	}
}

func TestHeartbeatEcho(t *testing.T) {
	cfg := modernServer()
	cfg.HeartbeatEnabled = true
	ch := hello(registry.VersionTLS12, []uint16{0x002F}, wire.NewHeartbeatExtension(1))
	res := Negotiate(ch, cfg)
	if !res.HeartbeatAck {
		t.Error("heartbeat not echoed")
	}
	if !res.ServerHello.AcksHeartbeat() {
		t.Error("server hello missing heartbeat extension")
	}
	// Not offered → not echoed.
	res = Negotiate(hello(registry.VersionTLS12, []uint16{0x002F}), cfg)
	if res.HeartbeatAck {
		t.Error("heartbeat echoed unprompted")
	}
	// Offered but disabled → not echoed.
	cfg.HeartbeatEnabled = false
	res = Negotiate(ch, cfg)
	if res.HeartbeatAck {
		t.Error("disabled heartbeat echoed")
	}
}

func TestMisbehaviorGOST(t *testing.T) {
	cfg := modernServer()
	cfg.Misbehavior = BehaveChooseGOST
	ch := hello(registry.VersionTLS12, []uint16{0xC02F, 0x002F},
		groupsExt(registry.CurveSecp256r1))
	res := Negotiate(ch, cfg)
	if !res.OK || res.Suite != 0x0081 || !res.SuiteUnoffered {
		t.Fatalf("got %+v", res)
	}
}

// TestLegacyVersionAboveTLS12: a hello whose legacy version field claims
// more than TLS 1.2 and offers no supported_versions negotiates as a TLS 1.2
// hello would.
func TestLegacyVersionAboveTLS12(t *testing.T) {
	res := Negotiate(hello(registry.VersionTLS13, []uint16{0xC02F}, groupsExt(registry.CurveSecp256r1)), modernServer())
	if !res.OK || res.Version != registry.VersionTLS12 || res.Suite != 0xC02F {
		t.Errorf("got %+v", res)
	}
}

func TestMisbehaviorExportDowngrade(t *testing.T) {
	cfg := &ServerConfig{
		Name:        "interwise",
		MinVersion:  registry.VersionSSL3,
		MaxVersion:  registry.VersionTLS10,
		Suites:      []uint16{0x0003, 0x0005},
		Misbehavior: BehaveExportDowngrade,
	}
	// The paper's exact scenario: client offers RC4_128_SHA (non-export),
	// server answers EXP_RC4_40_MD5.
	ch := hello(registry.VersionTLS10, []uint16{0x0005})
	res := Negotiate(ch, cfg)
	if !res.OK || res.Suite != 0x0003 || !res.SuiteUnoffered {
		t.Fatalf("got %+v", res)
	}
}

func TestMisbehaviorPreferRC4(t *testing.T) {
	cfg := modernServer()
	cfg.Misbehavior = BehavePreferRC4
	cfg.Suites = append([]uint16{}, cfg.Suites...)
	cfg.Suites = append(cfg.Suites, 0x0005)
	// bankmellat.ir: RC4 chosen despite much stronger offers.
	ch := hello(registry.VersionTLS12, []uint16{0xC02F, 0x009C, 0x0005},
		groupsExt(registry.CurveSecp256r1))
	res := Negotiate(ch, cfg)
	if !res.OK || res.Suite != 0x0005 {
		t.Fatalf("got %+v", res)
	}
	// Without RC4 in the client list, a modern AEAD suite is chosen —
	// exactly what the paper observed when removing RC4 from the offer.
	ch = hello(registry.VersionTLS12, []uint16{0xC02F, 0x009C},
		groupsExt(registry.CurveSecp256r1))
	res = Negotiate(ch, cfg)
	if !res.OK || res.Suite != 0xC02F {
		t.Fatalf("got %+v", res)
	}
}

func TestNegotiateNoCommonSuite(t *testing.T) {
	ch := hello(registry.VersionTLS12, []uint16{0x1301}) // 1.3-only offer to a 1.2 server
	res := Negotiate(ch, modernServer())
	if res.OK || res.Alert.Description != wire.AlertHandshakeFailure {
		t.Fatalf("got %+v", res)
	}
}

func TestGREASEIgnoredInNegotiation(t *testing.T) {
	cfg := modernServer()
	cfg.Suites = append([]uint16{0x0a0a}, cfg.Suites...) // GREASE must never be selected
	ch := hello(registry.VersionTLS12, []uint16{0x0a0a, 0xC02F, 0x002F},
		groupsExt(registry.CurveSecp256r1))
	res := Negotiate(ch, cfg)
	if !res.OK || registry.IsGREASE(res.Suite) {
		t.Fatalf("GREASE selected: %+v", res)
	}
}

func TestNegotiateSSLv2(t *testing.T) {
	v2 := &wire.SSLv2ClientHello{
		Version:     registry.VersionSSL2,
		CipherSpecs: []uint32{0x010080, 0x000005},
		Challenge:   make([]byte, 16),
	}
	cfg := modernServer()
	res := NegotiateSSLv2(v2, cfg)
	if res.OK {
		t.Fatal("modern server answered SSLv2")
	}
	cfg.SupportsSSLv2 = true
	res = NegotiateSSLv2(v2, cfg)
	if !res.OK || res.Version != registry.VersionSSL2 || res.Suite != 0x0005 {
		t.Fatalf("got %+v", res)
	}
}

func TestServerConfigValidate(t *testing.T) {
	good := modernServer()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &ServerConfig{Name: "b", MinVersion: registry.VersionTLS12, MaxVersion: registry.VersionTLS10, Suites: []uint16{0x002F}}
	if err := bad.Validate(); err == nil {
		t.Error("inverted version bounds accepted")
	}
	bad2 := &ServerConfig{Name: "b2", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12, Suites: []uint16{0x9999}}
	if err := bad2.Validate(); err == nil {
		t.Error("unknown suite accepted")
	}
	empty := &ServerConfig{Name: "e", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12}
	if err := empty.Validate(); err == nil {
		t.Error("compliant server with no suites accepted")
	}
	empty.Misbehavior = BehaveChooseGOST
	if err := empty.Validate(); err != nil {
		t.Errorf("a misbehaving server answers without suites of its own: %v", err)
	}
}

// Property: whenever negotiation succeeds on a compliant server, the chosen
// suite is in both lists, respects the version floor, and is never GREASE or
// an SCSV.
func TestNegotiateInvariants(t *testing.T) {
	cfg := modernServer()
	cfg.HeartbeatEnabled = true
	pool := []uint16{0xC02F, 0xC030, 0xC013, 0xC014, 0x009C, 0x009D, 0x002F,
		0x0035, 0x000A, 0x0005, 0x0004, 0x1301, 0x00FF, 0x5600, 0x0a0a}
	rnd := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rnd.Int63()))
		n := 1 + r.Intn(8)
		suites := make([]uint16, n)
		for i := range suites {
			suites[i] = pool[r.Intn(len(pool))]
		}
		versions := []registry.Version{registry.VersionSSL3, registry.VersionTLS10,
			registry.VersionTLS11, registry.VersionTLS12}
		ch := hello(versions[r.Intn(len(versions))], suites,
			groupsExt(registry.CurveSecp256r1))
		res := Negotiate(ch, cfg)
		if !res.OK {
			return true
		}
		if registry.IsGREASE(res.Suite) || res.Suite == 0x00FF || res.Suite == 0x5600 {
			return false
		}
		if !hasSuite(ch.CipherSuites, res.Suite) || !hasSuite(cfg.Suites, res.Suite) {
			return false
		}
		s, ok := registry.SuiteByID(res.Suite)
		if !ok || s.MinVersion > res.Version {
			return false
		}
		return res.Version >= cfg.MinVersion && res.Version <= cfg.MaxVersion
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
