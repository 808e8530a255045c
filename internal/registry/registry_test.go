package registry

import (
	"strings"
	"testing"
)

// suiteNamed looks a registered suite up by its IANA name.
func suiteNamed(t *testing.T, name string) Suite {
	t.Helper()
	for _, s := range suiteTable {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("unknown suite %s", name)
	return Suite{}
}

func TestSuiteTableNoDuplicates(t *testing.T) {
	seen := make(map[uint16]string)
	names := make(map[string]uint16)
	for _, s := range suiteTable {
		if prev, ok := seen[s.ID]; ok {
			t.Errorf("duplicate suite id %#04x: %s and %s", s.ID, prev, s.Name)
		}
		if prev, ok := names[s.Name]; ok {
			t.Errorf("duplicate suite name %s: %#04x and %#04x", s.Name, prev, s.ID)
		}
		seen[s.ID] = s.Name
		names[s.Name] = s.ID
	}
}

func TestSuiteLookupRoundTrip(t *testing.T) {
	for _, s := range AllSuites() {
		got, ok := SuiteByID(s.ID)
		if !ok {
			t.Fatalf("SuiteByID(%#04x) not found", s.ID)
		}
		if got.Name != s.Name {
			t.Fatalf("SuiteByID(%#04x) = %s, want %s", s.ID, got.Name, s.Name)
		}
	}
}

func TestSuiteNameConsistency(t *testing.T) {
	// Every structural property must be consistent with the IANA name. This
	// guards the whole analysis layer: a suite classified as RC4 must carry
	// RC4 in its name, exports must say EXPORT, and so on.
	for _, s := range AllSuites() {
		if s.ID == 0x00FF || s.ID == 0x5600 || s.ID == 0x0000 {
			continue // signalling suites and NULL_WITH_NULL_NULL
		}
		name := s.Name
		if s.IsRC4() != strings.Contains(name, "RC4") {
			t.Errorf("%s: IsRC4=%v mismatches name", name, s.IsRC4())
		}
		if s.Is3DES() != strings.Contains(name, "3DES") {
			t.Errorf("%s: Is3DES=%v mismatches name", name, s.Is3DES())
		}
		if s.IsExport() != strings.Contains(name, "EXPORT") {
			t.Errorf("%s: IsExport=%v mismatches name", name, s.IsExport())
		}
		if s.IsAnon() != strings.Contains(name, "anon") {
			t.Errorf("%s: IsAnon=%v mismatches name", name, s.IsAnon())
		}
		wantGCM := strings.Contains(name, "_GCM")
		if (s.Mode == ModeGCM) != wantGCM {
			t.Errorf("%s: GCM mode mismatch", name)
		}
		wantChaCha := strings.Contains(name, "CHACHA20")
		if (s.Cipher == CipherChaCha20) != wantChaCha {
			t.Errorf("%s: ChaCha20 mismatch", name)
		}
		// NULL encryption: name contains WITH_NULL (GOST NULL suites differ).
		wantNull := strings.Contains(name, "WITH_NULL") || strings.Contains(name, "_NULL_GOSTR")
		if s.IsNULLCipher() != wantNull {
			t.Errorf("%s: IsNULLCipher=%v mismatches name", name, s.IsNULLCipher())
		}
	}
}

func TestForwardSecrecyClassification(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256", true},
		{"TLS_DHE_RSA_WITH_AES_128_CBC_SHA", true},
		{"TLS_RSA_WITH_AES_128_GCM_SHA256", false},
		{"TLS_DH_RSA_WITH_AES_128_CBC_SHA", false},
		{"TLS_ECDH_RSA_WITH_AES_128_CBC_SHA", false},
		{"TLS_AES_128_GCM_SHA256", true}, // TLS 1.3 always FS
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := suiteNamed(t, c.name).Kex.ForwardSecret(); got != c.want {
				t.Errorf("ForwardSecret=%v want %v", got, c.want)
			}
		})
	}
}

func TestTrafficClass(t *testing.T) {
	cases := map[string]string{
		"TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256":       "AEAD",
		"TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256": "AEAD",
		"TLS_RSA_WITH_AES_128_CBC_SHA":                "CBC",
		"TLS_RSA_WITH_RC4_128_SHA":                    "RC4",
		"TLS_RSA_WITH_NULL_SHA":                       "other",
	}
	for name, want := range cases {
		if got := suiteNamed(t, name).TrafficClass(); got != want {
			t.Errorf("%s: class=%s want %s", name, got, want)
		}
	}
}

func TestVersionReleasesTable1(t *testing.T) {
	rel := VersionReleases()
	if len(rel) != 6 {
		t.Fatalf("Table 1 has 6 rows, got %d", len(rel))
	}
	// Chronological and correctly dated per Table 1.
	want := []struct {
		name        string
		year, month int
	}{
		{"SSL 2", 1995, 2}, {"SSL 3", 1996, 11}, {"TLS 1.0", 1999, 1},
		{"TLS 1.1", 2006, 4}, {"TLS 1.2", 2008, 8}, {"TLS 1.3", 2018, 8},
	}
	for i, w := range want {
		r := rel[i]
		if r.Name != w.name || r.Date.Year != w.year || r.Date.Month != w.month {
			t.Errorf("row %d: got %s %d-%d, want %s %d-%d", i, r.Name, r.Date.Year, r.Date.Month, w.name, w.year, w.month)
		}
	}
}

func TestVersionCanonical(t *testing.T) {
	for _, v := range []Version{VersionTLS13, VersionTLS13Draft18, VersionTLS13Draft28, VersionTLS13Google} {
		if v.Canonical() != VersionTLS13 {
			t.Errorf("%v.Canonical() != TLS13", v)
		}
	}
	for _, v := range []Version{VersionSSL2, VersionSSL3, VersionTLS10, VersionTLS11, VersionTLS12} {
		if v.Canonical() != v {
			t.Errorf("%v.Canonical() changed a pre-1.3 version", v)
		}
	}
}

func TestGREASEValues(t *testing.T) {
	vals := GREASEValues()
	if len(vals) != 16 {
		t.Fatalf("want 16 GREASE values, got %d", len(vals))
	}
	for _, v := range vals {
		if !IsGREASE(v) {
			t.Errorf("%#04x should be GREASE", v)
		}
	}
	for _, v := range []uint16{0x0a0b, 0x0b0a, 0x1301, 0xc02f, 0x0000, 0xffff} {
		if IsGREASE(v) {
			t.Errorf("%#04x should not be GREASE", v)
		}
	}
}

func TestClassify(t *testing.T) {
	ids := []uint16{
		0xC02F,         // ECDHE-RSA-AES128-GCM (AEAD)
		0xC013, 0x002F, // CBC
		0x0005,         // RC4
		0x00FF, 0x5600, // SCSVs: ignored
		0xAAAA, // GREASE-ish unknown: ignored
	}
	got := Classify(ids)
	if got["AEAD"] != 1 || got["CBC"] != 2 || got["RC4"] != 1 {
		t.Errorf("Classify = %v", got)
	}
}

func TestFirstIndexWhere(t *testing.T) {
	ids := []uint16{0xC02F, 0xC013, 0x0005}
	if i := FirstIndexWhere(ids, Suite.IsCBC); i != 1 {
		t.Errorf("first CBC index = %d, want 1", i)
	}
	if i := FirstIndexWhere(ids, Suite.IsRC4); i != 2 {
		t.Errorf("first RC4 index = %d, want 2", i)
	}
	if i := FirstIndexWhere(ids, Suite.Is3DES); i != -1 {
		t.Errorf("first 3DES index = %d, want -1", i)
	}
}

func TestExtensionNames(t *testing.T) {
	if ExtHeartbeat.String() != "heartbeat" {
		t.Errorf("heartbeat name: %s", ExtHeartbeat)
	}
	if ExtSupportedVersions != 43 {
		t.Errorf("supported_versions must be 43")
	}
	if ExtRenegotiationInfo.String() != "renegotiation_info" {
		t.Error("renegotiation_info should be known")
	}
	if ExtensionID(0x9999).String() != "extension(0x9999)" {
		t.Error("0x9999 should be unknown")
	}
	exts := AllExtensions()
	for i := 1; i < len(exts); i++ {
		if exts[i-1] >= exts[i] {
			t.Fatal("AllExtensions not strictly sorted")
		}
	}
}

func TestCurveNames(t *testing.T) {
	if CurveSecp256r1.String() != "secp256r1" || CurveX25519.String() != "x25519" {
		t.Error("curve naming broken")
	}
	for p, want := range map[ECPointFormat]string{
		PointFormatUncompressed:            "uncompressed",
		PointFormatANSIX962CompressedPrime: "ansiX962_compressed_prime",
		PointFormatANSIX962CompressedChar2: "ansiX962_compressed_char2",
		3:                                  "pointformat(3)",
	} {
		if got := p.String(); got != want {
			t.Errorf("ECPointFormat(%d).String() = %q, want %q", uint8(p), got, want)
		}
	}
	if CurveID(999).String() != "curve(0x03e7)" {
		t.Error("curve 999 should be unknown")
	}
}

func TestSuitesWhere(t *testing.T) {
	var exports []uint16
	for _, s := range AllSuites() {
		if s.IsExport() {
			exports = append(exports, s.ID)
		}
	}
	if len(exports) == 0 {
		t.Fatal("no export suites found")
	}
	// The canonical FREAK suite must be present.
	found := false
	for _, id := range exports {
		if id == 0x0003 {
			found = true
		}
	}
	if !found {
		t.Error("TLS_RSA_EXPORT_WITH_RC4_40_MD5 (0x0003) missing from exports")
	}
}

func TestStringerFallbacks(t *testing.T) {
	if s := Version(0x1234).String(); s == "" {
		t.Error("empty version string")
	}
	if KeyExchange(200).String() == "" || ECPointFormat(200).String() == "" {
		t.Error("stringer fallback returned empty")
	}
}

func TestAllStringersTotal(t *testing.T) {
	// Exercise every String() arm across the registry: no stringer may
	// return an empty string for any registered value.
	for _, s := range AllSuites() {
		if s.Kex.String() == "" {
			t.Fatalf("empty stringer for suite %04x", s.ID)
		}
		_ = s.TrafficClass()
	}
	for _, e := range AllExtensions() {
		if e.String() == "" {
			t.Fatalf("empty extension name for %d", e)
		}
	}
	for _, r := range VersionReleases() {
		if r.Version.String() == "" || strings.HasPrefix(r.Version.String(), "Version(") {
			t.Fatalf("version %d", r.Version)
		}
	}
	for c := CurveID(1); c <= CurveID(30); c++ {
		_ = c.String()
	}
	for _, v := range []Version{VersionTLS13Draft18, VersionTLS13Draft28, VersionTLS13Google} {
		if strings.HasPrefix(v.String(), "Version(") || !v.IsTLS13Variant() {
			t.Errorf("%v should be a known 1.3 variant", v)
		}
	}
}
