package clientdb

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
	"tlsage/internal/wire"
)

// TestAllProfilesValidate checks the static profile tables: each profile has
// releases in chronological order, each release advertises registered
// suites only, and each lag distribution's shares and time constants are
// in range.
func TestAllProfilesValidate(t *testing.T) {
	profiles := AllProfiles()
	if len(profiles) < 20 {
		t.Fatalf("expected ≥20 profiles, got %d", len(profiles))
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if len(p.Releases) == 0 {
			t.Errorf("%s has no releases", p.Name)
		}
		for i, r := range p.Releases {
			if len(r.Config.Suites) == 0 {
				t.Errorf("%s %s has no cipher suites", p.Name, r.Version)
			}
			if i > 0 && r.Date.Before(p.Releases[i-1].Date) {
				t.Errorf("%s releases out of order at %s", p.Name, r.Version)
			}
			for _, id := range r.Config.Suites {
				if _, ok := registry.SuiteByID(id); !ok {
					t.Errorf("%s %s advertises unknown suite %#04x", p.Name, r.Version, id)
				}
			}
		}
		if l := p.Lag; l.FastShare < 0 || l.NeverShare < 0 || l.FastShare+l.NeverShare > 1 || l.FastTauDays <= 0 || l.SlowTauDays <= 0 {
			t.Errorf("%s: invalid lag %+v", p.Name, l)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile name %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("Chrome")
	if !ok || p.Class != ClassBrowser {
		t.Fatal("Chrome lookup failed")
	}
	if rel, ok := p.ReleaseByVersion("1"); ok {
		t.Errorf("Chrome has no release 1, got %+v", rel)
	}
	if _, ok := ProfileByName("Netscape"); ok {
		t.Error("unexpected profile found")
	}
}

func TestMixSumsToOne(t *testing.T) {
	dates := []timeline.Date{
		timeline.D(2012, time.March, 15),
		timeline.D(2014, time.June, 15),
		timeline.D(2016, time.January, 15),
		timeline.D(2018, time.April, 15),
	}
	for _, p := range AllProfiles() {
		for _, d := range dates {
			mix := p.MixAt(d)
			if len(mix) != len(p.Releases) {
				t.Fatalf("%s: mix length %d != releases %d", p.Name, len(mix), len(p.Releases))
			}
			sum := 0.0
			for _, v := range mix {
				if v < -1e-12 {
					t.Fatalf("%s at %v: negative share", p.Name, d)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s at %v: mix sums to %v", p.Name, d, sum)
			}
		}
	}
}

// Table 3 of the paper: CBC cipher-suite count changes.
func TestTable3CBC(t *testing.T) {
	rows := Table3CBC()
	want := []struct {
		browser, version string
		before, after    int
	}{
		{"Firefox", "27", 29, 17},
		{"Firefox", "33", 17, 10},
		{"Firefox", "37", 10, 9},
		{"Firefox", "60", 9, 5},
		{"Chrome", "29", 29, 16},
		{"Chrome", "31", 16, 10},
		{"Chrome", "41", 10, 9},
		{"Chrome", "49", 9, 7},
		{"Chrome", "56", 7, 5},
		{"Opera", "15", 25, 29},
		{"Opera", "16", 29, 16},
		{"Opera", "18", 16, 10},
		{"Opera", "28", 10, 9},
		{"Opera", "30", 9, 7},
		{"Opera", "43", 7, 5},
		{"Safari", "7.1", 28, 30},
		{"Safari", "9", 30, 15},
		{"Safari", "10.1", 15, 12},
	}
	for _, w := range want {
		row, ok := findRow(rows, w.browser, w.version)
		if !ok {
			t.Errorf("Table 3 missing row %s %s", w.browser, w.version)
			continue
		}
		if row.Before != w.before || row.After != w.after {
			t.Errorf("Table 3 %s %s: %d→%d, want %d→%d",
				w.browser, w.version, row.Before, row.After, w.before, w.after)
		}
	}
}

// Table 4: RC4 support changes, including the Firefox fallback-only phase
// and complete removals.
func TestTable4RC4(t *testing.T) {
	rows := Table4RC4()
	type want struct {
		browser, version string
		after            int
		note             string
	}
	checks := []want{
		{"Firefox", "27", 4, ""},
		{"Firefox", "36", 0, "fallback only"},
		{"Firefox", "44", 0, "removed completely"},
		{"Chrome", "29", 4, ""},
		{"Chrome", "43", 0, "removed completely"},
		{"Opera", "15", 6, ""},
		{"Opera", "16", 4, ""},
		{"Opera", "30", 0, "removed completely"},
		{"IE/Edge", "13", 0, "removed completely"},
		{"Safari", "6", 6, ""},
		{"Safari", "9", 4, ""},
		{"Safari", "10", 0, "removed completely"},
	}
	for _, w := range checks {
		row, ok := findRow(rows, w.browser, w.version)
		if !ok {
			t.Errorf("Table 4 missing row %s %s", w.browser, w.version)
			continue
		}
		if row.After != w.after || row.Note != w.note {
			t.Errorf("Table 4 %s %s: after=%d note=%q, want after=%d note=%q",
				w.browser, w.version, row.After, row.Note, w.after, w.note)
		}
	}
}

// Table 5: 3DES support changes.
func TestTable53DES(t *testing.T) {
	rows := Table53DES()
	checks := []struct {
		browser, version string
		before, after    int
	}{
		{"Firefox", "27", 8, 3},
		{"Firefox", "33", 3, 1},
		{"Chrome", "29", 8, 1},
		{"Opera", "16", 8, 1},
		{"Safari", "7.1", 7, 6},
		{"Safari", "9", 6, 3},
	}
	for _, w := range checks {
		row, ok := findRow(rows, w.browser, w.version)
		if !ok {
			t.Errorf("Table 5 missing row %s %s", w.browser, w.version)
			continue
		}
		if row.Before != w.before || row.After != w.after {
			t.Errorf("Table 5 %s %s: %d→%d, want %d→%d",
				w.browser, w.version, row.Before, row.After, w.before, w.after)
		}
	}
	// All major browsers still ship 3DES at the end of the study (§5.6).
	for _, name := range []string{"Firefox", "Chrome", "Opera", "Safari", "IE/Edge"} {
		p, _ := ProfileByName(name)
		last := p.Releases[len(p.Releases)-1].Config
		if last.CountWhere(registry.Suite.Is3DES) == 0 {
			t.Errorf("%s final config dropped 3DES; the paper says all browsers kept it", name)
		}
	}
}

// Table 6: protocol version support changes.
func TestTable6Versions(t *testing.T) {
	rows := Table6Versions()
	find := func(browser, version string) (VersionSupportRow, bool) {
		for _, r := range rows {
			if r.Browser == browser && r.Version == version {
				return r, true
			}
		}
		return VersionSupportRow{}, false
	}
	checks := []struct {
		browser, version, substr string
	}{
		{"Firefox", "27", "TLSv12 supported"},
		{"Firefox", "37", "SSL 3 fallback removed"},
		{"Firefox", "60", "TLSv13 supported"},
		{"Chrome", "22", "TLSv11 supported"},
		{"Chrome", "29", "TLSv12 supported"},
		{"Chrome", "39", "SSL 3 fallback removed"},
		{"Chrome", "65", "TLSv13 supported"},
		{"IE/Edge", "11", "TLSv12 supported"},
		{"Opera", "16", "TLSv11 supported"},
		{"Opera", "27", "SSL 3 fallback removed"},
		{"Safari", "7", "TLSv12 supported"},
		{"Safari", "9", "SSL 3 fallback removed"},
	}
	for _, w := range checks {
		row, ok := find(w.browser, w.version)
		if !ok {
			t.Errorf("Table 6 missing row %s %s", w.browser, w.version)
			continue
		}
		if !containsStr(row.Support, w.substr) {
			t.Errorf("Table 6 %s %s: %q does not mention %q", w.browser, w.version, row.Support, w.substr)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (haystack == needle || indexOf(haystack, needle) >= 0)
}

func indexOf(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

func TestBuildHelloWire(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, p := range AllProfiles() {
		for _, rel := range p.Releases {
			ch := rel.Config.BuildHello(rnd, false)
			var got wire.ClientHello
			if err := got.DecodeFromBytes(ch.Append(nil)); err != nil {
				t.Fatalf("%s %s: %v", p.Name, rel.Version, err)
			}
			if !slices.Equal(got.CipherSuites, ch.CipherSuites) || len(got.Extensions) != len(ch.Extensions) {
				t.Fatalf("%s %s: hello does not read back", p.Name, rel.Version)
			}
		}
	}
}

func TestBuildHelloGREASE(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	p, _ := ProfileByName("Chrome")
	rel, ok := p.ReleaseByVersion("65")
	if !ok {
		t.Fatal("Chrome 65 missing")
	}
	ch := rel.Config.BuildHello(rnd, false)
	if !registry.IsGREASE(ch.CipherSuites[0]) {
		t.Error("Chrome 65 hello should lead with a GREASE suite")
	}
	groups := ch.SupportedGroups()
	if len(groups) == 0 || !registry.IsGREASE(uint16(groups[0])) {
		t.Error("Chrome 65 groups should lead with GREASE")
	}
	svs := ch.SupportedVersions()
	if len(svs) == 0 || !registry.IsGREASE(uint16(svs[0])) {
		t.Error("Chrome 65 supported_versions should lead with GREASE")
	}
	// GREASE never changes the semantic max version.
	max := registry.Version(0)
	for _, v := range svs {
		if !registry.IsGREASE(uint16(v)) && v.Canonical() > max {
			max = v.Canonical()
		}
	}
	if max != registry.VersionTLS13 {
		t.Errorf("highest offered version = %v", max)
	}
}

// findRow locates the row for a given browser and version.
func findRow(rows []TableRow, browser, version string) (TableRow, bool) {
	for _, r := range rows {
		if r.Browser == browser && r.Version == version {
			return r, true
		}
	}
	return TableRow{}, false
}

// offers reports whether ids carries a suite of class c, asked the way the
// aggregation path asks it.
func offers(ids []uint16, c registry.ClassBits) bool {
	scan, _ := registry.ScanSuitesNoGREASE(ids)
	return scan.Bits.Has(c)
}

func TestBuildHelloRC4FallbackOnly(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	p, _ := ProfileByName("Firefox")
	rel, _ := p.ReleaseByVersion("36")
	primary := rel.Config.BuildHello(rnd, false)
	if offers(primary.CipherSuites, registry.ClassRC4) {
		t.Error("FF36 primary hello must not offer RC4")
	}
	retry := rel.Config.BuildHello(rnd, true)
	if !offers(retry.CipherSuites, registry.ClassRC4) {
		t.Error("FF36 fallback hello must offer RC4")
	}
	// Fallback retries carry the SCSV.
	found := false
	for _, s := range retry.CipherSuites {
		if s == 0x5600 {
			found = true
		}
	}
	if !found {
		t.Error("fallback hello missing TLS_FALLBACK_SCSV")
	}
}

func TestHeartbeatAdvertisedByOpenSSL(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	p, _ := ProfileByName("OpenSSL")
	for _, v := range []string{"1.0.1", "1.0.1g", "1.0.2"} {
		rel, ok := p.ReleaseByVersion(v)
		if !ok {
			t.Fatalf("OpenSSL %s missing", v)
		}
		if !rel.Config.BuildHello(rnd, false).OffersHeartbeat() {
			t.Errorf("OpenSSL %s should advertise heartbeat", v)
		}
	}
	rel, _ := p.ReleaseByVersion("1.1.0")
	if rel.Config.BuildHello(rnd, false).OffersHeartbeat() {
		t.Error("OpenSSL 1.1.0 should not advertise heartbeat")
	}
}

func TestOddClientsOfferWeakSuites(t *testing.T) {
	cases := []struct {
		profile string
		class   registry.ClassBits
		label   string
	}{
		{"Lookout Personal", registry.ClassNULL, "NULL"},
		{"Lookout Personal", registry.ClassAnon, "anonymous"},
		{"Craftar Image Recognition", registry.ClassNULL, "NULL"},
		{"Shodan scanner", registry.ClassAnon, "anonymous"},
		{"Kaspersky", registry.ClassAnon, "anonymous"},
		{"Nagios check_tcp", registry.ClassAnon, "anonymous"},
		{"InstallMoney", registry.ClassExport, "export"},
		{"Globus GridFTP", registry.ClassNULL, "NULL"},
	}
	for _, c := range cases {
		p, ok := ProfileByName(c.profile)
		if !ok {
			t.Fatalf("profile %s missing", c.profile)
		}
		if !offers(p.Releases[len(p.Releases)-1].Config.Suites, c.class) {
			t.Errorf("%s should offer %s suites", c.profile, c.label)
		}
	}
}

func TestAndroid23MatchesPaperDescription(t *testing.T) {
	// §7.2: Android 2.3 supports only TLS 1.0 and neither ECDHE nor AEAD.
	p, _ := ProfileByName("Android SDK")
	rel, _ := p.ReleaseByVersion("2.3")
	cfg := rel.Config
	if cfg.MaxVersion() != registry.VersionTLS10 {
		t.Error("Android 2.3 must top out at TLS 1.0")
	}
	for _, id := range cfg.Suites {
		if s, ok := registry.SuiteByID(id); ok && s.Kex == registry.KexECDHE {
			t.Error("Android 2.3 must not offer ECDHE")
		}
	}
	if offers(cfg.Suites, registry.ClassAEAD) {
		t.Error("Android 2.3 must not offer AEAD")
	}
}

func TestClassesCoverTable2(t *testing.T) {
	have := map[Class]int{}
	for _, p := range AllProfiles() {
		have[p.Class]++
	}
	for _, c := range AllClasses() {
		if have[c] == 0 {
			t.Errorf("no profile in class %q (Table 2 row would be empty)", c)
		}
	}
}

func TestTableRowStrings(t *testing.T) {
	rows := Table4RC4()
	if len(rows) == 0 {
		t.Fatal("no Table 4 rows")
	}
	for _, r := range rows {
		if r.String() == "" {
			t.Fatal("empty row rendering")
		}
	}
	vrows := Table6Versions()
	if len(vrows) == 0 || vrows[0].String() == "" {
		t.Fatal("Table 6 rendering broken")
	}
}
