package fingerprint

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"tlsage/internal/clientdb"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
	"tlsage/internal/wire"
)

// refFromParts is the fmt-based writer FromParts replaced: strip GREASE from
// the suite, extension and curve lists into copies, then Fprintf each value
// as %04x. The point formats were never stripped.
func refFromParts(suites []uint16, exts []registry.ExtensionID, curves []registry.CurveID, pfs []registry.ECPointFormat) Fingerprint {
	var b strings.Builder
	list := func(prefix string, vals []uint16, strip bool) {
		b.WriteString(prefix)
		var kept []uint16
		for _, v := range vals {
			if !strip || !registry.IsGREASE(v) {
				kept = append(kept, v)
			}
		}
		for i, v := range kept {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%04x", v)
		}
	}
	list("cs:", suites, true)
	list("|ext:", widen(exts), true)
	list("|grp:", widen(curves), true)
	list("|pf:", widen(pfs), false)
	return Fingerprint(b.String())
}

func widen[T ~uint16 | ~uint8](vals []T) []uint16 {
	u := make([]uint16, len(vals))
	for i, v := range vals {
		u[i] = uint16(v)
	}
	return u
}

// FromParts writes what the fmt-based reference wrote, on random lists with
// GREASE anywhere in each of the three stripped lists, on empty and all-GREASE
// lists, and with every point-format byte.
func TestFromPartsMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	grease := registry.GREASEValues()
	draw := func() []uint16 {
		vals := make([]uint16, rnd.Intn(12))
		for i := range vals {
			switch rnd.Intn(4) {
			case 0:
				vals[i] = grease[rnd.Intn(len(grease))]
			case 1:
				vals[i] = uint16(rnd.Intn(0x100)) // leading zero digits
			default:
				vals[i] = uint16(rnd.Intn(0x10000))
			}
		}
		return vals
	}
	check := func(suites []uint16, exts []registry.ExtensionID, curves []registry.CurveID, pfs []registry.ECPointFormat) {
		t.Helper()
		if got, want := FromParts(suites, exts, curves, pfs), refFromParts(suites, exts, curves, pfs); got != want {
			t.Fatalf("FromParts(%04x, %04x, %04x, %02x) =\n%s\nreference\n%s", suites, exts, curves, pfs, got, want)
		}
	}
	check(nil, nil, nil, nil)
	check(grease, []registry.ExtensionID{0x0a0a}, []registry.CurveID{0xfafa, 0x1a1a}, nil)
	allPFs := make([]registry.ECPointFormat, 256)
	for i := range allPFs {
		allPFs[i] = registry.ECPointFormat(i)
	}
	check(nil, nil, nil, allPFs)
	for trial := 0; trial < 5000; trial++ {
		var exts []registry.ExtensionID
		for _, v := range draw() {
			exts = append(exts, registry.ExtensionID(v))
		}
		var curves []registry.CurveID
		for _, v := range draw() {
			curves = append(curves, registry.CurveID(v))
		}
		var pfs []registry.ECPointFormat
		for _, v := range draw() {
			pfs = append(pfs, registry.ECPointFormat(v))
		}
		check(draw(), exts, curves, pfs)
	}
}

// A fingerprint costs one allocation, the returned string, with or without
// GREASE in its lists.
func TestFromPartsAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, name := range []string{"Chrome", "Firefox"} {
		p, _ := clientdb.ProfileByName(name)
		hello := p.Releases[len(p.Releases)-1].Config.BuildHello(rnd, false)
		exts, curves, pfs := hello.AppendExtensionIDs(nil), hello.SupportedGroups(), hello.AppendECPointFormats(nil)
		if got := testing.AllocsPerRun(100, func() {
			_ = FromParts(hello.CipherSuites, exts, curves, pfs)
		}); got != 1 {
			t.Errorf("%s: FromParts %v allocs/run, want 1", name, got)
		}
	}
}

// §4: GREASE values are identified and removed, so two hellos differing
// only in GREASE placement fingerprint identically; the order of what is
// left is the client's, and counts.
func TestGREASEInvariance(t *testing.T) {
	exts, curves := []registry.ExtensionID{registry.ExtServerName}, []registry.CurveID{registry.CurveX25519}
	plain := FromParts([]uint16{0xC02F, 0x002F}, exts, curves, nil)
	t.Run("greased-lists", func(t *testing.T) {
		greased := FromParts(
			[]uint16{0x0a0a, 0xC02F, 0x002F},
			[]registry.ExtensionID{registry.ExtServerName, registry.ExtensionID(0x1a1a)},
			[]registry.CurveID{registry.CurveID(0x2a2a), registry.CurveX25519},
			nil)
		if plain != greased {
			t.Errorf("GREASE changed fingerprint:\n%s\n%s", plain, greased)
		}
	})
	t.Run("every-grease-value-anywhere", func(t *testing.T) {
		for _, g := range registry.GREASEValues() {
			for pos := range 3 {
				suites := slices.Insert([]uint16{0xC02F, 0x002F}, pos, g)
				if got := FromParts(suites, exts, curves, nil); got != plain {
					t.Fatalf("%04x at %d: %s, want %s", g, pos, got, plain)
				}
			}
		}
	})
	t.Run("suite-order-matters", func(t *testing.T) {
		if FromParts([]uint16{0x002F, 0xC02F}, exts, curves, nil) == plain {
			t.Error("a reordered suite list fingerprints as the original")
		}
	})
}

func TestFromClientHelloMatchesFromParts(t *testing.T) {
	ch := &wire.ClientHello{
		Version:      registry.VersionTLS12,
		CipherSuites: []uint16{0xC02F, 0x002F},
		Extensions: []wire.Extension{
			{ID: registry.ExtServerName, Data: []byte("x.test")},
			wire.NewSupportedGroupsExtension([]registry.CurveID{registry.CurveSecp256r1}),
			wire.NewECPointFormatsExtension([]registry.ECPointFormat{registry.PointFormatUncompressed}),
		},
	}
	got := FromClientHello(ch)
	want := FromParts(ch.CipherSuites,
		[]registry.ExtensionID{registry.ExtServerName, registry.ExtSupportedGroups, registry.ExtECPointFormats},
		[]registry.CurveID{registry.CurveSecp256r1},
		[]registry.ECPointFormat{registry.PointFormatUncompressed})
	if got != want {
		t.Errorf("mismatch:\n%s\n%s", got, want)
	}
}

func TestDBCollisionRules(t *testing.T) {
	fp := Fingerprint("cs:002f|ext:|grp:|pf:")
	// Same software: versions merge.
	db := NewDB()
	db.Add(fp, "Chrome", clientdb.ClassBrowser, "29")
	db.Add(fp, "Chrome", clientdb.ClassBrowser, "31")
	e, ok := db.Lookup(fp)
	if !ok || len(e.Versions) != 2 {
		t.Fatalf("merge failed: %+v", e)
	}
	// Software vs library: library wins (Chrome on Android → Android SDK).
	db = NewDB()
	db.Add(fp, "Chrome", clientdb.ClassBrowser, "29")
	db.Add(fp, "Android SDK", clientdb.ClassLibrary, "5.0")
	e, _ = db.Lookup(fp)
	if e.Software != "Android SDK" {
		t.Errorf("library should win, got %s", e.Software)
	}
	// Library first, software second: library still wins.
	db = NewDB()
	db.Add(fp, "Android SDK", clientdb.ClassLibrary, "5.0")
	db.Add(fp, "Chrome", clientdb.ClassBrowser, "29")
	e, _ = db.Lookup(fp)
	if e.Software != "Android SDK" {
		t.Errorf("library should win, got %s", e.Software)
	}
	// Two different programs: fingerprint removed and stays removed.
	db = NewDB()
	db.Add(fp, "Chrome", clientdb.ClassBrowser, "29")
	db.Add(fp, "Zbot", clientdb.ClassMalware, "1")
	if _, ok := db.Lookup(fp); ok {
		t.Error("ambiguous fingerprint should be removed")
	}
	if db.RemovedCount() != 1 {
		t.Error("removed tombstone missing")
	}
	db.Add(fp, "Chrome", clientdb.ClassBrowser, "29")
	if _, ok := db.Lookup(fp); ok {
		t.Error("tombstoned fingerprint resurrected")
	}
}

func TestBuildDefaultMatchesTable2Counts(t *testing.T) {
	// BuildDefault fills a class from its labeled profiles, so every class
	// with a target has some.
	labeled := map[clientdb.Class]bool{}
	for _, p := range clientdb.LabeledProfiles() {
		labeled[p.Class] = true
	}
	for class, want := range table2Targets {
		if want > 0 && !labeled[class] {
			t.Fatalf("class %s has a target of %d fingerprints but no labeled profile", class, want)
		}
	}
	db := BuildDefault()
	counts := db.CountByClass()
	for class, want := range table2Targets {
		got := counts[class]
		// Collisions can leave a class one or two short of its target.
		if got < want-5 || got > want {
			t.Errorf("class %s: %d fingerprints, want ≈%d", class, got, want)
		}
	}
	total := db.Size()
	if total < 1500 || total > 1600 {
		t.Errorf("total fingerprints = %d, want ≈1562 (Table 2 rows)", total)
	}
}

func TestBuildDefaultLabelsBaseConfigs(t *testing.T) {
	// Every labeled profile's release fingerprint must resolve to that
	// profile (or to a library it collided into).
	db := BuildDefault()
	missed := 0
	for _, p := range clientdb.LabeledProfiles() {
		for _, rel := range p.Releases {
			fp := FromParts(rel.Config.Suites, rel.Config.Extensions, rel.Config.Curves, rel.Config.PointFormats)
			if _, ok := db.Lookup(fp); !ok {
				missed++
			}
		}
	}
	// A handful of collisions are acceptable (they are the paper's 7.3%
	// collision observation); wholesale misses are not.
	if missed > 6 {
		t.Errorf("%d labeled release fingerprints missing from DB", missed)
	}
}

func TestUsable(t *testing.T) {
	if Usable(nil) || Usable([]uint16{0x0a0a}) {
		t.Error("empty/GREASE-only lists should be unusable")
	}
	if !Usable([]uint16{0x002F}) {
		t.Error("real list should be usable")
	}
}

func TestDurationStats(t *testing.T) {
	d := func(days int, conns int64) notary.FPDuration {
		first := timeline.D(2015, time.January, 1)
		return notary.FPDuration{
			First: first,
			Last:  timeline.D(2015, time.January, 1+days-1),
			Days:  days, Connections: conns,
		}
	}
	durs := []notary.FPDuration{
		d(1, 10), d(1, 5), d(1, 5), d(1, 10), // single-day
		d(100, 1000),
		d(1300, 50000), // long-lived
	}
	st := ComputeDurationStats(durs)
	if st.Total != 6 || st.SingleDay != 4 || st.LongLived != 1 {
		t.Fatalf("%+v", st)
	}
	if st.MedianDays != 1 {
		t.Errorf("median = %v, want 1 (the paper's headline §4.1 stat)", st.MedianDays)
	}
	if st.MaxDays != 1300 {
		t.Errorf("max = %v", st.MaxDays)
	}
	if st.MeanDays < 230 || st.MeanDays > 235 {
		t.Errorf("mean = %v", st.MeanDays)
	}
	if st.SingleDayConns != 30 || st.LongLivedConns != 50000 {
		t.Errorf("connection attribution wrong: %+v", st)
	}
	t.Run("degenerate", func(t *testing.T) {
		if st := ComputeDurationStats(nil); st.Total != 0 {
			t.Error("empty stats")
		}
		if st := ComputeDurationStats(durs[:1]); st.MedianDays != 1 {
			t.Error("single-element stats")
		}
	})
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if q := quantile(vals, 0.5); q != 2.5 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(vals, 1.0); q != 4 {
		t.Errorf("max quantile = %v", q)
	}
	if q := quantile(vals, 0); q != 1 {
		t.Errorf("min quantile = %v", q)
	}
	if q := quantile([]float64{7}, 0.75); q != 7 {
		t.Errorf("quantile of one value = %v", q)
	}
}

// TestVariantConfigOfAShortList: a suite list too short to swap or drop
// within gains the renegotiation SCSV instead, keeps its leading suite, and
// the base config is left as it was.
func TestVariantConfigOfAShortList(t *testing.T) {
	base := clientdb.Config{Suites: []uint16{0x002F}, Extensions: []registry.ExtensionID{registry.ExtServerName},
		Curves: []registry.CurveID{registry.CurveSecp256r1}}
	for seed := int64(0); seed < 200; seed++ {
		v := variantConfig(&base, rand.New(rand.NewSource(seed)))
		if v.Suites[0] != 0x002F {
			t.Fatalf("seed %d: variant %#04x lost its leading suite", seed, v.Suites)
		}
		for _, id := range v.Suites[1:] {
			if id != 0x00FF {
				t.Fatalf("seed %d: variant %#04x gained a suite other than the SCSV", seed, v.Suites)
			}
		}
	}
	if len(base.Suites) != 1 || len(base.Extensions) != 1 || len(base.Curves) != 1 {
		t.Errorf("variantConfig changed its base: %+v", base)
	}
}
