package simulate

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"tlsage/internal/clientdb"
	"tlsage/internal/fingerprint"
	"tlsage/internal/handshake"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// The shared study-scale aggregate used by the shape tests. Built once;
// ~110k simulated connections.
var (
	aggOnce sync.Once
	agg     *notary.Aggregate
	aggErr  error
)

func studyAgg(t *testing.T) *notary.Aggregate {
	t.Helper()
	aggOnce.Do(func() {
		agg = notary.NewAggregate()
		aggErr = New(DefaultOptions(1500)).Run(agg)
	})
	if aggErr != nil {
		t.Fatal(aggErr)
	}
	return agg
}

// runAggregate runs the simulation into a fresh aggregate through Run, the
// one pipeline the simulator has.
func runAggregate(t *testing.T, opts Options) *notary.Aggregate {
	t.Helper()
	agg := notary.NewAggregate()
	if err := New(opts).Run(agg); err != nil {
		t.Fatal(err)
	}
	return agg
}

// runEach runs the simulation, handing every record to fn.
func runEach(t *testing.T, opts Options, fn func(*notary.Record)) {
	t.Helper()
	err := New(opts).Run(notary.SinkFunc(func(r *notary.Record) error {
		fn(r)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
}

// pctTotal is 100·n over the month's records, 0 for an empty month.
func pctTotal(ms *notary.MonthStats, n int) float64 {
	if ms.N[notary.Total] == 0 {
		return 0
	}
	return 100 * float64(n) / float64(ms.N[notary.Total])
}

// pctEstablished is 100·n over the month's established connections.
func pctEstablished(ms *notary.MonthStats, n int) float64 {
	if ms.N[notary.Established] == 0 {
		return 0
	}
	return 100 * float64(n) / float64(ms.N[notary.Established])
}

func pct(t *testing.T, a *notary.Aggregate, y int, m time.Month, f func(*notary.MonthStats) float64) float64 {
	t.Helper()
	ms := a.Stats(timeline.M(y, m))
	if ms == nil {
		t.Fatalf("no stats for %d-%d", y, m)
	}
	return f(ms)
}

// Figure 1: negotiated versions. TLS 1.0 ≈ dominant in early 2012 falling to
// a few percent by Feb 2018; TLS 1.2 ≈ 90% by 2018.
func TestFigure1VersionShape(t *testing.T) {
	a := studyAgg(t)
	v := func(y int, m time.Month, ver registry.Version) float64 {
		return pct(t, a, y, m, func(ms *notary.MonthStats) float64 {
			return pctEstablished(ms, ms.ByVersion.Get(ver))
		})
	}
	if got := v(2012, time.March, registry.VersionTLS10); got < 80 {
		t.Errorf("TLS1.0 in Mar 2012 = %0.1f%%, want ≳90%%", got)
	}
	if got := v(2018, time.February, registry.VersionTLS10); got > 6.5 {
		t.Errorf("TLS1.0 in Feb 2018 = %0.1f%%, want ≈2.8%%", got)
	}
	if got := v(2018, time.February, registry.VersionTLS12); got < 80 {
		t.Errorf("TLS1.2 in Feb 2018 = %0.1f%%, want ≈90%%", got)
	}
	// TLS 1.2 overtakes TLS 1.0 around the turn of 2014/2015 (paper:
	// takeoff late 2013, majority during 2015).
	late2014v12 := v(2014, time.December, registry.VersionTLS12)
	late2014v10 := v(2014, time.December, registry.VersionTLS10)
	if late2014v12 <= late2014v10 {
		t.Errorf("TLS1.2 (%0.1f%%) should lead TLS1.0 (%0.1f%%) by Dec 2014", late2014v12, late2014v10)
	}
	// SSL3 negligible after mid-2014 (§5.1).
	if got := v(2018, time.February, registry.VersionSSL3); got > 0.5 {
		t.Errorf("SSL3 in Feb 2018 = %0.2f%%, want <0.01%%-ish", got)
	}
}

// Figure 2: negotiated RC4/CBC/AEAD classes.
func TestFigure2ClassShape(t *testing.T) {
	a := studyAgg(t)
	cls := func(y int, m time.Month, class string) float64 {
		return pct(t, a, y, m, func(ms *notary.MonthStats) float64 {
			return pctEstablished(ms, ms.ByClass[class])
		})
	}
	// RC4 peaks around 50-65% in Aug 2013, near zero by Mar 2018.
	if got := cls(2013, time.August, "RC4"); got < 45 || got > 70 {
		t.Errorf("RC4 negotiated Aug 2013 = %0.1f%%, want ≈60%%", got)
	}
	if got := cls(2018, time.March, "RC4"); got > 2 {
		t.Errorf("RC4 negotiated Mar 2018 = %0.1f%%, want ≈0", got)
	}
	// AEAD ≈ 85%+ by 2018, CBC ≈ 10%.
	if got := cls(2018, time.March, "AEAD"); got < 75 {
		t.Errorf("AEAD negotiated Mar 2018 = %0.1f%%, want ≈90%%", got)
	}
	if got := cls(2018, time.March, "CBC"); got < 4 || got > 22 {
		t.Errorf("CBC negotiated Mar 2018 = %0.1f%%, want ≈10%%", got)
	}
	// CBC remains popular until 2015 (paper: decline starts Aug 2015).
	if got := cls(2015, time.March, "CBC"); got < 25 {
		t.Errorf("CBC negotiated Mar 2015 = %0.1f%%, want ≳30%%", got)
	}
}

// Figure 3: client advertisement of RC4/DES/3DES/AEAD.
func TestFigure3AdvertisedShape(t *testing.T) {
	a := studyAgg(t)
	get := func(y int, m time.Month, f func(*notary.MonthStats) int) float64 {
		return pct(t, a, y, m, func(ms *notary.MonthStats) float64 { return pctTotal(ms, f(ms)) })
	}
	// Nearly all clients advertised RC4 and 3DES in 2012-2014.
	if got := get(2013, time.June, func(ms *notary.MonthStats) int { return ms.N[notary.AdvRC4] }); got < 85 {
		t.Errorf("RC4 advertised Jun 2013 = %0.1f%%", got)
	}
	if got := get(2014, time.June, func(ms *notary.MonthStats) int { return ms.N[notary.Adv3DES] }); got < 90 {
		t.Errorf("3DES advertised Jun 2014 = %0.1f%%", got)
	}
	// 3DES advertisement falls to ≈69% by 2018 (§5.6).
	got3des := get(2018, time.March, func(ms *notary.MonthStats) int { return ms.N[notary.Adv3DES] })
	if got3des < 55 || got3des > 82 {
		t.Errorf("3DES advertised Mar 2018 = %0.1f%%, want ≈69%%", got3des)
	}
	// RC4 advertisement collapses after the 2015 browser removals but keeps
	// a residual tail (Figure 6): ≈10% in 2018.
	gotRC4 := get(2018, time.March, func(ms *notary.MonthStats) int { return ms.N[notary.AdvRC4] })
	if gotRC4 < 2 || gotRC4 > 25 {
		t.Errorf("RC4 advertised Mar 2018 = %0.1f%%, want ≈10%%", gotRC4)
	}
	// The drop between Jan 2015 and Jan 2017 is the cliff.
	pre := get(2015, time.January, func(ms *notary.MonthStats) int { return ms.N[notary.AdvRC4] })
	post := get(2017, time.January, func(ms *notary.MonthStats) int { return ms.N[notary.AdvRC4] })
	if pre-post < 30 {
		t.Errorf("RC4 advertisement cliff too small: %0.1f%% → %0.1f%%", pre, post)
	}
	// DES advertised: substantial in 2012, minor by 2018.
	desEarly := get(2012, time.June, func(ms *notary.MonthStats) int { return ms.N[notary.AdvDES] })
	desLate := get(2018, time.March, func(ms *notary.MonthStats) int { return ms.N[notary.AdvDES] })
	if desEarly < 20 {
		t.Errorf("DES advertised Jun 2012 = %0.1f%%, want ≳30%%", desEarly)
	}
	if desLate > desEarly/2 {
		t.Errorf("DES advertisement should collapse: %0.1f%% → %0.1f%%", desEarly, desLate)
	}
	// AEAD advertisement near-universal by 2018.
	if got := get(2018, time.March, func(ms *notary.MonthStats) int { return ms.N[notary.AdvAEAD] }); got < 80 {
		t.Errorf("AEAD advertised Mar 2018 = %0.1f%%", got)
	}
}

// Figure 7: Export / Anonymous / NULL advertisement, with the §5.5 decline
// and the §6.2 mid-2015 anonymous spike.
func TestFigure7WeakAdvertisement(t *testing.T) {
	a := studyAgg(t)
	get := func(y int, m time.Month, f func(*notary.MonthStats) int) float64 {
		return pct(t, a, y, m, func(ms *notary.MonthStats) float64 { return pctTotal(ms, f(ms)) })
	}
	exp12 := get(2012, time.June, func(ms *notary.MonthStats) int { return ms.N[notary.AdvExport] })
	exp18 := get(2018, time.March, func(ms *notary.MonthStats) int { return ms.N[notary.AdvExport] })
	if exp12 < 18 || exp12 > 38 {
		t.Errorf("export advertised 2012 = %0.1f%%, want ≈28%%", exp12)
	}
	if exp18 > 6 {
		t.Errorf("export advertised 2018 = %0.1f%%, want ≈1%%", exp18)
	}
	// Anonymous spike: July 2015 roughly doubles May 2015.
	may := get(2015, time.May, func(ms *notary.MonthStats) int { return ms.N[notary.AdvAnon] })
	jul := get(2015, time.July, func(ms *notary.MonthStats) int { return ms.N[notary.AdvAnon] })
	oct := get(2015, time.November, func(ms *notary.MonthStats) int { return ms.N[notary.AdvAnon] })
	if jul < may*1.5 {
		t.Errorf("anonymous spike missing: May %0.1f%% → Jul %0.1f%%", may, jul)
	}
	if oct > jul*0.75 {
		t.Errorf("anonymous spike should recede: Jul %0.1f%% → Nov %0.1f%%", jul, oct)
	}
}

// §6.1: NULL ciphers are advertised by a few percent but established
// connections are dominated by GRID traffic, a couple percent of the early
// dataset declining to ≈0.4% in 2018.
func TestNULLNegotiation(t *testing.T) {
	a := studyAgg(t)
	nullPct := func(y int, m time.Month) float64 {
		return pct(t, a, y, m, func(ms *notary.MonthStats) float64 {
			return pctEstablished(ms, ms.N[notary.NULLNegotiated])
		})
	}
	if got := nullPct(2012, time.June); got < 1 || got > 9 {
		t.Errorf("NULL negotiated 2012 = %0.2f%%, want a few percent", got)
	}
	if got := nullPct(2018, time.March); got > 1.5 {
		t.Errorf("NULL negotiated 2018 = %0.2f%%, want ≈0.4%%", got)
	}
}

// Figure 8: forward secrecy. RSA dominates 2012; ECDHE ≳80% by 2018; the FS
// share rises sharply after Snowden (Jun 2013).
func TestFigure8ForwardSecrecy(t *testing.T) {
	a := studyAgg(t)
	kex := func(y int, m time.Month, k registry.KeyExchange) float64 {
		return pct(t, a, y, m, func(ms *notary.MonthStats) float64 {
			return pctEstablished(ms, ms.ByKex.Get(k))
		})
	}
	fs := func(y int, m time.Month) float64 {
		return pct(t, a, y, m, func(ms *notary.MonthStats) float64 {
			n := 0
			for k, c := range ms.ByKex.All() {
				if k.ForwardSecret() {
					n += c
				}
			}
			return pctEstablished(ms, n)
		})
	}
	if got := kex(2012, time.June, registry.KexRSA); got < 40 {
		t.Errorf("RSA kex Jun 2012 = %0.1f%%, want ≳50%%", got)
	}
	if got := kex(2018, time.March, registry.KexECDHE) + kex(2018, time.March, registry.KexTLS13); got < 70 {
		t.Errorf("ECDHE(+1.3) Mar 2018 = %0.1f%%, want ≳80%%", got)
	}
	pre := fs(2013, time.April)
	post := fs(2014, time.April)
	if post < pre+12 {
		t.Errorf("FS should jump after Snowden: %0.1f%% → %0.1f%%", pre, post)
	}
	// DHE never found much use: stays below 20% at all times.
	for _, m := range a.Months() {
		ms := a.Stats(m)
		if p := pctEstablished(ms, ms.ByKex.Get(registry.KexDHE)); p > 20 {
			t.Errorf("DHE at %v = %0.1f%%, should stay minor", m, p)
		}
	}
}

// Figure 9/10: AEAD breakdown — AES-128-GCM dominates, ChaCha20 ≈1.7% of
// connections in Mar 2018, CCM negligible.
func TestFigure9AEADBreakdown(t *testing.T) {
	a := studyAgg(t)
	ms := a.Stats(timeline.M(2018, time.March))
	gcm128, gcm256, chacha := 0, 0, 0
	for id, n := range ms.BySuite.All() {
		s, ok := registry.SuiteByID(id)
		if !ok {
			continue
		}
		switch {
		case s.Mode == registry.ModeGCM && s.Cipher == registry.CipherAES128:
			gcm128 += n
		case s.Mode == registry.ModeGCM && s.Cipher == registry.CipherAES256:
			gcm256 += n
		case s.Cipher == registry.CipherChaCha20:
			chacha += n
		}
	}
	if gcm128 <= gcm256 {
		t.Errorf("AES-128-GCM (%d) should dominate AES-256-GCM (%d)", gcm128, gcm256)
	}
	chachaPct := pctEstablished(ms, chacha)
	if chachaPct < 0.3 || chachaPct > 8 {
		t.Errorf("ChaCha20 negotiated Mar 2018 = %0.1f%%, want ≈1.7%%", chachaPct)
	}
	// Advertised AEAD: GCM-128 advertised more than CCM.
	if ms.N[notary.AdvCCM] > ms.N[notary.AdvAESGCM128]/4 {
		t.Errorf("CCM advertised (%d) should be rare vs GCM (%d)", ms.N[notary.AdvCCM], ms.N[notary.AdvAESGCM128])
	}
}

// §6.4: TLS 1.3 — client support jumps Feb→Apr 2018 (0.5%→9.8%→23.6%);
// negotiated stays ≈1.3%; 0x7e02 dominates the advertised variants.
func TestTLS13Uptake(t *testing.T) {
	a := studyAgg(t)
	sup := func(y int, m time.Month) float64 {
		return pct(t, a, y, m, func(ms *notary.MonthStats) float64 { return pctTotal(ms, ms.N[notary.AdvTLS13]) })
	}
	feb, mar, apr := sup(2018, time.February), sup(2018, time.March), sup(2018, time.April)
	if feb > 6 {
		t.Errorf("TLS1.3 client support Feb 2018 = %0.1f%%, want small", feb)
	}
	if !(mar > feb && apr > mar) {
		t.Errorf("TLS1.3 support should rise: %0.1f → %0.1f → %0.1f", feb, mar, apr)
	}
	if apr < 10 || apr > 40 {
		t.Errorf("TLS1.3 client support Apr 2018 = %0.1f%%, want ≈23.6%%", apr)
	}
	neg := pct(t, a, 2018, time.April, func(ms *notary.MonthStats) float64 {
		return pctEstablished(ms, ms.ByVersion.Get(registry.VersionTLS13))
	})
	if neg > 6 {
		t.Errorf("TLS1.3 negotiated Apr 2018 = %0.1f%%, want ≈1.3%%", neg)
	}
	// Variant split: the Google experimental variant dominates.
	ms := a.Stats(timeline.M(2018, time.April))
	if ms.TLS13Variant.Get(registry.VersionTLS13Google) <= ms.TLS13Variant.Get(registry.VersionTLS13Draft18) {
		t.Error("0x7e02 should dominate draft-18 (82.3% in the paper)")
	}
}

// §5.4: heartbeat negotiated ≈3% in 2018.
func TestHeartbeatNegotiated(t *testing.T) {
	a := studyAgg(t)
	got := pct(t, a, 2018, time.March, func(ms *notary.MonthStats) float64 {
		return pctTotal(ms, ms.N[notary.HeartbeatAckN])
	})
	if got < 0.5 || got > 8 {
		t.Errorf("heartbeat negotiated Mar 2018 = %0.1f%%, want ≈3%%", got)
	}
}

// Figure 5: relative positions — AEAD and CBC near the top of client lists,
// RC4/3DES lower, with CBC's first position stable over time.
func TestFigure5Positions(t *testing.T) {
	a := studyAgg(t)
	pos := func(y int, m time.Month, class notary.PosClass) float64 {
		p := a.Stats(timeline.M(y, m)).Pos[class]
		if p.Count == 0 {
			return math.NaN()
		}
		return 100 * p.Sum / float64(p.Count)
	}
	for _, ym := range []struct {
		y int
		m time.Month
	}{{2015, time.June}, {2017, time.June}} {
		aead := pos(ym.y, ym.m, notary.PosAEAD)
		cbc := pos(ym.y, ym.m, notary.PosCBC)
		tdes := pos(ym.y, ym.m, notary.Pos3DES)
		if !(aead < cbc && cbc < tdes) {
			t.Errorf("%d-%d: positions AEAD=%0.0f CBC=%0.0f 3DES=%0.0f, want AEAD<CBC<3DES",
				ym.y, ym.m, aead, cbc, tdes)
		}
	}
}

// Figure 4: fingerprint-level capabilities — ≈40% of distinct fingerprints
// still support RC4 and >70% support 3DES in 2018, far above the
// traffic-weighted advertisement numbers.
func TestFigure4FingerprintCapabilities(t *testing.T) {
	a := studyAgg(t)
	ms := a.Stats(timeline.M(2018, time.March))
	if len(ms.FPs) < 20 {
		t.Fatalf("only %d fingerprints in Mar 2018", len(ms.FPs))
	}
	// The unknown-randomizer explodes distinct-fingerprint counts with
	// RC4-bearing lists; exclude per-FP counting distortion by measuring
	// shares over distinct fingerprints as the paper does.
	rc4, tdes, aead := 0, 0, 0
	for _, caps := range ms.FPs {
		if caps.Classes.Has(registry.ClassRC4) {
			rc4++
		}
		if caps.Classes.Has(registry.Class3DES) {
			tdes++
		}
		if caps.Classes.Has(registry.ClassAEAD) {
			aead++
		}
	}
	n := len(ms.FPs)
	rc4Pct := 100 * float64(rc4) / float64(n)
	tdesPct := 100 * float64(tdes) / float64(n)
	if rc4Pct < 15 {
		t.Errorf("fingerprints with RC4 in 2018 = %0.0f%%, want ≈40%%", rc4Pct)
	}
	if tdesPct < 50 {
		t.Errorf("fingerprints with 3DES in 2018 = %0.0f%%, want >70%%", tdesPct)
	}
	if aead == 0 {
		t.Error("no AEAD-capable fingerprints")
	}
	// Traffic-weighted RC4 advertisement is far below the fingerprint share
	// (the Figure 4 vs Figure 3 contrast).
	trafficRC4 := pctTotal(ms, ms.N[notary.AdvRC4])
	if trafficRC4 >= rc4Pct {
		t.Errorf("traffic RC4 (%0.0f%%) should be below fingerprint RC4 (%0.0f%%)", trafficRC4, rc4Pct)
	}
}

// §4.1: fingerprint lifetimes — the randomizer produces a mass of single-day
// fingerprints while stable software spans years.
func TestFingerprintDurations(t *testing.T) {
	a := studyAgg(t)
	durs := a.FPDurations()
	st := fingerprint.ComputeDurationStats(durs)
	if st.Total < 100 {
		t.Fatalf("only %d fingerprints", st.Total)
	}
	if st.SingleDay < st.Total/4 {
		t.Errorf("single-day fingerprints = %d/%d, want a large share", st.SingleDay, st.Total)
	}
	// Some fingerprints persist for >1200 days and carry real traffic.
	if st.LongLived == 0 {
		t.Error("no long-lived fingerprints")
	}
	if st.SingleDayConns*50 > st.TotalConns {
		t.Errorf("single-day fingerprints carry %d/%d connections, should be a sliver",
			st.SingleDayConns, st.TotalConns)
	}
	if st.MedianDays > st.MeanDays {
		t.Error("median should sit far below mean (heavy single-day mass)")
	}
}

// §5.1: SSLv2 appears in the dataset, exclusively from the Nagios traffic.
func TestSSLv2Trickle(t *testing.T) {
	a := studyAgg(t)
	total := 0
	for _, m := range a.Months() {
		total += a.Stats(m).N[notary.SSLv2Hellos]
	}
	if total == 0 {
		t.Error("no SSLv2 hellos observed")
	}
	frac := float64(total) / float64(a.TotalRecords())
	if frac > 0.005 {
		t.Errorf("SSLv2 fraction = %0.4f, should be a trickle", frac)
	}
}

// §5.5: export suites are essentially never negotiated, yet the Interwise
// servers produce established EXP_RC4_40_MD5 sessions.
func TestExportNegotiationAnomaly(t *testing.T) {
	a := studyAgg(t)
	exp, unoffered := 0, 0
	for _, m := range a.Months() {
		ms := a.Stats(m)
		exp += ms.N[notary.ExportNegotiated]
		unoffered += ms.N[notary.UnofferedChoice]
	}
	if exp == 0 {
		t.Error("expected a few export-negotiated connections (Interwise)")
	}
	total := 0
	for _, m := range a.Months() {
		total += a.Stats(m).N[notary.Established]
	}
	if frac := float64(exp) / float64(total); frac > 0.005 {
		t.Errorf("export negotiated fraction = %0.4f, want tiny", frac)
	}
	if unoffered == 0 {
		t.Error("expected spec-violating unoffered-suite choices (GOST/Interwise)")
	}
}

// §6.3.3: curve shares — secp256r1 dominates across the dataset; x25519
// reaches ≈20%+ of connections by Feb 2018.
func TestCurveShares(t *testing.T) {
	a := studyAgg(t)
	totals := map[registry.CurveID]int{}
	grand := 0
	for _, m := range a.Months() {
		for c, n := range a.Stats(m).ByCurve.All() {
			totals[c] += n
			grand += n
		}
	}
	if grand == 0 {
		t.Fatal("no curves negotiated")
	}
	p256 := 100 * float64(totals[registry.CurveSecp256r1]) / float64(grand)
	if p256 < 60 {
		t.Errorf("secp256r1 share = %0.1f%%, want ≈84%%", p256)
	}
	ms := a.Stats(timeline.M(2018, time.February))
	mGrand := 0
	for _, n := range ms.ByCurve.All() {
		mGrand += n
	}
	x := 100 * float64(ms.ByCurve.Get(registry.CurveX25519)) / float64(mGrand)
	if x < 8 || x > 45 {
		t.Errorf("x25519 share Feb 2018 = %0.1f%%, want ≈22%%", x)
	}
}

// The ablation path (struct-level, no wire round-trip) must agree with the
// wire-level path on aggregate shape.
func TestWireAblationAgreement(t *testing.T) {
	optsA := DefaultOptions(300)
	optsA.End = timeline.M(2013, time.December)
	optsB := optsA
	optsB.WireLevel = false
	aggA, aggB := runAggregate(t, optsA), runAggregate(t, optsB)
	msA := aggA.Stats(timeline.M(2013, time.June))
	msB := aggB.Stats(timeline.M(2013, time.June))
	if msA.N[notary.Total] != msB.N[notary.Total] {
		t.Fatal("sample sizes differ")
	}
	diff := math.Abs(pctEstablished(msA, msA.ByClass["RC4"]) - pctEstablished(msB, msB.ByClass["RC4"]))
	if diff > 8 {
		t.Errorf("wire vs struct RC4 share differs by %0.1f points", diff)
	}
}

func TestFingerprintsAbsentBeforeNotaryUpgrade(t *testing.T) {
	// §4.0.1: the fields needed for fingerprinting reached the Notary in
	// February 2014; earlier records must carry no fingerprint.
	a := studyAgg(t)
	for _, m := range a.Months() {
		ms := a.Stats(m)
		if m.Before(timeline.M(2014, time.February)) {
			if len(ms.FPs) != 0 {
				t.Fatalf("%v: %d fingerprints before the capability existed", m, len(ms.FPs))
			}
		}
	}
	if got := len(a.Stats(timeline.M(2015, time.June)).FPs); got == 0 {
		t.Error("no fingerprints after February 2014")
	}
}

func TestRandomizerProducesDistinctFingerprints(t *testing.T) {
	a := studyAgg(t)
	// The randomizer profile shuffles per connection: in any late month the
	// distinct-fingerprint count must exceed the stable-profile count by a
	// visible margin (stable configs number ≈100).
	ms := a.Stats(timeline.M(2017, time.June))
	if len(ms.FPs) < 60 {
		t.Errorf("only %d distinct fingerprints in Jun 2017", len(ms.FPs))
	}
}

func TestStructLevelSSLv2Path(t *testing.T) {
	opts := DefaultOptions(2000)
	opts.Start = timeline.M(2013, time.March)
	opts.End = timeline.M(2013, time.March)
	opts.WireLevel = false
	sslv2 := 0
	runEach(t, opts, func(r *notary.Record) {
		if r.SSLv2Hello {
			sslv2++
			if r.ClientVersion != registry.VersionSSL2 {
				t.Errorf("sslv2 record with version %v", r.ClientVersion)
			}
		}
	})
	if sslv2 == 0 {
		t.Skip("no Nagios samples at this size/seed")
	}
}

// A fallback retry at the first attempt's version is another hello — Firefox
// 36 adds RC4 and the fallback SCSV — though its draws may be the same, so the
// memo keeps the two apart.
func TestMemoKeepsARetryApartFromTheFirstAttempt(t *testing.T) {
	p, _ := clientdb.ProfileByName("Firefox")
	i := slices.IndexFunc(p.Releases, func(r clientdb.VersionConfig) bool { return r.Version == "36" })
	cfg := &p.Releases[i].Config
	if cfg.GREASE || cfg.LegacyVersion != registry.VersionTLS12 || !cfg.RC4FallbackOnly {
		t.Fatalf("Firefox 36 is no longer a TLS 1.2 RC4-fallback client without GREASE: pick another")
	}
	s := New(DefaultOptions(100))
	var sc scratch
	first, err := s.attempt(cfg, cfg, false, p.Name, true, rand.New(rand.NewSource(1)), &sc)
	if err != nil {
		t.Fatal(err)
	}
	firstSuites := first.client.Suites()
	retry := *cfg
	retry.SupportedVersions = nil
	again, err := s.attempt(cfg, &retry, true, p.Name, true, rand.New(rand.NewSource(1)), &sc)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(again.client.Suites(), firstSuites) || len(sc.memo) != 2 {
		t.Errorf("the retry at %v offers the first attempt's suites (%d memo entries)", retry.LegacyVersion, len(sc.memo))
	}
}

// Every answer a memo's offer keeps is Negotiate's for its hello and the
// variant's config, ServerHello aside; a study year at 2,000 connections a
// month meets each (hello, server variant) pair many times and negotiates it
// once.
func TestKeptAnswersAreNegotiates(t *testing.T) {
	opts := DefaultOptions(2000)
	opts.Start, opts.End = timeline.M(2014, time.January), timeline.M(2014, time.December)
	s := New(opts)
	var sc scratch
	conns := 0
	for _, m := range timeline.MonthsBetween(opts.Start, opts.End) {
		if err := s.runMonth(m, &sc, func(*notary.Record) error { conns++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	kept := 0
	for key, o := range sc.memo {
		for v, got := range o.answers {
			want := handshake.Negotiate(o.hello, s.Servers.Config(v))
			want.ServerHello = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("hello %+v, server %+v: kept %+v, Negotiate answers %+v", key, v, got, want)
			}
			kept++
		}
	}
	if kept == 0 || kept*4 > conns {
		t.Errorf("%d answers kept for %d connections", kept, conns)
	}
}
