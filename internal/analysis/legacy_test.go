package analysis

// This file preserves the pre-Frame, map-walking figure and scalar
// implementations exactly as the seed shipped them. They are the golden
// reference for the frame/catalog parity tests (frame_test.go) and the
// baseline side of BenchmarkAllFiguresLegacy — they must not be "improved".

import (
	"sort"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

type legacyMetric func(ms *notary.MonthStats) float64

// legacyPct and legacyPctEstablished are the seed's MonthStats percentage
// helpers, which only this reference still calls: 100·n over the month's
// records or established connections, 0 for an empty denominator.
func legacyPct(ms *notary.MonthStats, n int) float64 {
	if ms.N[notary.Total] == 0 {
		return 0
	}
	return 100 * float64(n) / float64(ms.N[notary.Total])
}

func legacyPctEstablished(ms *notary.MonthStats, n int) float64 {
	if ms.N[notary.Established] == 0 {
		return 0
	}
	return 100 * float64(n) / float64(ms.N[notary.Established])
}

func legacyBuildSeries(agg *notary.Aggregate, name string, f legacyMetric) Series {
	s := Series{Name: name}
	for _, m := range agg.Months() {
		s.Points = append(s.Points, Point{Month: m, Value: f(agg.Stats(m))})
	}
	return s
}

func legacyFigure1Versions(agg *notary.Aggregate) Figure {
	ver := func(v registry.Version) legacyMetric {
		return func(ms *notary.MonthStats) float64 { return legacyPctEstablished(ms, ms.ByVersion.Get(v)) }
	}
	return Figure{
		ID:    "Figure 1",
		Title: "Negotiated SSL/TLS versions (% monthly connections)",
		Series: []Series{
			legacyBuildSeries(agg, "SSLv3", ver(registry.VersionSSL3)),
			legacyBuildSeries(agg, "TLSv10", ver(registry.VersionTLS10)),
			legacyBuildSeries(agg, "TLSv11", ver(registry.VersionTLS11)),
			legacyBuildSeries(agg, "TLSv12", ver(registry.VersionTLS12)),
			legacyBuildSeries(agg, "TLSv13", ver(registry.VersionTLS13)),
		},
		Events: attackEvents(timeline.EventLucky13, timeline.EventPOODLE, timeline.EventRC4,
			timeline.EventSnowden, timeline.EventRC4Passwords, timeline.EventRC4NoMore,
			timeline.EventSweet32),
	}
}

func legacyFigure2NegotiatedClasses(agg *notary.Aggregate) Figure {
	cls := func(c string) legacyMetric {
		return func(ms *notary.MonthStats) float64 { return legacyPctEstablished(ms, ms.ByClass[c]) }
	}
	return Figure{
		ID:    "Figure 2",
		Title: "Negotiated connections using RC4, CBC or AEAD (%)",
		Series: []Series{
			legacyBuildSeries(agg, "AEAD", cls("AEAD")),
			legacyBuildSeries(agg, "CBC", cls("CBC")),
			legacyBuildSeries(agg, "RC4", cls("RC4")),
		},
		Events: attackEvents(timeline.EventLucky13, timeline.EventPOODLE, timeline.EventRC4,
			timeline.EventSnowden, timeline.EventRC4Passwords, timeline.EventRC4NoMore,
			timeline.EventSweet32),
	}
}

func legacyFigure3Advertised(agg *notary.Aggregate) Figure {
	return Figure{
		ID:    "Figure 3",
		Title: "Client-advertised RC4 / DES / 3DES / AEAD (% connections)",
		Series: []Series{
			legacyBuildSeries(agg, "AEAD", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvAEAD]) }),
			legacyBuildSeries(agg, "RC4", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvRC4]) }),
			legacyBuildSeries(agg, "DES", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvDES]) }),
			legacyBuildSeries(agg, "3DES", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.Adv3DES]) }),
		},
		Events: attackEvents(timeline.EventLucky13, timeline.EventPOODLE, timeline.EventRC4,
			timeline.EventRC4Passwords, timeline.EventRC4NoMore, timeline.EventSweet32),
	}
}

func legacyFigure4FingerprintClasses(agg *notary.Aggregate) Figure {
	fpPct := func(class registry.ClassBits) legacyMetric {
		return func(ms *notary.MonthStats) float64 {
			if len(ms.FPs) == 0 {
				return 0
			}
			n := 0
			for _, caps := range ms.FPs {
				if caps.Classes.Has(class) {
					n++
				}
			}
			return 100 * float64(n) / float64(len(ms.FPs))
		}
	}
	return Figure{
		ID:    "Figure 4",
		Title: "Fingerprints supporting RC4 / DES / 3DES / AEAD (% monthly fingerprints)",
		Series: []Series{
			legacyBuildSeries(agg, "AEAD", fpPct(registry.ClassAEAD)),
			legacyBuildSeries(agg, "RC4", fpPct(registry.ClassRC4)),
			legacyBuildSeries(agg, "DES", fpPct(registry.ClassDES)),
			legacyBuildSeries(agg, "3DES", fpPct(registry.Class3DES)),
		},
		Events: attackEvents(timeline.EventPOODLE, timeline.EventRC4Passwords,
			timeline.EventRC4NoMore, timeline.EventSweet32),
	}
}

func legacyFigure5Positions(agg *notary.Aggregate) Figure {
	pos := func(class notary.PosClass) legacyMetric {
		return func(ms *notary.MonthStats) float64 {
			if ms.Pos[class].Count == 0 {
				return 0
			}
			return 100 * ms.Pos[class].Sum / float64(ms.Pos[class].Count)
		}
	}
	var series []Series
	for _, class := range []notary.PosClass{notary.PosAEAD, notary.PosCBC, notary.PosRC4, notary.PosDES, notary.Pos3DES} {
		series = append(series, legacyBuildSeries(agg, class.String(), pos(class)))
	}
	return Figure{
		ID:     "Figure 5",
		Title:  "Average relative position of first advertised cipher by class (%)",
		Series: series,
	}
}

func legacyFigure6RC4Advertised(agg *notary.Aggregate) Figure {
	return Figure{
		ID:    "Figure 6",
		Title: "Connections with client-advertised RC4 (%)",
		Series: []Series{
			legacyBuildSeries(agg, "RC4 advertised", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvRC4]) }),
		},
		Events: attackEvents(timeline.EventRC4, timeline.EventRFC7465,
			timeline.EventRC4Passwords, timeline.EventRC4NoMore),
	}
}

func legacyFigure7WeakAdvertised(agg *notary.Aggregate) Figure {
	return Figure{
		ID:    "Figure 7",
		Title: "Client-advertised Export / Anonymous / NULL suites (% connections)",
		Series: []Series{
			legacyBuildSeries(agg, "Export", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvExport]) }),
			legacyBuildSeries(agg, "Anonymous", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvAnon]) }),
			legacyBuildSeries(agg, "Null", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvNULL]) }),
		},
		Events: attackEvents(timeline.EventFREAK, timeline.EventLogjam),
	}
}

func legacyFigure8Kex(agg *notary.Aggregate) Figure {
	kex := func(k registry.KeyExchange) legacyMetric {
		return func(ms *notary.MonthStats) float64 { return legacyPctEstablished(ms, ms.ByKex.Get(k)) }
	}
	ecdhe := func(ms *notary.MonthStats) float64 {
		return legacyPctEstablished(ms, ms.ByKex.Get(registry.KexECDHE)+ms.ByKex.Get(registry.KexTLS13))
	}
	return Figure{
		ID:    "Figure 8",
		Title: "Negotiated RSA / DHE / ECDHE key exchange (% connections)",
		Series: []Series{
			legacyBuildSeries(agg, "RSA", kex(registry.KexRSA)),
			legacyBuildSeries(agg, "DHE", kex(registry.KexDHE)),
			legacyBuildSeries(agg, "ECDHE", ecdhe),
		},
		Events: attackEvents(timeline.EventSnowden),
	}
}

func legacyFigure9AEADNegotiated(agg *notary.Aggregate) Figure {
	suiteSel := func(sel func(registry.Suite) bool) legacyMetric {
		return func(ms *notary.MonthStats) float64 {
			n := 0
			for id, c := range ms.BySuite.All() {
				if s, ok := registry.SuiteByID(id); ok && sel(s) {
					n += c
				}
			}
			return legacyPctEstablished(ms, n)
		}
	}
	return Figure{
		ID:    "Figure 9",
		Title: "Negotiated AEAD ciphers (% connections)",
		Series: []Series{
			legacyBuildSeries(agg, "AEAD Total", suiteSel(registry.Suite.IsAEAD)),
			legacyBuildSeries(agg, "AES128-GCM", suiteSel(func(s registry.Suite) bool {
				return s.Mode == registry.ModeGCM && s.Cipher == registry.CipherAES128
			})),
			legacyBuildSeries(agg, "AES256-GCM", suiteSel(func(s registry.Suite) bool {
				return s.Mode == registry.ModeGCM && s.Cipher == registry.CipherAES256
			})),
			legacyBuildSeries(agg, "ChaCha20-Poly1305", suiteSel(func(s registry.Suite) bool {
				return s.Cipher == registry.CipherChaCha20
			})),
		},
	}
}

func legacyFigure10AEADAdvertised(agg *notary.Aggregate) Figure {
	return Figure{
		ID:    "Figure 10",
		Title: "Client-advertised AEAD ciphers (% connections)",
		Series: []Series{
			legacyBuildSeries(agg, "AES128-GCM", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvAESGCM128]) }),
			legacyBuildSeries(agg, "AES256-GCM", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvAESGCM256]) }),
			legacyBuildSeries(agg, "ChaCha20-Poly1305", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvChaCha]) }),
			legacyBuildSeries(agg, "AES-CCM", func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvCCM]) }),
		},
	}
}

func legacyExtensionUptake(agg *notary.Aggregate) Figure {
	ext := func(id registry.ExtensionID) legacyMetric {
		return func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.ByExtension.Get(id)) }
	}
	return Figure{
		ID:    "Figure E1",
		Title: "Client-advertised TLS extensions (% connections)",
		Series: []Series{
			legacyBuildSeries(agg, "renegotiation_info", ext(registry.ExtRenegotiationInfo)),
			legacyBuildSeries(agg, "encrypt_then_mac", ext(registry.ExtEncryptThenMAC)),
			legacyBuildSeries(agg, "extended_master_secret", ext(registry.ExtExtendedMasterSecret)),
			legacyBuildSeries(agg, "session_ticket", ext(registry.ExtSessionTicket)),
			legacyBuildSeries(agg, "server_name", ext(registry.ExtServerName)),
			legacyBuildSeries(agg, "heartbeat", ext(registry.ExtHeartbeat)),
			legacyBuildSeries(agg, "supported_versions", ext(registry.ExtSupportedVersions)),
		},
		Events: attackEvents(timeline.EventLucky13, timeline.EventHeartbleed),
	}
}

func legacyAllFigures(agg *notary.Aggregate) []Figure {
	return []Figure{
		legacyFigure1Versions(agg),
		legacyFigure2NegotiatedClasses(agg),
		legacyFigure3Advertised(agg),
		legacyFigure4FingerprintClasses(agg),
		legacyFigure5Positions(agg),
		legacyFigure6RC4Advertised(agg),
		legacyFigure7WeakAdvertised(agg),
		legacyFigure8Kex(agg),
		legacyFigure9AEADNegotiated(agg),
		legacyFigure10AEADAdvertised(agg),
	}
}

// CurveShare is one row of the §6.3.3 table: negotiated curve shares over
// the whole dataset, descending.
type CurveShare struct {
	Curve registry.CurveID
	Share float64 // percent of curve-bearing connections
}

func legacyCurveSharesOverall(agg *notary.Aggregate) []CurveShare {
	totals := map[registry.CurveID]int{}
	grand := 0
	for _, m := range agg.Months() {
		for c, n := range agg.Stats(m).ByCurve.All() {
			totals[c] += n
			grand += n
		}
	}
	out := make([]CurveShare, 0, len(totals))
	for c, n := range totals {
		out = append(out, CurveShare{Curve: c, Share: 100 * float64(n) / float64(grand)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Curve < out[j].Curve
	})
	return out
}

func legacyTLS13VariantShares(agg *notary.Aggregate) []TLS13VariantShare {
	totals := map[registry.Version]int{}
	grand := 0
	for _, m := range agg.Months() {
		for v, n := range agg.Stats(m).TLS13Variant.All() {
			totals[v] += n
			grand += n
		}
	}
	out := make([]TLS13VariantShare, 0, len(totals))
	for v, n := range totals {
		out = append(out, TLS13VariantShare{Variant: v, Share: 100 * float64(n) / float64(grand)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Variant < out[j].Variant
	})
	return out
}

func legacyPassiveScalars(agg *notary.Aggregate) []Scalar {
	var out []Scalar
	get := func(y int, m time.Month) *notary.MonthStats {
		return agg.Stats(timeline.M(y, m))
	}
	pctOr := func(ms *notary.MonthStats, f func(*notary.MonthStats) float64) float64 {
		if ms == nil {
			return 0
		}
		return f(ms)
	}

	feb18 := get(2018, time.February)
	mar18 := get(2018, time.March)
	apr18 := get(2018, time.April)

	out = append(out,
		Scalar{"S-F1a", "TLS 1.0 negotiated, Feb 2018", 2.8,
			pctOr(feb18, func(ms *notary.MonthStats) float64 {
				return legacyPctEstablished(ms, ms.ByVersion.Get(registry.VersionTLS10))
			}), "%"},
		Scalar{"S-F1b", "TLS 1.2 negotiated, Feb 2018", 90,
			pctOr(feb18, func(ms *notary.MonthStats) float64 {
				return legacyPctEstablished(ms, ms.ByVersion.Get(registry.VersionTLS12))
			}), "%"},
		Scalar{"S7a", "TLS 1.3 client support, Feb 2018", 0.5,
			pctOr(feb18, func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvTLS13]) }), "%"},
		Scalar{"S7b", "TLS 1.3 client support, Mar 2018", 9.8,
			pctOr(mar18, func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvTLS13]) }), "%"},
		Scalar{"S7c", "TLS 1.3 client support, Apr 2018", 23.6,
			pctOr(apr18, func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvTLS13]) }), "%"},
		Scalar{"S7d", "TLS 1.3 negotiated, Apr 2018", 1.3,
			pctOr(apr18, func(ms *notary.MonthStats) float64 {
				return legacyPctEstablished(ms, ms.ByVersion.Get(registry.VersionTLS13))
			}), "%"},
		Scalar{"S3c", "heartbeat negotiated, 2018", 3.0,
			pctOr(mar18, func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.HeartbeatAckN]) }), "%"},
		Scalar{"S-F3a", "3DES advertised, Mar 2018", 69,
			pctOr(mar18, func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.Adv3DES]) }), "%"},
		Scalar{"S-F7a", "export advertised, 2012", 28.19,
			pctOr(get(2012, time.June), func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvExport]) }), "%"},
		Scalar{"S-F7b", "export advertised, 2018", 1.03,
			pctOr(mar18, func(ms *notary.MonthStats) float64 { return legacyPct(ms, ms.N[notary.AdvExport]) }), "%"},
	)

	var est, nullNeg, anonNeg int
	for _, m := range agg.Months() {
		ms := agg.Stats(m)
		est += ms.N[notary.Established]
		nullNeg += ms.N[notary.NULLNegotiated]
		anonNeg += ms.N[notary.AnonNegotiated]
	}
	if est > 0 {
		out = append(out,
			Scalar{"S-61", "NULL negotiated, whole dataset", 2.84,
				100 * float64(nullNeg) / float64(est), "%"},
			Scalar{"S-62", "anonymous negotiated, whole dataset", 0.17,
				100 * float64(anonNeg) / float64(est), "%"},
		)
	}

	shares := legacyCurveSharesOverall(agg)
	lookup := func(c registry.CurveID) float64 {
		for _, s := range shares {
			if s.Curve == c {
				return s.Share
			}
		}
		return 0
	}
	out = append(out,
		Scalar{"S6a", "secp256r1 share, whole dataset", 84.4, lookup(registry.CurveSecp256r1), "%"},
		Scalar{"S6b", "secp384r1 share, whole dataset", 8.6, lookup(registry.CurveSecp384r1), "%"},
		Scalar{"S6c", "x25519 share, whole dataset", 6.7, lookup(registry.CurveX25519), "%"},
	)
	if feb18 != nil {
		grand := 0
		for _, n := range feb18.ByCurve.All() {
			grand += n
		}
		if grand > 0 {
			out = append(out, Scalar{"S6d", "x25519 share, Feb 2018", 22.2,
				100 * float64(feb18.ByCurve.Get(registry.CurveX25519)) / float64(grand), "%"})
		}
	}
	return out
}

// --- before/after benchmarks ---

// BenchmarkAllFiguresLegacy is the recorded pre-refactor baseline: all ten
// figures plus the extension figure, each series re-walking the aggregate
// maps.
func BenchmarkAllFiguresLegacy(b *testing.B) {
	agg := sharedAgg(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs := legacyAllFigures(agg)
		if len(figs) != 10 {
			b.Fatal("figure count")
		}
		_ = legacyExtensionUptake(agg)
	}
}

// BenchmarkAllFiguresFrame is the same workload on the frame path,
// including the frame build itself.
func BenchmarkAllFiguresFrame(b *testing.B) {
	agg := sharedAgg(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewFrame(agg)
		figs := f.Figures()
		if len(figs) != 10 {
			b.Fatal("figure count")
		}
		if _, ok := f.FigureByName("extensions"); !ok {
			b.Fatal("extensions figure")
		}
	}
}
