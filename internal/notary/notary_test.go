package notary

import (
	"slices"
	"strings"
	"testing"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
	"tlsage/internal/wire"
)

func sampleRecord() *Record {
	return withHello(&Record{
		Date:            timeline.D(2015, time.June, 3),
		ClientVersion:   registry.VersionTLS12,
		OffersHeartbeat: true,
		Established:     true,
		Version:         registry.VersionTLS12,
		Suite:           0xC02F,
		Curve:           registry.CurveSecp256r1,
		HeartbeatAck:    true,
		ServerCohort:    "modern-ecdhe",
	}, Hello{
		Suites:            []uint16{0xC02F, 0xC013, 0x0005, 0x000A},
		Extensions:        []registry.ExtensionID{registry.ExtServerName, registry.ExtSupportedGroups},
		Curves:            []registry.CurveID{registry.CurveSecp256r1},
		PointFmts:         []registry.ECPointFormat{registry.PointFormatUncompressed},
		SupportedVersions: []registry.Version{registry.VersionTLS13Google, registry.VersionTLS12},
		Fingerprint:       "fp-test",
		Truth:             "Chrome",
	})
}

// testHellos interns the hellos tests build (the tests of this package run
// one at a time), so records built alike share a row, as decoded ones do.
var testHellos HelloTable

// withHello points r's offered side at h and returns r.
func withHello(r *Record, h Hello) *Record {
	testHellos.Intern(r, &h)
	return r
}

// editHello points r at the hello edit makes of a copy of r's, and returns r.
// The copy's lists are r's own copies: edit may write through them.
func editHello(r *Record, edit func(*Hello)) *Record {
	h := r.row().Hello
	h.Suites, h.Extensions, h.Curves = slices.Clone(h.Suites), slices.Clone(h.Extensions), slices.Clone(h.Curves)
	h.PointFmts, h.SupportedVersions = slices.Clone(h.PointFmts), slices.Clone(h.SupportedVersions)
	edit(&h)
	return withHello(r, h)
}

// parseTSV parses one log line, with or without its terminator, into a
// fresh record.
func parseTSV(line string) (Record, error) {
	var r Record
	err := parseTSVLine(&r, []byte(strings.TrimSuffix(line, "\n")), newDecodeTables())
	return r, err
}

func TestObserveWireTLS(t *testing.T) {
	ch := &wire.ClientHello{
		Version:      registry.VersionTLS12,
		CipherSuites: []uint16{0xC02F, 0x0005},
		Extensions: []wire.Extension{
			wire.NewSupportedGroupsExtension([]registry.CurveID{registry.CurveX25519}),
			wire.NewHeartbeatExtension(1),
			wire.NewSupportedVersionsExtension([]registry.Version{registry.VersionTLS13Draft18}),
		},
	}
	var r Record
	var h Hello
	if err := r.ObserveWire(ch.AppendRecord(nil), &h); err != nil {
		t.Fatal(err)
	}
	if r.ClientVersion != registry.VersionTLS12 || len(h.Suites) != 2 {
		t.Errorf("observed %+v, %+v", r, h)
	}
	if !r.OffersHeartbeat {
		t.Error("extension observation broken")
	}
	if v := shapeOf(h.Suites, h.Extensions, h.SupportedVersions, nil).variant; v != registry.VersionTLS13Draft18 {
		t.Errorf("variant = %v", v)
	}
	if len(h.Curves) != 1 || h.Curves[0] != registry.CurveX25519 {
		t.Error("curves not observed")
	}
}

func TestObserveWireSSLv2(t *testing.T) {
	v2 := &wire.SSLv2ClientHello{
		Version:     registry.VersionSSL2,
		CipherSpecs: []uint32{0x010080, 0x000005},
		Challenge:   make([]byte, 16),
	}
	raw := v2.Append(nil)
	var r Record
	h := sampleRecord().row().Hello // lists an SSLv2 hello has none of
	if err := r.ObserveWire(raw, &h); err != nil {
		t.Fatal(err)
	}
	if !r.SSLv2Hello || !slices.Equal(h.Suites, []uint16{0x0005}) || len(h.Extensions)+len(h.Curves)+len(h.PointFmts)+len(h.SupportedVersions) != 0 {
		t.Errorf("sslv2 observation: %+v, %+v", r, h)
	}
}

func TestObserveWireRejectsGarbage(t *testing.T) {
	record := func(typ wire.ContentType, payload []byte) []byte {
		return wire.AppendRecord(nil, typ, registry.VersionTLS10, payload)
	}
	for name, raw := range map[string][]byte{
		"a truncated record":           {0x16, 0x03},
		"an alert record":              record(wire.ContentAlert, []byte{2, 40}),
		"an SSLv2 hello cut short":     {0x80, 0x03, 0x01},
		"a handshake header cut short": record(wire.ContentHandshake, []byte{1, 0}),
		"a ServerHello":                record(wire.ContentHandshake, wire.AppendHandshake(nil, wire.TypeServerHello, nil)),
		"a ClientHello body cut short": record(wire.ContentHandshake, wire.AppendHandshake(nil, wire.TypeClientHello, []byte{3})),
	} {
		var r Record
		if err := r.ObserveWire(raw, &Hello{}); err == nil {
			t.Errorf("%s observed as a hello", name)
		}
	}
}

func TestAggregateCounters(t *testing.T) {
	agg := NewAggregate()
	r1 := sampleRecord()
	agg.Add(r1)
	r2 := sampleRecord()
	r2.Established = false
	r2.AlertDesc = 40
	editHello(r2, func(h *Hello) { h.Fingerprint = "fp-other" })
	agg.Add(r2)

	months := agg.Months()
	if len(months) != 1 {
		t.Fatalf("months = %v", months)
	}
	ms := agg.Stats(months[0])
	if ms.N[Total] != 2 || ms.N[Established] != 1 {
		t.Fatalf("total=%d established=%d", ms.N[Total], ms.N[Established])
	}
	if ms.ByVersion.Get(registry.VersionTLS12) != 1 {
		t.Error("version counter")
	}
	if ms.ByClass["AEAD"] != 1 {
		t.Error("class counter")
	}
	if ms.ByKex.Get(registry.KexECDHE) != 1 {
		t.Error("kex counter")
	}
	if ms.N[AdvRC4] != 2 || ms.N[Adv3DES] != 2 || ms.N[AdvAEAD] != 2 {
		t.Error("advertisement counters")
	}
	if ms.N[AdvTLS13] != 2 || ms.TLS13Variant.Get(registry.VersionTLS13Google) != 2 {
		t.Error("TLS 1.3 advertisement counters")
	}
	if ms.N[OffersHeartbeatN] != 2 || ms.N[HeartbeatAckN] != 1 {
		t.Error("heartbeat counters")
	}
	if ms.ByCurve.Get(registry.CurveSecp256r1) != 1 {
		t.Error("curve counter")
	}
	if len(ms.FPs) != 2 {
		t.Error("fingerprint tracking")
	}
}

func TestFigure5Positions(t *testing.T) {
	agg := NewAggregate()
	// AEAD at position 0, CBC at 1, RC4 at 2, 3DES at 3 of a 4-suite list.
	r := withHello(&Record{
		Date:          timeline.D(2015, time.January, 10),
		ClientVersion: registry.VersionTLS12,
	}, Hello{Suites: []uint16{0xC02F, 0xC013, 0x0005, 0x000A}})
	agg.Add(r)
	ms := agg.Stats(timeline.M(2015, time.January))
	if got := ms.Pos[PosAEAD].Sum / float64(ms.Pos[PosAEAD].Count); got != 0 {
		t.Errorf("AEAD position = %v", got)
	}
	if got := ms.Pos[PosCBC].Sum / float64(ms.Pos[PosCBC].Count); got < 0.32 || got > 0.35 {
		t.Errorf("CBC position = %v, want 1/3", got)
	}
	if got := ms.Pos[Pos3DES].Sum / float64(ms.Pos[Pos3DES].Count); got != 1 {
		t.Errorf("3DES position = %v, want 1 (bottom)", got)
	}
	// Note: the CBC class includes the 3DES suite, but the *first* CBC suite
	// is the AES one at index 1.
}

func TestFPDurations(t *testing.T) {
	agg := NewAggregate()
	mk := func(day int, fp string) *Record {
		return withHello(&Record{
			Date:          timeline.D(2015, time.June, day),
			ClientVersion: registry.VersionTLS12,
		}, Hello{Suites: []uint16{0x002F}, Fingerprint: fp})
	}
	agg.Add(mk(1, "long"))
	agg.Add(mk(20, "long"))
	agg.Add(mk(5, "short"))
	durs := agg.FPDurations()
	if len(durs) != 2 {
		t.Fatalf("durations = %v", durs)
	}
	byFP := map[string]FPDuration{}
	for _, d := range durs {
		byFP[d.Fingerprint] = d
	}
	if byFP["long"].Days != 20 || byFP["long"].Connections != 2 {
		t.Errorf("long: %+v", byFP["long"])
	}
	if byFP["short"].Days != 1 {
		t.Errorf("short: %+v", byFP["short"])
	}
}
