package notary

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// In steady state — the month and the fingerprint already known to the
// aggregate — Add allocates nothing, with or without GREASE in the hello.
func TestAddAllocFree(t *testing.T) {
	plain := sampleRecord()
	grease := editHello(sampleRecord(), func(h *Hello) {
		h.Suites = append(append([]uint16{0x0a0a}, h.Suites...), 0xfafa)
		h.Extensions = append([]registry.ExtensionID{0x2a2a}, h.Extensions...)
		h.SupportedVersions = append([]registry.Version{0x3a3a}, h.SupportedVersions...)
		h.Fingerprint = "fp-grease"
	})

	for _, tc := range []struct {
		name string
		rec  *Record
	}{{"plain", plain}, {"grease", grease}} {
		agg := NewAggregate()
		agg.SetClassifier(testClassifier{mark: "fp"})
		agg.Add(tc.rec)
		if got := testing.AllocsPerRun(200, func() { agg.Add(tc.rec) }); got != 0 {
			t.Errorf("%s hello: Add allocates %v per record in steady state, want 0", tc.name, got)
		}
		ms := agg.Stats(timeline.MonthOf(tc.rec.Date))
		if ms.N[Total] != 202 || ms.ByClientClass["Class fp"] != 202 {
			t.Errorf("%s hello: Total %d, attributed %d, want 202 each", tc.name, ms.N[Total], ms.ByClientClass["Class fp"])
		}
	}
}

// The GREASE-skipping scan counts and positions exactly what the stripped
// copy did: a hello with GREASE sprinkled through it aggregates like the
// same hello without it.
func TestAddIgnoresGREASEInPlace(t *testing.T) {
	clean := withHello(&Record{Date: timeline.D(2017, time.March, 1), ClientVersion: registry.VersionTLS12}, Hello{
		Suites:            []uint16{0xC02F, 0xC013, 0x0005, 0x000A},
		Extensions:        []registry.ExtensionID{registry.ExtServerName, registry.ExtALPN},
		SupportedVersions: []registry.Version{registry.VersionTLS13Draft18},
	})
	greased := withHello(clean.Clone(), Hello{
		Suites:            []uint16{0x0a0a, 0xC02F, 0x1a1a, 0xC013, 0x0005, 0xfafa, 0x000A, 0x2a2a},
		Extensions:        []registry.ExtensionID{0x4a4a, registry.ExtServerName, 0x5a5a, registry.ExtALPN},
		SupportedVersions: []registry.Version{0x6a6a, registry.VersionTLS13Draft18},
	})

	want, got := NewAggregate(), NewAggregate()
	want.Add(clean)
	got.Add(greased)
	m := timeline.M(2017, time.March)
	w, g := want.Stats(m), got.Stats(m)
	for _, class := range []PosClass{PosAEAD, PosCBC, PosRC4, Pos3DES} {
		if w.Pos[class] != g.Pos[class] {
			t.Errorf("%v position: greased %+v, clean %+v", class, g.Pos[class], w.Pos[class])
		}
	}
	if g.ByExtension.Len() != 2 || g.ByExtension.Get(registry.ExtALPN) != 1 {
		t.Errorf("greased hello counted %d extensions, want the 2 real ones", g.ByExtension.Len())
	}
	if g.N[AdvRC4] != 1 || g.N[Adv3DES] != 1 || g.N[AdvAEAD] != 1 || g.N[AdvTLS13] != 1 {
		t.Error("greased hello lost an advertisement counter")
	}
}

// A classifier installed after a snapshot decode attributes records of the
// fingerprints the snapshot already held; records that arrived while no
// classifier was set stay unattributed.
func TestSetClassifierAfterDecode(t *testing.T) {
	rec := editHello(sampleRecord(), func(h *Hello) { h.Fingerprint = "fp-known" })
	src := NewAggregate()
	src.Add(rec)
	agg, err := DecodeSnapshot(EncodeSnapshot(nil, src))
	if err != nil {
		t.Fatal(err)
	}

	agg.Add(rec) // still no classifier: counted, never attributed
	ms := agg.Stats(timeline.MonthOf(rec.Date))
	if len(ms.ByClientClass) != 0 {
		t.Fatalf("attributed %v with no classifier", ms.ByClientClass)
	}

	agg.SetClassifier(testClassifier{mark: "known"})
	agg.Add(rec)
	if got := ms.ByClientClass["Class known"]; got != 1 {
		t.Errorf("ByClientClass = %d after one classified record of a decoded fingerprint, want 1", got)
	}
	if ms.FPs["fp-known"].Count != 3 || ms.N[Total] != 3 {
		t.Errorf("FPs count %d, Total %d, want 3 each", ms.FPs["fp-known"].Count, ms.N[Total])
	}

	// Swapping the classifier re-resolves too; clearing it stops attribution.
	agg.SetClassifier(testClassifier{mark: "fp"})
	agg.Add(rec)
	agg.SetClassifier(nil)
	agg.Add(rec)
	if ms.ByClientClass["Class known"] != 1 || ms.ByClientClass["Class fp"] != 1 || len(ms.ByClientClass) != 2 {
		t.Errorf("after swapping and clearing the classifier: %v", ms.ByClientClass)
	}
}

// BenchmarkAggregateAdd is the ingest inner loop the service runs: records
// are folded into a private shard, which is merged into the standing
// aggregate every 4096 records (the default flush) or every 256 (a live
// feeder's stream). The plain runs add records held in memory, on the rows
// of the table they were built through; the decoded runs read the same records from a TLSB
// stream straight into the shard, so their time is BenchmarkIngestBinary's
// decode plus an Add that folds the decoder's rows; the built runs read that
// stream into a ShardBuilder, as the service does, which folds each row once
// per flush.
func BenchmarkAggregateAdd(b *testing.B) {
	recs := benchIngestRecordSet()
	stream := encodeBatch(recs)
	for _, mode := range []string{"", "decoded-", "built-"} {
		for _, shard := range []int{4096, 256} {
			b.Run(fmt.Sprintf("%sshard%d", mode, shard), func(b *testing.B) {
				cls := testClassifier{mark: "a"}
				newShard := func() *Aggregate {
					sh := NewAggregate()
					sh.SetClassifier(cls)
					return sh
				}
				standing := newShard()
				var sh *Aggregate
				built := NewShardBuilder(newShard)
				n := 0
				add := SinkFunc(func(r *Record) error {
					if mode == "built-" {
						built.Add(r)
						if n++; n%shard == 0 || n == len(recs) {
							standing.Merge(built.Flush())
						}
						return nil
					}
					if n%shard == 0 {
						sh = newShard()
					}
					sh.Add(r)
					if n++; n%shard == 0 || n == len(recs) {
						standing.Merge(sh)
					}
					return nil
				})
				rd := bytes.NewReader(nil)
				pass := func() {
					n = 0
					if mode != "" {
						rd.Reset(stream)
						if _, _, err := ReadBatches(rd, add); err != nil {
							b.Fatal(err)
						}
						return
					}
					for _, r := range recs {
						add(r)
					}
				}
				pass() // months and fingerprints at their steady size
				b.ReportAllocs()
				var ms0, ms1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				total := float64(b.N * len(recs))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/record")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/total, "allocs/record")
			})
		}
	}
}
