package notary

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// randomRecord builds a synthetic but internally consistent Record: the
// fingerprint, when present, is a hash of the advertised list, exactly as the
// real fingerprinting pipeline derives it — so FPCaps are a function of the
// fingerprint and partitioning cannot change them.
func randomRecord(rnd *rand.Rand, all []registry.Suite) *Record {
	r, h := randomParts(rnd, all)
	return withHello(r, h)
}

// randomParts is randomRecord with its hello not yet interned.
func randomParts(rnd *rand.Rand, all []registry.Suite) (*Record, Hello) {
	n := 1 + rnd.Intn(25)
	suites := make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		switch rnd.Intn(12) {
		case 0:
			suites = append(suites, registry.GREASEValues()[rnd.Intn(16)])
		case 1:
			suites = append(suites, uint16(0xf100+rnd.Intn(64)))
		default:
			suites = append(suites, all[rnd.Intn(len(all))].ID)
		}
	}
	r := &Record{
		Date: timeline.Date{
			Year:  2012 + rnd.Intn(6),
			Month: time.Month(1 + rnd.Intn(12)),
			Day:   1 + rnd.Intn(28),
		},
		ClientVersion: registry.VersionTLS12,
		SSLv2Hello:    rnd.Intn(50) == 0,
	}
	h := Hello{Suites: suites}
	if rnd.Intn(3) > 0 {
		h.Fingerprint = fmt.Sprintf("fp-%x", suites)
	}
	if rnd.Intn(4) > 0 {
		r.Established = true
		r.Version = registry.VersionTLS12
		r.Suite = all[rnd.Intn(len(all))].ID
		r.Curve = registry.CurveSecp256r1
		r.HeartbeatAck = rnd.Intn(10) == 0
		r.SuiteUnoffer = rnd.Intn(20) == 0
	}
	if rnd.Intn(8) == 0 {
		h.SupportedVersions = []registry.Version{registry.VersionTLS13}
	}
	r.OffersHeartbeat = rnd.Intn(6) == 0
	h.Extensions = []registry.ExtensionID{registry.ExtensionID(rnd.Intn(4))}
	return r, h
}

// testClassifier is a stub notary.Classifier: fingerprints with a mapped
// class attribute there, everything else is unknown. The merge property must
// hold whether or not records classify, so the harness attributes roughly a
// third of the random fingerprints.
type testClassifier struct{ mark string }

func (c testClassifier) ClassOf(fp string) (string, bool) {
	if strings.Contains(fp, c.mark) {
		return "Class " + c.mark, true
	}
	return "", false
}

// Merging aggregates built from any partition of a record stream must equal
// the aggregate built from the whole stream — including FPDurations
// first/last dates, the Pos position accumulators, and the ByClientClass
// attribution map filled by a classifier.
func TestMergeEqualsSingleStreamAdd(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	all := registry.AllSuites()
	for trial := 0; trial < 25; trial++ {
		recs := make([]*Record, 300+rnd.Intn(300))
		for i := range recs {
			recs[i] = randomRecord(rnd, all)
		}
		// Half the trials attribute fingerprints, so the merge property is
		// pinned with ByClientClass both empty and populated.
		var cls Classifier
		if trial%2 == 0 {
			cls = testClassifier{mark: "a"}
		}

		want := NewAggregate()
		want.SetClassifier(cls)
		for _, r := range recs {
			want.Add(r)
		}

		parts := make([]*Aggregate, 1+rnd.Intn(6))
		for i := range parts {
			parts[i] = NewAggregate()
			parts[i].SetClassifier(cls)
		}
		for _, r := range recs {
			parts[rnd.Intn(len(parts))].Add(r)
		}
		// One month also holds a key touched with a zero delta (what a scan
		// campaign with no answers leaves behind). Like a map entry it is
		// present, and presence is content: it must survive Merge and the
		// codec.
		zeroMonth, zeroKey := timeline.MonthOf(recs[0].Date), registry.CurveID(0xfeed)
		for _, a := range []*Aggregate{want, parts[0]} {
			a.UpdateMonth(zeroMonth, 0, func(ms *MonthStats) { ms.ByCurve.Add(zeroKey, 0) })
		}
		got := NewAggregate()
		got.SetClassifier(cls)
		for _, p := range parts {
			got.Merge(p)
		}

		// Pos[c].Sum accumulates idx/(n-1) terms, and float addition is not
		// associative, so an arbitrary within-month partition may differ in
		// the last bits. Compare it with an epsilon, everything else exactly.
		// (The sharded simulation pipeline itself shards at month granularity
		// and is therefore byte-identical — core's
		// TestStudyRunIdenticalAcrossWorkers/aggregate-at-every-width and
		// simulate's TestCorpusDigest assert that.)
		for _, m := range want.Months() {
			wms, gms := want.Stats(m), got.Stats(m)
			if gms == nil {
				t.Fatalf("trial %d: month %v missing after merge", trial, m)
			}
			for c := range wms.Pos {
				if diff := math.Abs(wms.Pos[c].Sum - gms.Pos[c].Sum); diff > 1e-9 {
					t.Fatalf("trial %d: month %v Pos[%v].Sum off by %g", trial, m, PosClass(c), diff)
				}
				gms.Pos[c].Sum = wms.Pos[c].Sum
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (%d records, %d shards): merged aggregate differs from single-stream Add",
				trial, len(recs), len(parts))
		}
		if !reflect.DeepEqual(want.FPDurations(), got.FPDurations()) {
			t.Fatalf("trial %d: FPDurations differ after merge", trial)
		}
		back, err := DecodeSnapshot(EncodeSnapshot(nil, got))
		if err != nil {
			t.Fatalf("trial %d: merged aggregate does not decode: %v", trial, err)
		}
		back.SetClassifier(cls)
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("trial %d: merged aggregate changed across encode/decode", trial)
		}
		for name, a := range map[string]*Aggregate{"merged": got, "decoded": back} {
			if c := &a.Stats(zeroMonth).ByCurve; !c.Has(zeroKey) || c.Get(zeroKey) != 0 {
				t.Fatalf("trial %d: %s aggregate lost the present-but-zero key", trial, name)
			}
			// The frame ranks the fp: family from the lifetime rows and fills
			// it from the month rows: the two must tell one story.
			monthly := make(map[string]int64)
			for _, m := range a.Months() {
				for fp, caps := range a.Stats(m).FPs {
					monthly[fp] += int64(caps.Count)
				}
			}
			for fp, conns := range a.FingerprintVolumes() {
				if monthly[fp] != conns {
					t.Fatalf("trial %d: %s aggregate: %q has %d lifetime connections, %d over its months", trial, name, fp, conns, monthly[fp])
				}
			}
			for range a.FingerprintVolumes() {
				break // the range panics if the iterator yields again
			}
			if len(monthly) != a.NumFingerprints() || len(monthly) == 0 {
				t.Fatalf("trial %d: %s aggregate: %d fingerprints over the months, %d lifetime rows", trial, name, len(monthly), a.NumFingerprints())
			}
		}
		if cls != nil {
			attributed := 0
			for _, m := range want.Months() {
				for _, n := range want.Stats(m).ByClientClass {
					attributed += n
				}
			}
			if attributed == 0 {
				t.Fatalf("trial %d: classified trial attributed nothing — vacuous", trial)
			}
		}
	}
}
