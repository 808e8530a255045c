package registry

import (
	"math/rand"
	"testing"
)

// The predicate walkers below are what the aggregation hot path called before
// the dense class-bit table: one list walk per question, one registry lookup
// per code point. They stay as the oracle ScanSuitesNoGREASE is held to.

// StripGREASE16 returns a copy of values with every GREASE code point
// removed: the list ScanSuitesNoGREASE characterises without copying.
func StripGREASE16(values []uint16) []uint16 {
	out := make([]uint16, 0, len(values))
	for _, v := range values {
		if !IsGREASE(v) {
			out = append(out, v)
		}
	}
	return out
}

// Classify buckets a raw code-point list using the registry. Unknown and
// signalling (SCSV) code points are ignored, matching how the Notary analysis
// treats them. The returned map is keyed by TrafficClass.
func Classify(ids []uint16) map[string]int {
	out := make(map[string]int, 4)
	for _, id := range ids {
		s, ok := SuiteByID(id)
		if !ok || id == 0x00FF || id == 0x5600 {
			continue
		}
		out[s.TrafficClass()]++
	}
	return out
}

// ListHas reports whether any suite in ids satisfies pred. Unregistered code
// points never match.
func ListHas(ids []uint16, pred func(Suite) bool) bool {
	for _, id := range ids {
		if s, ok := SuiteByID(id); ok && pred(s) {
			return true
		}
	}
	return false
}

// FirstIndexWhere returns the index of the first suite in ids satisfying
// pred, or -1. Figure 5 of the paper is built on this: the relative position
// of the first AEAD/CBC/RC4/DES/3DES suite in the advertised list.
func FirstIndexWhere(ids []uint16, pred func(Suite) bool) int {
	for i, id := range ids {
		if s, ok := SuiteByID(id); ok && pred(s) {
			return i
		}
	}
	return -1
}

// classPredicates maps each class bit to the closure predicate it replaces.
var classPredicates = []struct {
	name string
	bit  ClassBits
	pred func(Suite) bool
}{
	{"RC4", ClassRC4, Suite.IsRC4},
	{"DES", ClassDES, Suite.IsDES},
	{"3DES", Class3DES, Suite.Is3DES},
	{"AEAD", ClassAEAD, Suite.IsAEAD},
	{"CBC", ClassCBC, Suite.IsCBC},
	{"Export", ClassExport, Suite.IsExport},
	{"Anon", ClassAnon, Suite.IsAnon},
	{"NULL", ClassNULL, Suite.IsNULLCipher},
	{"GCM128", ClassGCM128, func(s Suite) bool { return s.Mode == ModeGCM && s.Cipher == CipherAES128 }},
	{"GCM256", ClassGCM256, func(s Suite) bool { return s.Mode == ModeGCM && s.Cipher == CipherAES256 }},
	{"ChaCha", ClassChaCha, func(s Suite) bool { return s.Cipher == CipherChaCha20 }},
	{"CCM", ClassCCM, func(s Suite) bool { return s.Mode == ModeCCM || s.Mode == ModeCCM8 }},
}

// Every registered suite's bitmask must agree with the predicates bit by bit.
func TestSuiteClassBitsMatchPredicates(t *testing.T) {
	for _, s := range AllSuites() {
		got := SuiteClassBits(s.ID)
		for _, cp := range classPredicates {
			if got.Has(cp.bit) != cp.pred(s) {
				t.Errorf("%s: class %s bit = %v, predicate = %v",
					s.Name, cp.name, got.Has(cp.bit), cp.pred(s))
			}
		}
	}
}

func TestSuiteClassBitsUnknownAndGREASE(t *testing.T) {
	if got := SuiteClassBits(0x0a0a); got != 0 {
		t.Errorf("GREASE code point has class bits %b", got)
	}
	if got := SuiteClassBits(0xfffe); got != 0 {
		t.Errorf("unregistered code point has class bits %b", got)
	}
}

// randomSuiteList mixes registered suites, GREASE values and unknown code
// points, the way real advertised lists do.
func randomSuiteList(rnd *rand.Rand, all []Suite) []uint16 {
	n := rnd.Intn(40)
	out := make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		switch rnd.Intn(10) {
		case 0:
			out = append(out, GREASEValues()[rnd.Intn(16)])
		case 1:
			out = append(out, uint16(0xf000+rnd.Intn(0x100))) // unregistered
		default:
			out = append(out, all[rnd.Intn(len(all))].ID)
		}
	}
	return out
}

// ScanSuitesNoGREASE over random lists must agree with ListHas and
// FirstIndexWhere over the GREASE-stripped copy, for every class.
func TestScanSuitesEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	all := AllSuites()
	for trial := 0; trial < 500; trial++ {
		raw := randomSuiteList(rnd, all)
		ids := StripGREASE16(raw)
		scan, n := ScanSuitesNoGREASE(raw)
		if n != len(ids) {
			t.Fatalf("trial %d: %d slots counted, stripped list has %d (ids %04x)", trial, n, len(ids), raw)
		}
		for _, cp := range classPredicates {
			if got, want := scan.Bits.Has(cp.bit), ListHas(ids, cp.pred); got != want {
				t.Fatalf("trial %d class %s: Bits.Has = %v, ListHas = %v (ids %04x)",
					trial, cp.name, got, want, ids)
			}
			if got, want := scan.FirstIndex(cp.bit), FirstIndexWhere(ids, cp.pred); got != want {
				t.Fatalf("trial %d class %s: FirstIndex = %d, FirstIndexWhere = %d (ids %04x)",
					trial, cp.name, got, want, ids)
			}
		}
	}
	// A browser's list of the RC4 era: RC4 offered, no export suite.
	t.Run("client-offers", func(t *testing.T) {
		if scan, _ := ScanSuitesNoGREASE([]uint16{0xC02F, 0xC013, 0x0005, 0x000A}); !scan.Bits.Has(ClassRC4) || scan.Bits.Has(ClassExport) {
			t.Errorf("class bits %b: want RC4 and no export", scan.Bits)
		}
	})
}

// Scanning in place equals scanning the stripped copy, without the copy.
func TestScanSuitesNoGREASEMatchesStrippedScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(43))
	all := AllSuites()
	for trial := 0; trial < 500; trial++ {
		ids := randomSuiteList(rnd, all)
		stripped := StripGREASE16(ids)
		got, n := ScanSuitesNoGREASE(ids)
		if want, wantN := ScanSuitesNoGREASE(stripped); got != want || n != wantN || n != len(stripped) {
			t.Fatalf("trial %d: scan %+v over %d slots, want %+v over %d (ids %04x)",
				trial, got, n, want, len(stripped), ids)
		}
	}
	list := []uint16{0x1a1a, 0x1301, 0xc02f, 0x2a2a, 0x000a}
	if got := testing.AllocsPerRun(200, func() { _, _ = ScanSuitesNoGREASE(list) }); got != 0 {
		t.Errorf("ScanSuitesNoGREASE: %v allocs/run, want 0", got)
	}
}

// Allocation-regression guard for the aggregation hot path.
func TestScanSuitesAllocs(t *testing.T) {
	list := []uint16{0x1a1a, 0x1301, 0xc02f, 0x009c, 0x002f, 0x000a, 0xcca8}
	ScanSuitesNoGREASE(list) // build the table outside the measured runs
	if got := testing.AllocsPerRun(200, func() {
		_, _ = ScanSuitesNoGREASE(list)
	}); got > 1 {
		t.Errorf("ScanSuitesNoGREASE: %v allocs/run, want ≤ 1", got)
	}
}
