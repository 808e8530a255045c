package registry

import (
	"math/bits"
	"sync"
)

// ClassBits is a bitmask of the suite classes the analysis pipeline
// classifies cipher lists on. It exists so the aggregation hot path can
// characterise a whole advertised list in a single pass over a dense
// (suite ID → bitmask) table instead of re-walking the list once per
// predicate.
type ClassBits uint16

// Class bits, one per classifier the monthly aggregation needs. GCM128 and
// GCM256 split ClassAEAD by key size for the Figure 10 breakdown.
const (
	ClassRC4 ClassBits = 1 << iota
	ClassDES
	Class3DES
	ClassAEAD
	ClassCBC
	ClassExport
	ClassAnon
	ClassNULL
	ClassGCM128
	ClassGCM256
	ClassChaCha
	ClassCCM

	// NumClassBits is the number of distinct class bits defined above.
	NumClassBits = 12
)

// Has reports whether any bit of c is set in b.
func (b ClassBits) Has(c ClassBits) bool { return b&c != 0 }

// classBitsOf decomposes one registered suite into its class bitmask. It is
// the single source of truth tying ClassBits to the Suite predicates.
func classBitsOf(s Suite) ClassBits {
	var b ClassBits
	if s.IsRC4() {
		b |= ClassRC4
	}
	if s.IsDES() {
		b |= ClassDES
	}
	if s.Is3DES() {
		b |= Class3DES
	}
	if s.IsAEAD() {
		b |= ClassAEAD
	}
	if s.IsCBC() {
		b |= ClassCBC
	}
	if s.IsExport() {
		b |= ClassExport
	}
	if s.IsAnon() {
		b |= ClassAnon
	}
	if s.IsNULLCipher() {
		b |= ClassNULL
	}
	if s.Mode == ModeGCM && s.Cipher == CipherAES128 {
		b |= ClassGCM128
	}
	if s.Mode == ModeGCM && s.Cipher == CipherAES256 {
		b |= ClassGCM256
	}
	if s.Cipher == CipherChaCha20 {
		b |= ClassChaCha
	}
	if s.Mode == ModeCCM || s.Mode == ModeCCM8 {
		b |= ClassCCM
	}
	return b
}

var (
	classBitsOnce sync.Once
	// classBitsTab is dense over the full uint16 code-point space (128 KiB):
	// unregistered and GREASE code points stay zero, so a lookup needs no
	// bounds logic and no map hashing.
	classBitsTab []ClassBits
)

func buildClassBitsTab() {
	tab := make([]ClassBits, 1<<16)
	for _, s := range suiteTable {
		tab[s.ID] = classBitsOf(s)
	}
	classBitsTab = tab
}

// SuiteClassBits returns the class bitmask of the suite registered under id,
// or 0 for unregistered code points (including GREASE values).
func SuiteClassBits(id uint16) ClassBits {
	classBitsOnce.Do(buildClassBitsTab)
	return classBitsTab[id]
}

// SuiteScan is the one-pass summary of a cipher-suite list: the union of all
// class bits present plus, per class bit, the index of the first suite in the
// list carrying it (-1 when absent). Indexes are positions in the list with
// its GREASE code points removed, so unknown code points still occupy a slot
// — the Figure 5 relative positions depend on that.
type SuiteScan struct {
	Bits  ClassBits
	first [NumClassBits]int32
}

// FirstIndex returns the index of the first suite carrying class bit c, or
// -1 when the list has none. c must be a single class bit.
func (sc *SuiteScan) FirstIndex(c ClassBits) int {
	return int(sc.first[bits.TrailingZeros16(uint16(c))])
}

// ScanSuitesNoGREASE characterises ids with its GREASE code points removed,
// in a single pass over the dense class table, and returns the length of that
// stripped list with it. GREASE code points are stepped over in place: no copy is made and
// nothing is allocated. A GREASE code point has no class bits, so the GREASE
// test only runs on the classless slots.
func ScanSuitesNoGREASE(ids []uint16) (sc SuiteScan, n int) {
	classBitsOnce.Do(buildClassBitsTab)
	for i := range sc.first {
		sc.first[i] = -1
	}
	tab := classBitsTab
	skipped := 0
	for i, id := range ids {
		b := tab[id]
		if b == 0 {
			if IsGREASE(id) {
				skipped++
			}
			continue
		}
		fresh := b &^ sc.Bits
		sc.Bits |= b
		for fresh != 0 {
			bit := fresh&(fresh-1) ^ fresh
			sc.first[bits.TrailingZeros16(uint16(bit))] = int32(i - skipped)
			fresh &^= bit
		}
	}
	return sc, len(ids) - skipped
}
