package registry

import (
	"fmt"
	"sort"
	"sync"
)

var (
	suiteOnce sync.Once
	// suiteSlot is dense over the uint16 code-point space, like classBitsTab:
	// 1 + the suite's index in suiteTable, 0 for unregistered code points.
	suiteSlot   []uint16
	suiteByName map[string]uint16
)

func buildSuiteIndex() {
	suiteSlot = make([]uint16, 1<<16)
	suiteByName = make(map[string]uint16, len(suiteTable))
	for i, s := range suiteTable {
		if suiteSlot[s.ID] != 0 {
			panic(fmt.Sprintf("registry: duplicate suite id %#04x", s.ID))
		}
		suiteSlot[s.ID] = uint16(i + 1)
		suiteByName[s.Name] = s.ID
	}
}

// SuiteByID returns the suite registered under id. The second return is false
// for unregistered code points (including GREASE values).
func SuiteByID(id uint16) (Suite, bool) {
	suiteOnce.Do(buildSuiteIndex)
	slot := suiteSlot[id]
	if slot == 0 {
		return Suite{}, false
	}
	return suiteTable[slot-1], true
}

// MustSuite returns the suite registered under id and panics if unknown.
// Intended for static client/server profile tables, where an unknown ID is a
// programming error.
func MustSuite(id uint16) Suite {
	s, ok := SuiteByID(id)
	if !ok {
		panic(fmt.Sprintf("registry: unknown cipher suite %#04x", id))
	}
	return s
}

// SuiteIDByName resolves a suite name ("TLS_RSA_WITH_RC4_128_SHA") to its
// code point.
func SuiteIDByName(name string) (uint16, bool) {
	suiteOnce.Do(buildSuiteIndex)
	id, ok := suiteByName[name]
	return id, ok
}

// AllSuites returns a copy of the full registry sorted by code point.
func AllSuites() []Suite {
	suiteOnce.Do(buildSuiteIndex)
	out := make([]Suite, len(suiteTable))
	copy(out, suiteTable)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumSuites reports the size of the registry.
func NumSuites() int { return len(suiteTable) }

// SuitesWhere returns the code points of all registered suites matching pred,
// sorted ascending.
func SuitesWhere(pred func(Suite) bool) []uint16 {
	var out []uint16
	for _, s := range AllSuites() {
		if pred(s) {
			out = append(out, s.ID)
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
