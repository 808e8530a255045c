package registry

import (
	"sort"
	"sync"
)

var (
	suiteOnce sync.Once
	// suiteSlot is dense over the uint16 code-point space, like classBitsTab:
	// 1 + the suite's index in suiteTable, 0 for unregistered code points.
	suiteSlot []uint16
)

// buildSuiteIndex fills suiteSlot. suiteTable's IDs are unique
// (TestSuiteTableNoDuplicates), so no slot is written twice.
func buildSuiteIndex() {
	suiteSlot = make([]uint16, 1<<16)
	for i, s := range suiteTable {
		suiteSlot[s.ID] = uint16(i + 1)
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

// AllSuites returns a copy of the full registry sorted by code point.
func AllSuites() []Suite {
	suiteOnce.Do(buildSuiteIndex)
	out := make([]Suite, len(suiteTable))
	copy(out, suiteTable)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
