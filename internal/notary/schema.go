package notary

import "tlsage/internal/registry"

// The schema of MonthStats' plain counters: which counters a month has, the
// order the snapshot payload writes them in, and which Client Hello class
// bit bumps which. Everything that walks "every plain counter" — merge, the
// TLSN/TLSD codec, the analysis frame — loops over these tables, so adding a
// counter is one constant here, its bump site, and its query name in
// analysis.

// Counter indexes MonthStats.N.
type Counter uint8

const (
	Total       Counter = iota // all observed hellos
	Established                // established connections

	// Declaration order is the order the snapshot payload writes the counters
	// in — a wire fact since TLSN version 1. Append new counters (with a
	// version bump); never reorder.

	// Client advertisement counters (all observed hellos).
	AdvRC4
	AdvDES
	Adv3DES
	AdvAEAD
	AdvExport
	AdvAnon
	AdvNULL
	AdvAESGCM128
	AdvAESGCM256
	AdvChaCha
	AdvCCM
	AdvTLS13
	OffersHeartbeatN
	// Negotiated side (established connections only).
	HeartbeatAckN
	NULLNegotiated
	AnonNegotiated
	ExportNegotiated
	UnofferedChoice
	// Hellos in the SSLv2-compatible framing (all observed hellos).
	SSLv2Hellos

	NumCounters
)

// payloadSplit divides N on the wire: the payload writes the counters before
// it ahead of the month's keyed tables and the rest after them.
const payloadSplit = AdvRC4

// advCounters pairs each suite-class bit of a Client Hello's cipher list with
// the advertisement counter it bumps.
var advCounters = [...]struct {
	bit registry.ClassBits
	c   Counter
}{
	{registry.ClassRC4, AdvRC4},
	{registry.ClassDES, AdvDES},
	{registry.Class3DES, Adv3DES},
	{registry.ClassAEAD, AdvAEAD},
	{registry.ClassExport, AdvExport},
	{registry.ClassAnon, AdvAnon},
	{registry.ClassNULL, AdvNULL},
	{registry.ClassGCM128, AdvAESGCM128},
	{registry.ClassGCM256, AdvAESGCM256},
	{registry.ClassChaCha, AdvChaCha},
	{registry.ClassCCM, AdvCCM},
}

// PosClass is a Figure 5 suite class and indexes MonthStats.Pos. The classes
// are declared in the sorted order of their payload names, so walking the
// enum writes the payload's name-keyed position tables in the sorted-key
// order the format requires.
type PosClass uint8

const (
	Pos3DES PosClass = iota
	PosAEAD
	PosCBC
	PosDES
	PosRC4

	NumPosClasses
)

// posClasses gives each position class its payload name and the class bit
// whose first list index is its position.
var posClasses = [NumPosClasses]struct {
	name string
	bit  registry.ClassBits
}{
	Pos3DES: {"3DES", registry.Class3DES},
	PosAEAD: {"AEAD", registry.ClassAEAD},
	PosCBC:  {"CBC", registry.ClassCBC},
	PosDES:  {"DES", registry.ClassDES},
	PosRC4:  {"RC4", registry.ClassRC4},
}

// String returns the class's payload name.
func (c PosClass) String() string { return posClasses[c].name }

// ParsePosClass returns the position class with payload name s.
func ParsePosClass(s string) (PosClass, bool) {
	for c := range posClasses {
		if posClasses[c].name == s {
			return PosClass(c), true
		}
	}
	return 0, false
}
