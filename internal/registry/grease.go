package registry

// GREASE (Generate Random Extensions And Sustain Extensibility,
// draft-ietf-tls-grease) reserves sixteen code points of the form 0xNANA that
// Chrome-lineage clients inject into cipher-suite lists, extension lists,
// named-group lists and version lists to keep servers tolerant of unknown
// values. §4 of the paper strips GREASE values before fingerprinting; IsGREASE
// is the test every list walk that does so applies in place.

// IsGREASE reports whether v is one of the sixteen reserved GREASE code
// points (0x0A0A, 0x1A1A, ... 0xFAFA).
func IsGREASE(v uint16) bool {
	return v&0x0f0f == 0x0a0a && byte(v>>8) == byte(v)
}

// GREASEValues returns all sixteen GREASE code points in ascending order.
func GREASEValues() []uint16 {
	out := make([]uint16, 0, 16)
	for i := 0; i < 16; i++ {
		hi := uint16(i)<<4 | 0x0a
		out = append(out, hi<<8|hi)
	}
	return out
}
