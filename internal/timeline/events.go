package timeline

import "time"

// Event is a dated occurrence that shaped the TLS ecosystem: an attack
// disclosure, a revelation, an RFC, or a coordinated browser change. The
// population models consult these dates; the figure renderers draw them as
// the vertical lines of Figures 1, 2, 6 and 8.
type Event struct {
	Name string
	Date Date
	// Kind classifies the event for rendering and for model hooks.
	Kind EventKind
	// Note is a one-line description.
	Note string
}

// EventKind classifies events.
type EventKind uint8

// Event kinds.
const (
	KindAttack EventKind = iota
	KindRevelation
	KindStandard
	KindBrowserChange
)

// Canonical event names, the Name of each entry of Events().
const (
	EventBEAST        = "BEAST"
	EventLucky13      = "Lucky13"
	EventRC4          = "RC4"
	EventSnowden      = "Snowden"
	EventHeartbleed   = "Heartbleed"
	EventPOODLE       = "POODLE"
	EventFREAK        = "FREAK"
	EventLogjam       = "Logjam"
	EventRC4Passwords = "RC4 passwords"
	EventRC4NoMore    = "RC4 no more"
	EventSweet32      = "Sweet32"
	EventRFC7465      = "RFC-7465"
)

// events is the master catalogue, ordered by date. Disclosure dates follow
// §2.2 of the paper verbatim.
var events = []Event{
	{EventBEAST, D(2011, time.September, 6), KindAttack, "CBC chosen-plaintext attack on TLS ≤1.0"},
	{EventLucky13, D(2012, time.December, 6), KindAttack, "CBC-mode timing attack"},
	{EventRC4, D(2013, time.March, 12), KindAttack, "AlFardan et al. RC4 biases"},
	{EventSnowden, D(2013, time.June, 6), KindRevelation, "mass-surveillance revelations; forward secrecy push"},
	{EventHeartbleed, D(2014, time.April, 7), KindAttack, "OpenSSL heartbeat buffer over-read (public disclosure)"},
	{EventPOODLE, D(2014, time.October, 14), KindAttack, "SSL 3 CBC padding oracle via fallback"},
	{EventRFC7465, D(2015, time.February, 1), KindStandard, "RFC 7465 prohibits RC4"},
	{EventFREAK, D(2015, time.March, 3), KindAttack, "export-RSA downgrade"},
	{EventRC4Passwords, D(2015, time.March, 26), KindAttack, "Garman et al. password-recovery attacks on RC4"},
	{EventLogjam, D(2015, time.May, 20), KindAttack, "export-DHE downgrade"},
	{EventRC4NoMore, D(2015, time.July, 15), KindAttack, "Vanhoef & Piessens RC4 NOMORE"},
	{EventSweet32, D(2016, time.August, 31), KindAttack, "64-bit block birthday attack (DES/3DES)"},
}

// Events returns the full catalogue in chronological order. The slice is a
// copy.
func Events() []Event {
	out := make([]Event, len(events))
	copy(out, events)
	return out
}
