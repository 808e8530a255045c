package wire

import "fmt"

// HeartbeatMessage is an RFC 6520 heartbeat message. The Heartbleed bug
// (§5.4 of the paper) is a server trusting PayloadLength over the actual
// payload size and echoing PayloadLength bytes of process memory.
type HeartbeatMessage struct {
	// Type is 1 (request) or 2 (response).
	Type uint8
	// PayloadLength is the *claimed* payload length. A Heartbleed probe
	// claims more than it sends.
	PayloadLength uint16
	// Payload is the actual payload carried.
	Payload []byte
	// Padding is the random padding (min 16 bytes on the wire).
	Padding []byte
}

// Heartbeat message types.
const (
	HeartbeatRequest  = 1
	HeartbeatResponse = 2
)

// Append appends the message to dst, preserving any mismatch between
// PayloadLength and len(Payload) — that mismatch is the exploit. A nil
// Padding is written as 16 zero bytes, the RFC 6520 minimum.
func (h *HeartbeatMessage) Append(dst []byte) []byte {
	dst = append(dst, h.Type, byte(h.PayloadLength>>8), byte(h.PayloadLength))
	dst = append(dst, h.Payload...)
	if h.Padding == nil {
		return append(dst, make([]byte, 16)...)
	}
	return append(dst, h.Padding...)
}

// DecodeFromBytes parses a heartbeat message the way a *correct*
// implementation must (RFC 6520 §4): if PayloadLength exceeds the actual
// data, the message is discarded silently.
func (h *HeartbeatMessage) DecodeFromBytes(data []byte) error {
	if len(data) < 3 {
		return fmt.Errorf("%w: heartbeat header", ErrTruncated)
	}
	h.Type = data[0]
	h.PayloadLength = uint16(data[1])<<8 | uint16(data[2])
	rest := data[3:]
	if int(h.PayloadLength)+16 > len(rest) {
		return fmt.Errorf("%w: heartbeat payload_length %d exceeds message", ErrMalformed, h.PayloadLength)
	}
	h.Payload = append([]byte(nil), rest[:h.PayloadLength]...)
	h.Padding = append([]byte(nil), rest[h.PayloadLength:]...)
	return nil
}

// BuggyDecode parses the message the way the vulnerable OpenSSL 1.0.1 code
// did: it trusts PayloadLength without bounds-checking it against the
// actual record. It never fails on oversized claims — that is the bug.
func (h *HeartbeatMessage) BuggyDecode(data []byte) error {
	if len(data) < 3 {
		return fmt.Errorf("%w: heartbeat header", ErrTruncated)
	}
	h.Type = data[0]
	h.PayloadLength = uint16(data[1])<<8 | uint16(data[2])
	h.Payload = append([]byte(nil), data[3:]...)
	return nil
}
