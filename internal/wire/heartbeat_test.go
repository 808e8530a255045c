package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHeartbeatRoundTrip(t *testing.T) {
	msg := &HeartbeatMessage{
		Type:          HeartbeatRequest,
		PayloadLength: 4,
		Payload:       []byte{1, 2, 3, 4},
	}
	var got HeartbeatMessage
	if err := got.DecodeFromBytes(msg.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if got.Type != HeartbeatRequest || !bytes.Equal(got.Payload, msg.Payload) {
		t.Errorf("round trip: %+v", got)
	}
	if len(got.Padding) != 16 {
		t.Errorf("padding = %d bytes", len(got.Padding))
	}
}

func TestHeartbeatCorrectDecodeRejectsOverread(t *testing.T) {
	// The Heartbleed probe shape: claim 4096, send 16. RFC 6520 requires
	// silent discard — DecodeFromBytes must error.
	msg := &HeartbeatMessage{
		Type:          HeartbeatRequest,
		PayloadLength: 4096,
		Payload:       make([]byte, 16),
	}
	raw := msg.Append(nil)
	var correct HeartbeatMessage
	if err := correct.DecodeFromBytes(raw); err == nil {
		t.Fatal("compliant decoder accepted an over-read claim")
	}
	// The buggy decoder accepts it — that is CVE-2014-0160.
	var buggy HeartbeatMessage
	if err := buggy.BuggyDecode(raw); err != nil {
		t.Fatal(err)
	}
	if buggy.PayloadLength != 4096 {
		t.Errorf("claimed length = %d", buggy.PayloadLength)
	}
}

func TestHeartbeatTruncation(t *testing.T) {
	var m HeartbeatMessage
	for _, data := range [][]byte{nil, {1}, {1, 0}} {
		if err := m.DecodeFromBytes(data); err == nil {
			t.Error("truncated heartbeat decoded")
		}
		if err := m.BuggyDecode(data); err == nil {
			t.Error("truncated heartbeat buggy-decoded")
		}
	}
}

func TestHeartbeatHonestRoundTripProperty(t *testing.T) {
	// For honest messages (claim == actual), the compliant decoder recovers
	// the payload exactly.
	f := func(payload []byte) bool {
		if len(payload) > 1024 {
			payload = payload[:1024]
		}
		msg := &HeartbeatMessage{
			Type:          HeartbeatResponse,
			PayloadLength: uint16(len(payload)),
			Payload:       payload,
		}
		var got HeartbeatMessage
		if err := got.DecodeFromBytes(msg.Append(nil)); err != nil {
			return false
		}
		return bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
