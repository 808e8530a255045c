package serverfarm

import (
	"net"
	"testing"
	"time"

	"tlsage/internal/handshake"
	"tlsage/internal/registry"
	"tlsage/internal/wire"
)

func testCfg() *handshake.ServerConfig {
	return &handshake.ServerConfig{
		Name: "t", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12,
		Suites: []uint16{0xC02F, 0x002F, 0x0035},
		Curves: []registry.CurveID{registry.CurveSecp256r1},
	}
}

func dialHello(t *testing.T, addr string, ch *wire.ClientHello) wire.Record {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(ch.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
	rec, err := wire.ReadRecord(conn)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestHostAnswersHello(t *testing.T) {
	h, err := StartHost("127.0.0.1:0", testCfg(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ch := &wire.ClientHello{
		Version:      registry.VersionTLS12,
		CipherSuites: []uint16{0x002F},
	}
	rec := dialHello(t, h.Addr(), ch)
	if rec.Type != wire.ContentHandshake {
		t.Fatalf("got record type %v", rec.Type)
	}
	if h.Served() != 1 {
		t.Errorf("served = %d", h.Served())
	}
}

func TestHostAlertsOnNoCommonSuite(t *testing.T) {
	h, err := StartHost("127.0.0.1:0", testCfg(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ch := &wire.ClientHello{
		Version:      registry.VersionTLS12,
		CipherSuites: []uint16{0x1301}, // TLS 1.3 suite only
	}
	rec := dialHello(t, h.Addr(), ch)
	if rec.Type != wire.ContentAlert {
		t.Fatalf("expected alert, got %v", rec.Type)
	}
	var alert wire.Alert
	if err := alert.DecodeFromBytes(rec.Payload); err != nil {
		t.Fatal(err)
	}
	if alert.Description != wire.AlertHandshakeFailure {
		t.Errorf("alert = %v", alert)
	}
}

func TestHostCloseIdempotent(t *testing.T) {
	h, err := StartHost("127.0.0.1:0", testCfg(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
	// Dial after close fails.
	if _, err := net.DialTimeout("tcp", h.Addr(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after close")
	}
}

func TestStartHostRejectsInvalidConfig(t *testing.T) {
	bad := &handshake.ServerConfig{Name: "bad", MinVersion: registry.VersionTLS12,
		MaxVersion: registry.VersionTLS10, Suites: []uint16{0x002F}}
	if _, err := StartHost("127.0.0.1:0", bad, time.Second); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFarmAddrs(t *testing.T) {
	farm, err := StartFarm([]*handshake.ServerConfig{testCfg(), testCfg()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	addrs := farm.Addrs()
	if len(addrs) != 2 || addrs[0] == addrs[1] {
		t.Errorf("addrs = %v", addrs)
	}
}

// heartbeatExchange completes a hello exchange with a heartbeat-enabled
// host, patched or vulnerable, then sends req in one heartbeat record and
// returns the connection the answer arrives on.
func heartbeatExchange(t *testing.T, vulnerable bool, req wire.HeartbeatMessage) net.Conn {
	t.Helper()
	cfg := testCfg()
	cfg.HeartbeatEnabled = true
	cfg.HeartbleedVulnerable = vulnerable
	h, err := StartHost("127.0.0.1:0", cfg, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	conn, err := net.DialTimeout("tcp", h.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	ch := &wire.ClientHello{
		Version:      registry.VersionTLS12,
		CipherSuites: []uint16{0x002F},
		Extensions:   []wire.Extension{wire.NewHeartbeatExtension(1)},
	}
	if _, err := conn.Write(ch.AppendRecord(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadRecord(conn); err != nil {
		t.Fatal(err)
	}
	out := wire.AppendRecord(nil, wire.ContentHeartbeat, registry.VersionTLS12, req.Append(nil))
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestHeartbeatExchangeCorrectServer(t *testing.T) {
	// Well-formed heartbeat request: echoed payload, no over-read.
	conn := heartbeatExchange(t, false, wire.HeartbeatMessage{Type: wire.HeartbeatRequest, PayloadLength: 4, Payload: []byte{1, 2, 3, 4}})
	rec, err := wire.ReadRecord(conn)
	if err != nil || rec.Type != wire.ContentHeartbeat {
		t.Fatalf("heartbeat response: %v %v", rec.Type, err)
	}
	var resp wire.HeartbeatMessage
	if err := resp.DecodeFromBytes(rec.Payload); err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.HeartbeatResponse || len(resp.Payload) != 4 {
		t.Errorf("response: %+v", resp)
	}
}

// A request claiming 0xffff bytes: the vulnerable host clamps its echo to
// fit one record, so the farm never asks AppendRecord for more than 2^14
// bytes (which would panic in the host's goroutine), and the patched host
// discards the request.
func TestHeartbeatClaimBeyondRecordLimit(t *testing.T) {
	req := wire.HeartbeatMessage{Type: wire.HeartbeatRequest, PayloadLength: 0xffff, Payload: make([]byte, 16)}
	t.Run("vulnerable", func(t *testing.T) {
		conn := heartbeatExchange(t, true, req)
		rec, err := wire.ReadRecord(conn)
		if err != nil || rec.Type != wire.ContentHeartbeat {
			t.Fatalf("heartbeat response: %v %v", rec.Type, err)
		}
		var resp wire.HeartbeatMessage
		if err := resp.BuggyDecode(rec.Payload); err != nil || resp.Type != wire.HeartbeatResponse {
			t.Fatalf("response: %v %+v", err, resp)
		}
		if len(rec.Payload) > 1<<14 || resp.PayloadLength != 1<<14-32 {
			t.Errorf("echo of %d bytes claiming %d, want one record of at most 2^14 claiming %d",
				len(rec.Payload), resp.PayloadLength, 1<<14-32)
		}
		if rec, err := wire.ReadRecord(conn); err == nil {
			t.Errorf("a second %v record followed the echo", rec.Type)
		}
	})
	t.Run("patched", func(t *testing.T) {
		conn := heartbeatExchange(t, false, req)
		if rec, err := wire.ReadRecord(conn); err == nil {
			t.Errorf("patched host answered with a %v record", rec.Type)
		}
	})
}

func writeRaw(t *testing.T, addr string, raw []byte) (int, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(700 * time.Millisecond))
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _ := conn.Read(buf)
	return n, buf[:n]
}

func TestHostDropsOversizedRecord(t *testing.T) {
	h, err := StartHost("127.0.0.1:0", testCfg(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Claimed record length 0xffff exceeds 2^14.
	if n, _ := writeRaw(t, h.Addr(), []byte{22, 3, 1, 0xff, 0xff}); n != 0 {
		t.Errorf("oversized record got %d-byte answer", n)
	}
}

func TestHostDropsNonHandshakeRecord(t *testing.T) {
	h, err := StartHost("127.0.0.1:0", testCfg(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	raw := wire.AppendRecord(nil, wire.ContentAlert, registry.VersionTLS10, []byte{1, 0})
	if n, _ := writeRaw(t, h.Addr(), raw); n != 0 {
		t.Errorf("alert record got %d-byte answer", n)
	}
}

func TestHostDropsNonHelloHandshake(t *testing.T) {
	h, err := StartHost("127.0.0.1:0", testCfg(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	msg := wire.AppendHandshake(nil, wire.TypeServerHello, []byte{1, 2, 3})
	raw := wire.AppendRecord(nil, wire.ContentHandshake, registry.VersionTLS10, msg)
	if n, _ := writeRaw(t, h.Addr(), raw); n != 0 {
		t.Errorf("server-hello-in got %d-byte answer", n)
	}
}

func TestHostDropsMalformedSSLv2(t *testing.T) {
	cfg := testCfg()
	cfg.SupportsSSLv2 = true
	cfg.MinVersion = registry.VersionSSL2
	h, err := StartHost("127.0.0.1:0", cfg, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// High-bit header but garbage body.
	if n, _ := writeRaw(t, h.Addr(), []byte{0x80, 0x03, 0xFF, 0xFF, 0xFF}); n != 0 {
		t.Errorf("garbage sslv2 got %d-byte answer", n)
	}
}
