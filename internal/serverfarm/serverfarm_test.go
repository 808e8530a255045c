package serverfarm

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
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

// A host that does not speak SSLv2 answers an SSLv2 hello with a TLS alert,
// and counts it as served.
func TestHostAlertsSSLv2HelloWithoutSSLv2(t *testing.T) {
	h, err := StartHost("127.0.0.1:0", testCfg(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	v2 := &wire.SSLv2ClientHello{Version: registry.VersionSSL2, CipherSpecs: []uint32{0x010080, 0x00002F}, Challenge: make([]byte, 16)}
	rec, _, err := wire.DecodeRecord(exchangeRaw(t, h.Addr(), v2.Append(nil)))
	if err != nil || rec.Type != wire.ContentAlert {
		t.Fatalf("reply: %v record, %v; want an alert", rec.Type, err)
	}
	var alert wire.Alert
	if err := alert.DecodeFromBytes(rec.Payload); err != nil || alert.Description != wire.AlertHandshakeFailure {
		t.Errorf("alert %+v (%v), want handshake_failure", alert, err)
	}
	if n := h.Served(); n != 1 {
		t.Errorf("served %d connections, want 1", n)
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

func badCfg() *handshake.ServerConfig {
	return &handshake.ServerConfig{Name: "bad", MinVersion: registry.VersionTLS12,
		MaxVersion: registry.VersionTLS10, Suites: []uint16{0x002F}}
}

func TestStartHostRejectsInvalidConfig(t *testing.T) {
	if _, err := StartHost("127.0.0.1:0", badCfg(), time.Second); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := StartHost("127.0.0.1:65536", testCfg(), time.Second); err == nil {
		t.Fatal("a port above 65535 accepted")
	}
}

// A farm that cannot start every host closes the ones it started before
// returning the error: no host's accept loop, which only a closed listener
// ends, is left running.
func TestStartFarmClosesStartedHostsOnError(t *testing.T) {
	before := acceptLoops()
	if farm, err := StartFarm([]*handshake.ServerConfig{testCfg(), testCfg(), badCfg()}, time.Second); err == nil {
		farm.Close()
		t.Fatal("a farm with an invalid config started")
	}
	// A closed host's accept loop has signalled Close but may not have
	// returned yet; one left running never returns.
	for deadline := time.Now().Add(2 * time.Second); acceptLoops() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d accept loops running, %d before StartFarm: a started host was not closed", acceptLoops(), before)
		}
	}
}

// acceptLoops counts the goroutines running a host's accept loop.
func acceptLoops() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "serverfarm.(*Host).acceptLoop(")
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

// A heartbeat record that is not a request gets no answer, from a patched
// host or a vulnerable one.
func TestHeartbeatIgnoresNonRequests(t *testing.T) {
	resp := wire.HeartbeatMessage{Type: wire.HeartbeatResponse, PayloadLength: 4, Payload: []byte{1, 2, 3, 4}}
	for _, vulnerable := range []bool{false, true} {
		t.Run(fmt.Sprintf("vulnerable=%v", vulnerable), func(t *testing.T) {
			conn := heartbeatExchange(t, vulnerable, resp)
			if rec, err := wire.ReadRecord(conn); err == nil {
				t.Errorf("a heartbeat response got a %v record", rec.Type)
			}
		})
	}
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

// TestHostDropsMalformedClients sends each row's bytes, half-closes the
// connection and reads to its end: a host drops a client it cannot read a
// hello from, answering nothing and counting nothing, whatever the framing.
func TestHostDropsMalformedClients(t *testing.T) {
	handshakeRecord := func(typ wire.HandshakeType, body []byte) []byte {
		return wire.AppendRecord(nil, wire.ContentHandshake, registry.VersionTLS10, wire.AppendHandshake(nil, typ, body))
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"empty", nil},
		{"cut-record-header", []byte{22, 3, 1}},
		{"oversized-record", []byte{22, 3, 1, 0xff, 0xff}}, // claims 0xffff > 2^14
		{"cut-record-payload", []byte{22, 3, 1, 0, 10, 1, 2, 3}},
		{"non-handshake-record", wire.AppendRecord(nil, wire.ContentAlert, registry.VersionTLS10, []byte{1, 0})},
		{"cut-handshake-header", []byte{22, 3, 1, 0, 3, 1, 2, 3}},
		{"non-hello-handshake", handshakeRecord(wire.TypeServerHello, []byte{1, 2, 3})},
		{"malformed-hello", handshakeRecord(wire.TypeClientHello, []byte{1, 2, 3})},
		{"cut-sslv2-header", []byte{0x80}},
		{"oversized-sslv2", []byte{0xff, 0xff}}, // claims 0x7fff > 2^14
		{"cut-sslv2-body", []byte{0x80, 0x10, 1, 2}},
		{"malformed-sslv2", []byte{0x80, 0x03, 0xff, 0xff, 0xff}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			cfg.SupportsSSLv2, cfg.MinVersion = true, registry.VersionSSL2
			h, err := StartHost("127.0.0.1:0", cfg, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if reply := exchangeRaw(t, h.Addr(), tc.raw); len(reply) != 0 {
				t.Errorf("answered % x", reply)
			}
			if n := h.Served(); n != 0 {
				t.Errorf("served %d connections, want 0", n)
			}
		})
	}
}

// exchangeRaw writes raw to addr, half-closes the connection and returns
// everything the host sends before it closes its side.
func exchangeRaw(t *testing.T, addr string, raw []byte) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}
