// Package serverfarm runs real TCP listeners that answer TLS ClientHellos
// using the population's server configurations — the synthetic stand-in for
// the IPv4 hosts Censys scanned. Each farm host accepts a connection, reads
// one hello (TLS or SSLv2), runs the negotiation engine and answers with a
// ServerHello or an alert, then closes.
//
// The farm exists so the scanner package exercises a genuine network path:
// dial, deadline, banner read, parse. Handshakes do not proceed past the
// hello exchange — exactly the depth the study's scans needed.
package serverfarm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tlsage/internal/handshake"
	"tlsage/internal/registry"
	"tlsage/internal/wire"
)

// Host is one simulated server: a TCP listener bound to a configuration.
type Host struct {
	cfg     *handshake.ServerConfig
	ln      net.Listener
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
	timeout time.Duration
	served  int
}

// StartHost launches a listener on addr (use "127.0.0.1:0" for an ephemeral
// port) answering with cfg. timeout bounds each connection's exchange.
func StartHost(addr string, cfg *handshake.ServerConfig, timeout time.Duration) (*Host, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serverfarm: %w", err)
	}
	h := &Host{cfg: cfg, ln: ln, timeout: timeout}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the host's listen address.
func (h *Host) Addr() string { return h.ln.Addr().String() }

// Served reports how many connections the host has produced a reply for,
// counted before the reply is written.
func (h *Host) Served() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.served
}

// Close stops the listener and waits for in-flight connections.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	err := h.ln.Close()
	h.wg.Wait()
	return err
}

func (h *Host) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.serve(conn)
		}()
	}
}

// serve answers one hello exchange, then — when heartbeat was negotiated —
// at most one heartbeat request (the Heartbleed check path).
func (h *Host) serve(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(h.timeout))

	reply, err := h.answer(conn)
	if err != nil {
		return // malformed or timed-out client; drop silently like real boxes
	}
	// Count before writing: a client that has read its reply must already
	// see itself in Served().
	h.mu.Lock()
	h.served++
	h.mu.Unlock()
	if _, err := conn.Write(reply); err != nil {
		return
	}

	if h.cfg.HeartbeatEnabled {
		h.serveHeartbeat(conn)
	}
}

// serveHeartbeat answers one heartbeat record. A patched implementation
// follows RFC 6520 and silently discards requests whose payload_length
// exceeds the message; the Heartbleed-vulnerable implementation trusts the
// claimed length and echoes that many bytes — leaking "process memory"
// (deterministic filler here).
func (h *Host) serveHeartbeat(conn net.Conn) {
	rec, err := wire.ReadRecord(conn)
	if err != nil || rec.Type != wire.ContentHeartbeat {
		return
	}
	var req wire.HeartbeatMessage
	var payload []byte
	if h.cfg.HeartbleedVulnerable {
		if err := req.BuggyDecode(rec.Payload); err != nil || req.Type != wire.HeartbeatRequest {
			return
		}
		// The bug: echo payload_length bytes regardless of what arrived,
		// up to what fits in one record with the header and padding
		// (AppendRecord panics past 2^14).
		n := int(req.PayloadLength)
		if n > 1<<14-32 {
			n = 1<<14 - 32
		}
		payload = make([]byte, n)
		copy(payload, req.Payload)
		for i := len(req.Payload); i < n; i++ {
			payload[i] = byte(0x40 + i%23) // "leaked memory"
		}
	} else {
		if err := req.DecodeFromBytes(rec.Payload); err != nil || req.Type != wire.HeartbeatRequest {
			return // RFC 6520: discard silently
		}
		payload = req.Payload
	}
	resp := wire.HeartbeatMessage{
		Type:          wire.HeartbeatResponse,
		PayloadLength: uint16(len(payload)),
		Payload:       payload,
	}
	_, _ = conn.Write(wire.AppendRecord(nil, wire.ContentHeartbeat, registry.VersionTLS12, resp.Append(nil)))
}

// answer reads one hello from the connection and produces the response
// bytes.
func (h *Host) answer(conn net.Conn) ([]byte, error) {
	// Peek the first byte to disambiguate SSLv2 from TLS record framing.
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return nil, err
	}
	r := io.MultiReader(bytes.NewReader(first[:]), conn)
	if first[0]&0x80 != 0 {
		return h.answerSSLv2(r)
	}
	return h.answerTLS(r)
}

// answerTLS handles a ClientHello in one TLS record read from r.
func (h *Host) answerTLS(r io.Reader) ([]byte, error) {
	rec, err := wire.ReadRecord(r)
	if err != nil {
		return nil, err
	}
	if rec.Type != wire.ContentHandshake {
		return nil, errors.New("serverfarm: not a handshake record")
	}
	typ, body, _, err := wire.DecodeHandshake(rec.Payload)
	if err != nil || typ != wire.TypeClientHello {
		return nil, errors.New("serverfarm: not a client hello")
	}
	var ch wire.ClientHello
	if err := ch.DecodeFromBytes(body); err != nil {
		return nil, err
	}

	res := handshake.Negotiate(&ch, h.cfg)
	if !res.OK {
		return wire.AppendRecord(nil, wire.ContentAlert, registry.VersionTLS10, res.Alert.Append(nil)), nil
	}
	return res.ServerHello.AppendRecord(nil), nil
}

// answerSSLv2 handles an SSLv2 2-byte-header CLIENT-HELLO read from r.
func (h *Host) answerSSLv2(r io.Reader) ([]byte, error) {
	raw, err := wire.ReadSSLv2Record(r)
	if err != nil {
		return nil, err
	}
	var v2 wire.SSLv2ClientHello
	if err := v2.DecodeFromBytes(raw); err != nil {
		return nil, err
	}
	res := handshake.NegotiateSSLv2(&v2, h.cfg)
	if !res.OK {
		// SSLv2-intolerant servers just drop; emulate with a TLS alert.
		return wire.AppendRecord(nil, wire.ContentAlert, registry.VersionSSL3, res.Alert.Append(nil)), nil
	}
	// Emulate a minimal SSLv2 SERVER-HELLO: 2-byte header, type 4, then the
	// chosen cipher in the low bytes. The scanner only needs the cipher echo.
	msg := []byte{4, 0, 0, byte(res.Suite >> 8), byte(res.Suite)}
	out := []byte{0x80 | byte(len(msg)>>8), byte(len(msg))}
	return append(out, msg...), nil
}

// Farm is a set of hosts sampled from a server population snapshot.
type Farm struct {
	Hosts []*Host
}

// Close shuts every host down and returns their errors joined.
func (f *Farm) Close() error {
	errs := make([]error, len(f.Hosts))
	for i, h := range f.Hosts {
		errs[i] = h.Close()
	}
	return errors.Join(errs...)
}

// Addrs returns the hosts' listen addresses.
func (f *Farm) Addrs() []string {
	out := make([]string, len(f.Hosts))
	for i, h := range f.Hosts {
		out[i] = h.Addr()
	}
	return out
}

// StartFarm launches one loopback host for each configuration.
func StartFarm(configs []*handshake.ServerConfig, timeout time.Duration) (*Farm, error) {
	farm := &Farm{}
	for _, cfg := range configs {
		h, err := StartHost("127.0.0.1:0", cfg, timeout)
		if err != nil {
			farm.Close()
			return nil, err
		}
		farm.Hosts = append(farm.Hosts, h)
	}
	return farm, nil
}
