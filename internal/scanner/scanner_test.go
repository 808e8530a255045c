package scanner

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"tlsage/internal/handshake"
	"tlsage/internal/registry"
	"tlsage/internal/serverfarm"
	"tlsage/internal/wire"
)

func modernCfg() *handshake.ServerConfig {
	return &handshake.ServerConfig{
		Name: "modern", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12,
		Suites:            []uint16{0xC02F, 0xC030, 0xC013, 0xC014, 0x009C, 0x002F, 0x0035, 0x000A},
		PreferServerOrder: true,
		Curves:            []registry.CurveID{registry.CurveSecp256r1},
	}
}

func legacyRC4Cfg() *handshake.ServerConfig {
	return &handshake.ServerConfig{
		Name: "rc4", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS10,
		Suites:            []uint16{0x0005, 0x0004, 0x002F, 0x0035, 0x000A},
		PreferServerOrder: true,
	}
}

func heartbeatCfg() *handshake.ServerConfig {
	cfg := modernCfg()
	cfg.Name = "hb"
	cfg.HeartbeatEnabled = true
	return cfg
}

func startFarm(t *testing.T, cfgs ...*handshake.ServerConfig) *serverfarm.Farm {
	t.Helper()
	farm, err := serverfarm.StartFarm(cfgs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { farm.Close() })
	return farm
}

func TestScanChrome2015AgainstFarm(t *testing.T) {
	farm := startFarm(t, modernCfg(), legacyRC4Cfg(), heartbeatCfg())
	sc := New(4)
	sc.Timeout = 2 * time.Second
	hello := Chrome2015().Build(rand.New(rand.NewSource(1)))
	results, err := sc.Scan(context.Background(), farm.Addrs(), hello)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	modern, rc4, hb := results[0], results[1], results[2]
	if !modern.OK || modern.Suite != 0xC02F {
		t.Errorf("modern host: %+v", modern)
	}
	if !rc4.OK || rc4.Suite != 0x0005 {
		t.Errorf("rc4 host: %+v", rc4)
	}
	if !hb.OK || !hb.HeartbeatAck {
		t.Errorf("heartbeat host: %+v", hb)
	}
	if modern.HeartbeatAck {
		t.Error("modern host should not ack heartbeat")
	}

	sum := Summarize(results)
	if sum.Answered != 3 || sum.ChoseRC4 != 1 || sum.ChoseCBC != 0 || sum.Chose3DES != 0 {
		t.Errorf("summary: %+v", sum)
	}
	if sum.HeartbeatAck != 1 {
		t.Errorf("heartbeat count: %+v", sum)
	}
}

func TestSSL3OnlyProbe(t *testing.T) {
	ssl3Server := &handshake.ServerConfig{
		Name: "old", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS12,
		Suites: []uint16{0x002F, 0x0035, 0x0005, 0x000A},
	}
	modernOnly := modernCfg()
	modernOnly.MinVersion = registry.VersionTLS10
	farm := startFarm(t, ssl3Server, modernOnly)

	sc := New(2)
	hello := SSL3Only().Build(rand.New(rand.NewSource(2)))
	results, err := sc.Scan(context.Background(), farm.Addrs(), hello)
	if err != nil {
		t.Fatal(err)
	}
	old, modern := results[0], results[1]
	if !old.OK || old.Suite != 0x0005 {
		t.Errorf("SSL3-capable server should answer: %+v", old)
	}
	if modern.OK || !modern.Alerted {
		t.Errorf("SSL3-intolerant server should alert: %+v", modern)
	}
	sum := Summarize(results)
	if sum.Answered != 1 || sum.Alerted != 1 {
		t.Errorf("summary: %+v", sum)
	}
}

func TestExportOnlyProbe(t *testing.T) {
	exportServer := &handshake.ServerConfig{
		Name: "export", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS10,
		Suites: []uint16{0x002F, 0x0003, 0x0008},
	}
	farm := startFarm(t, exportServer, modernCfg())
	sc := New(2)
	hello := ExportOnly().Build(rand.New(rand.NewSource(3)))
	results, err := sc.Scan(context.Background(), farm.Addrs(), hello)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(results)
	if sum.ChoseExport != 1 {
		t.Errorf("export support miscounted: %+v", sum)
	}
}

func TestScanUnreachableTarget(t *testing.T) {
	sc := New(1)
	sc.Timeout = 300 * time.Millisecond
	results, err := sc.Scan(context.Background(), []string{"127.0.0.1:1"}, // closed port
		Chrome2015().Build(rand.New(rand.NewSource(4))))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Errorf("expected dial error: %+v", results)
	}
	sum := Summarize(results)
	if sum.Errors != 1 {
		t.Errorf("summary: %+v", sum)
	}
}

// cannedHost listens on loopback and answers every connection the same way:
// it reads one record, the probe's hello, writes reply whole, and reads to
// the end of the connection, so the prober reads all of reply before the
// host closes.
func cannedHost(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
				if _, err := wire.ReadRecord(conn); err != nil {
					return
				}
				if _, err := conn.Write(reply); err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestProbeReadsCannedReplies scans hosts that answer the chrome2015 probe
// with fixed bytes no farm host sends: replies the prober must refuse, a
// heartbeat answer of the wrong type, and a Heartbleed over-read from a
// host whose suite the registry does not know, which Summarize must still
// count as acking heartbeat.
func TestProbeReadsCannedReplies(t *testing.T) {
	const unknownSuite = 0x7777
	if _, ok := registry.SuiteByID(unknownSuite); ok {
		t.Fatalf("suite %#04x is registered: pick another", unknownSuite)
	}
	serverHello := func(suite uint16, exts ...wire.Extension) []byte {
		sh := wire.ServerHello{Version: registry.VersionTLS12, CipherSuite: suite, Extensions: exts}
		return sh.AppendRecord(nil)
	}
	heartbeat := func(typ uint8, payload []byte) []byte {
		msg := wire.HeartbeatMessage{Type: typ, PayloadLength: uint16(len(payload)), Payload: payload}
		return wire.AppendRecord(nil, wire.ContentHeartbeat, registry.VersionTLS12, msg.Append(nil))
	}
	handshake := func(typ wire.HandshakeType, body []byte) []byte {
		return wire.AppendRecord(nil, wire.ContentHandshake, registry.VersionTLS12, wire.AppendHandshake(nil, typ, body))
	}
	hbAck := wire.NewHeartbeatExtension(1)
	rows := []struct {
		name  string
		reply []byte
		// want is the result without its Err; a zero want is a
		// refusal, which must come with an error.
		want Result
	}{
		{"one-byte-alert", wire.AppendRecord(nil, wire.ContentAlert, registry.VersionTLS12, []byte{2}), Result{}},
		{"cut-handshake-header", wire.AppendRecord(nil, wire.ContentHandshake, registry.VersionTLS12, []byte{2, 0}), Result{}},
		{"non-server-hello", handshake(wire.TypeClientHello, make([]byte, 40)), Result{}},
		{"truncated-server-hello", handshake(wire.TypeServerHello, []byte{3, 3, 1, 2}), Result{}},
		{"application-data", wire.AppendRecord(nil, wire.ContentApplicationData, registry.VersionTLS12, []byte{1, 2, 3}), Result{}},
		{"heartbeat-reply-of-request-type", append(serverHello(0xC02F, hbAck), heartbeat(wire.HeartbeatRequest, make([]byte, 4*hbSent))...),
			Result{OK: true, Suite: 0xC02F, HeartbeatAck: true}},
		{"unknown-suite-over-read", append(serverHello(unknownSuite, hbAck), heartbeat(wire.HeartbeatResponse, make([]byte, 4*hbSent))...),
			Result{OK: true, Suite: unknownSuite, HeartbeatAck: true, Vulnerable: true, LeakedBytes: 3 * hbSent}},
	}
	targets := make([]string, len(rows))
	for i, r := range rows {
		targets[i] = cannedHost(t, r.reply)
	}
	sc := New(len(rows))
	sc.Timeout = 2 * time.Second
	results, err := sc.Scan(context.Background(), targets, Chrome2015().Build(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := results[i]
			if refused := r.want == (Result{}); (got.Err != nil) != refused {
				t.Fatalf("err = %v, want an error: %v", got.Err, refused)
			}
			got.Err = nil
			if got != r.want {
				t.Errorf("result %+v, want %+v", got, r.want)
			}
		})
	}
	sum := Summarize(results)
	want := Summary{Answered: 2, Errors: 5, HeartbeatAck: 2, Vulnerable: 1, LeakedBytes: 3 * hbSent}
	if sum != want {
		t.Errorf("summary %+v, want %+v", sum, want)
	}
}

func TestScanContextCancellation(t *testing.T) {
	hello := Chrome2015().Build(rand.New(rand.NewSource(5)))
	t.Run("before start", func(t *testing.T) {
		farm := startFarm(t, modernCfg())
		targets := make([]string, 200)
		for i := range targets {
			targets[i] = farm.Hosts[0].Addr()
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := New(8).Scan(ctx, targets, hello); err == nil {
			t.Error("cancelled scan should report context error")
		}
	})
	t.Run("mid-exchange", func(t *testing.T) {
		// A listener that accepts but never responds: only the cancel can
		// end the exchange before the 5 s timeout.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			var held []net.Conn
			defer func() {
				for _, c := range held {
					c.Close()
				}
			}()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				held = append(held, c)
			}
		}()
		t.Cleanup(func() { ln.Close() })
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan time.Time, 1)
		time.AfterFunc(100*time.Millisecond, func() { cancelled <- time.Now(); cancel() })
		sc := New(4)
		sc.Timeout = 5 * time.Second
		_, err = sc.Scan(ctx, []string{ln.Addr().String(), ln.Addr().String()}, hello)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Scan = %v, want context.Canceled", err)
		}
		if late := time.Since(<-cancelled); late > time.Second {
			t.Errorf("Scan returned %v after the cancel, want within 1s", late)
		}
	})
}

func TestScanConcurrencyCompletes(t *testing.T) {
	farm := startFarm(t, modernCfg(), legacyRC4Cfg())
	var targets []string
	for i := 0; i < 60; i++ {
		targets = append(targets, farm.Hosts[i%2].Addr())
	}
	sc := New(16)
	sc.Timeout = 2 * time.Second
	results, err := sc.Scan(context.Background(), targets, Chrome2015().Build(rand.New(rand.NewSource(6))))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 60 {
		t.Fatalf("got %d/60 results", len(results))
	}
	// The targets alternate between the hosts, and each host picks its own
	// suite, so a result in the wrong slot shows as the other host's suite.
	for i, r := range results {
		if want := []uint16{0xC02F, 0x0005}[i%2]; r.Suite != want {
			t.Fatalf("results[%d] chose %#04x, want %#04x: results come back in target order", i, r.Suite, want)
		}
	}
	sum := Summarize(results)
	if sum.Answered != 60 {
		t.Errorf("all probes should be answered: %+v", sum)
	}
	if farm.Hosts[0].Served()+farm.Hosts[1].Served() != 60 {
		t.Errorf("farm served %d+%d", farm.Hosts[0].Served(), farm.Hosts[1].Served())
	}
}

func TestFarmAnswersSSLv2(t *testing.T) {
	cfg := &handshake.ServerConfig{
		Name: "nagios", MinVersion: registry.VersionSSL2, MaxVersion: registry.VersionTLS10,
		Suites: []uint16{0x001B, 0x0018}, SupportsSSLv2: true,
	}
	farm := startFarm(t, cfg)
	// Hand-roll an SSLv2 exchange since the scanner speaks TLS framing.
	v2 := &wire.SSLv2ClientHello{
		Version:     registry.VersionSSL2,
		CipherSpecs: []uint32{0x010080, 0x000005},
		Challenge:   make([]byte, 16),
	}
	raw := v2.Append(nil)
	conn, err := netDial(farm.Hosts[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || n < 5 {
		t.Fatalf("sslv2 response: n=%d err=%v", n, err)
	}
	if buf[0]&0x80 == 0 || buf[2] != 4 {
		t.Errorf("expected sslv2 server-hello, got % x", buf[:n])
	}
}

func TestProbeNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range AllProbes() {
		if p.Name == "" || p.Build == nil {
			t.Fatalf("malformed probe %+v", p)
		}
		if names[p.Name] {
			t.Fatalf("duplicate probe name %s", p.Name)
		}
		names[p.Name] = true
		hello := p.Build(rand.New(rand.NewSource(7)))
		if len(hello.CipherSuites) == 0 {
			t.Errorf("probe %s offers no suites", p.Name)
		}
		var got wire.ClientHello
		if err := got.DecodeFromBytes(hello.Append(nil)); err != nil {
			t.Errorf("probe %s does not read back: %v", p.Name, err)
		}
	}
	for _, want := range []string{"chrome2015", "ssl3only", "exportonly", "dheonly"} {
		if !names[want] {
			t.Errorf("missing probe %s", want)
		}
	}
}

// Small indirection helpers keep the tests free of direct net imports noise.
func netDial(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) }
