package scanner

import (
	"context"
	"testing"
	"time"

	"tlsage/internal/handshake"
	"tlsage/internal/registry"
)

func vulnerableCfg() *handshake.ServerConfig {
	cfg := modernCfg()
	cfg.Name = "vulnerable"
	cfg.HeartbeatEnabled = true
	cfg.HeartbleedVulnerable = true
	return cfg
}

// TestHeartbleedCheckDistinguishesServers runs the check where a scan runs
// it, on the chrome2015 connection, and pins one connection per host: a
// second connection for the check would make the farm serve 5.
func TestHeartbleedCheckDistinguishesServers(t *testing.T) {
	patched := heartbeatCfg() // heartbeat on, patched
	vuln := vulnerableCfg()   // heartbeat on, unpatched
	noHB := modernCfg()       // no heartbeat at all
	farm := startFarm(t, patched, vuln, noHB)

	sc := New(4)
	sc.Timeout = 2 * time.Second
	results, err := sc.Scan(context.Background(), farm.Addrs(), Chrome2015().Build(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if p := results[0]; !p.HeartbeatAck || p.Vulnerable {
		t.Errorf("patched server: %+v", p)
	}
	v := results[1]
	if !v.HeartbeatAck || !v.Vulnerable {
		t.Errorf("vulnerable server not detected: %+v", v)
	}
	if v.LeakedBytes != hbClaim-hbSent {
		t.Errorf("leaked %d bytes, want %d", v.LeakedBytes, hbClaim-hbSent)
	}
	if n := results[2]; n.HeartbeatAck || n.Vulnerable {
		t.Errorf("heartbeat-less server: %+v", n)
	}
	served := 0
	for _, h := range farm.Hosts {
		served += h.Served()
	}
	if served != 3 {
		t.Errorf("farm served %d connections for 3 hosts, want 3: one per (probe, host)", served)
	}
}

func TestHeartbleedCheckUnreachable(t *testing.T) {
	sc := New(1)
	sc.Timeout = 300 * time.Millisecond
	results, err := sc.Scan(context.Background(), []string{"127.0.0.1:1"}, Chrome2015().Build(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == nil || results[0].Vulnerable {
		t.Errorf("unexpected: %+v", results)
	}
}

func TestRC4OnlyProbe(t *testing.T) {
	rc4Server := legacyRC4Cfg()
	modernNoRC4 := &handshake.ServerConfig{
		Name: "norc4", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12,
		Suites: []uint16{0xC02F, 0x002F, 0x0035},
		Curves: []registry.CurveID{registry.CurveSecp256r1},
	}
	farm := startFarm(t, rc4Server, modernNoRC4)
	sc := New(2)
	hello := RC4Only().Build(nil)
	results, err := sc.Scan(context.Background(), farm.Addrs(), hello)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(results)
	if sum.Answered != 1 || sum.ChoseRC4 != 1 {
		t.Errorf("RC4-only probe: %+v", sum)
	}
	if sum.Alerted != 1 {
		t.Errorf("RC4-less server should alert: %+v", sum)
	}
}
