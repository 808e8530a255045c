package population

import (
	"fmt"
	"math/rand"

	"tlsage/internal/adoption"
	"tlsage/internal/handshake"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Universe selects which weighting of the server population applies:
// traffic-weighted (the Notary's view) or host-weighted (the Censys view).
type Universe uint8

// Universes.
const (
	ByTraffic Universe = iota
	ByHosts
)

// Cohort is one server configuration class with its two weight curves and
// attribute dynamics.
type Cohort struct {
	Name string
	// Base is the cohort's configuration template. Sampled configs start as
	// copies of Base and then roll the attribute probabilities below.
	Base handshake.ServerConfig
	// Traffic weighs the cohort in the passive (connection) universe; Hosts
	// in the active-scan (IPv4 census) universe.
	Traffic, Hosts adoption.Curve
	// HeartbeatProb is the probability a sampled server has the heartbeat
	// extension enabled (OpenSSL-derived cohorts only). Nil means never.
	HeartbeatProb adoption.Curve
	// SSL3Prob is the probability a sampled server still accepts SSL 3
	// (MinVersion = SSL3). Nil means the Base MinVersion always applies.
	SSL3Prob adoption.Curve
	// IntolerantProb is the probability a sampled server is version
	// intolerant (rejects hellos above its maximum version). Nil means
	// never.
	IntolerantProb adoption.Curve
	// RC4Prob is the probability a sampled server still *supports* RC4
	// (keeps the trailing RC4 suites of its base list). Nil means the base
	// list always applies. This drives the SSL-Pulse-style support numbers
	// of §5.3 (92.8% in Oct 2013 → 19.1% in May 2018).
	RC4Prob adoption.Curve
}

// ServerPopulation is the complete server-side model.
type ServerPopulation struct {
	cohorts []Cohort
	// affinity routes special client profiles to their dedicated cohorts
	// (Nagios checks hit Nagios servers, GridFTP hits GRID endpoints, ...).
	affinity map[string]string
	// vulnGivenHeartbeat is the global probability that a heartbeat-enabled
	// server is still Heartbleed-vulnerable (§5.4 patch dynamics).
	vulnGivenHeartbeat adoption.Curve
}

// CohortByName locates a cohort.
func (sp *ServerPopulation) CohortByName(name string) (*Cohort, bool) {
	for i := range sp.cohorts {
		if sp.cohorts[i].Name == name {
			return &sp.cohorts[i], true
		}
	}
	return nil, false
}

func (c *Cohort) curve(u Universe) adoption.Curve {
	if u == ByHosts {
		return c.Hosts
	}
	return c.Traffic
}

// Sample draws a cohort by weight and instantiates a concrete ServerConfig
// from it (attribute probabilities rolled).
func (sp *ServerPopulation) Sample(d timeline.Date, u Universe, rnd *rand.Rand) (*Cohort, *handshake.ServerConfig) {
	total := 0.0
	for _, c := range sp.cohorts {
		total += c.curve(u).Value(d)
	}
	x := rnd.Float64() * total
	acc := 0.0
	idx := len(sp.cohorts) - 1
	for i, c := range sp.cohorts {
		acc += c.curve(u).Value(d)
		if x < acc {
			idx = i
			break
		}
	}
	c := &sp.cohorts[idx]
	return c, sp.instantiate(c, d, rnd)
}

// SampleForClient draws a server for a passive connection from the named
// client profile, honouring affinity routes.
func (sp *ServerPopulation) SampleForClient(clientProfile string, d timeline.Date, rnd *rand.Rand) (*Cohort, *handshake.ServerConfig) {
	if target, ok := sp.affinity[clientProfile]; ok {
		if c, found := sp.CohortByName(target); found {
			return c, sp.instantiate(c, d, rnd)
		}
	}
	return sp.Sample(d, ByTraffic, rnd)
}

// instantiate copies the cohort base config and rolls its attributes.
func (sp *ServerPopulation) instantiate(c *Cohort, d timeline.Date, rnd *rand.Rand) *handshake.ServerConfig {
	cfg := c.Base // value copy; slices are shared but never mutated
	if c.HeartbeatProb != nil && rnd.Float64() < c.HeartbeatProb.Value(d) {
		cfg.HeartbeatEnabled = true
		if rnd.Float64() < sp.vulnGivenHeartbeat.Value(d) {
			cfg.HeartbleedVulnerable = true
		}
	}
	if c.SSL3Prob != nil {
		if rnd.Float64() < c.SSL3Prob.Value(d) {
			cfg.MinVersion = registry.VersionSSL3
		} else if cfg.MinVersion < registry.VersionTLS10 {
			cfg.MinVersion = registry.VersionTLS10
		}
	}
	if c.IntolerantProb != nil && rnd.Float64() < c.IntolerantProb.Value(d) {
		cfg.VersionIntolerant = true
	}
	if c.RC4Prob != nil && rnd.Float64() >= c.RC4Prob.Value(d) {
		cfg.Suites = stripRC4(cfg.Suites)
	}
	return &cfg
}

// stripRC4 returns suites without RC4 entries (copy; base lists are shared).
func stripRC4(suites []uint16) []uint16 {
	out := make([]uint16, 0, len(suites))
	for _, id := range suites {
		if s, ok := registry.SuiteByID(id); ok && s.IsRC4() {
			continue
		}
		out = append(out, id)
	}
	return out
}

// Validate checks every cohort's base config.
func (sp *ServerPopulation) Validate() error {
	if len(sp.cohorts) == 0 {
		return fmt.Errorf("population: no server cohorts")
	}
	for i := range sp.cohorts {
		if err := sp.cohorts[i].Base.Validate(); err != nil {
			return err
		}
		if sp.cohorts[i].Traffic == nil || sp.cohorts[i].Hosts == nil {
			return fmt.Errorf("population: cohort %s missing weight curves", sp.cohorts[i].Name)
		}
	}
	for client, cohort := range sp.affinity {
		if _, ok := sp.CohortByName(cohort); !ok {
			return fmt.Errorf("population: affinity %s → unknown cohort %s", client, cohort)
		}
	}
	return nil
}

// Server-side suite support sets, in server preference order.
var (
	serverCurvesClassic = []registry.CurveID{
		registry.CurveSecp256r1, registry.CurveSecp384r1, registry.CurveSecp521r1,
	}
	serverCurvesModern = []registry.CurveID{
		registry.CurveX25519, registry.CurveSecp256r1, registry.CurveSecp384r1,
		registry.CurveSecp521r1,
	}
	serverCurvesP384Only = []registry.CurveID{
		registry.CurveSecp384r1, registry.CurveSecp521r1,
	}

	listLegacy10 = []uint16{
		0x002F, 0x0035, 0xC013, 0xC014, 0x0033, 0x0039, 0x000A, 0x0016,
		0x0005, 0x0004, 0x0009, 0x0003, 0x0008,
	}
	listRC4First10 = []uint16{
		0x0005, 0x0004, 0xC011, 0x002F, 0x0035, 0x000A, 0x0033, 0x0039,
	}
	listRC4First12 = []uint16{
		0x0005, 0xC011, 0x0004, 0xC02F, 0xC030, 0x009C, 0x009D, 0xC013,
		0xC014, 0x002F, 0x0035, 0x000A,
	}
	listCBC12 = []uint16{
		0xC013, 0xC014, 0xC027, 0xC028, 0x0033, 0x0039, 0x0067, 0x006B,
		0x002F, 0x0035, 0x003C, 0x003D, 0x000A, 0x0016,
		0x0005, 0x0004, // RC4 supported at the bottom, never preferred
	}
	listModernRSA = []uint16{
		0x009C, 0x009D, 0x003C, 0x003D, 0x002F, 0x0035, 0x000A,
		0x0005, // trailing RC4 support
	}
	listModernECDHE = []uint16{
		0xC02F, 0xC02B, 0xC030, 0xC02C, 0xCCA8, 0xCCA9, 0xCC13, 0xCC14,
		0xC027, 0xC013, 0xC014, 0x009C, 0x009D, 0x003C, 0x002F, 0x0035, 0x000A,
		0x0005, 0xC011, // trailing RC4 support
	}
	// listChaChaEdge: mobile-optimized CDN edges preferring
	// ChaCha20-Poly1305 (the source of the paper's 1.7% negotiated share).
	listChaChaEdge = []uint16{
		0xCCA8, 0xCCA9, 0xC02F, 0xC02B, 0xC030, 0xC02C, 0xC013, 0xC014,
		0x009C, 0x002F, 0x0035,
	}
	listDHE = []uint16{
		0x009E, 0x009F, 0x0033, 0x0039, 0x0067, 0x006B, 0xC02F, 0xC030,
		0x002F, 0x0035, 0x000A,
		0x0005, // trailing RC4 support
	}
	listTLS13  = append([]uint16{0x1301, 0x1302, 0x1303}, listModernECDHE...)
	list3DES   = append([]uint16{0x000A, 0x0016, 0xC012}, listModernECDHE...)
	listGrid   = []uint16{0x0002, 0x0001, 0x0000, 0x002F, 0x0035, 0x009C}
	listNagios = []uint16{
		0x001B, 0x0018, 0x0034, 0x003A, 0x0019, 0x0000, 0x0017,
	}
	listInterwise  = []uint16{0x0003, 0x0005}
	listBankmellat = []uint16{
		0x0005, 0x0004, 0xC02F, 0xC030, 0x009C, 0xC013, 0x002F, 0x0035, 0x000A,
	}
	listGOST = []uint16{0x0081, 0x0080, 0x002F, 0x0035}
)
