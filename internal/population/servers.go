package population

import (
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
	// (Nagios checks hit Nagios servers, GridFTP hits GRID endpoints, ...),
	// by cohort index.
	affinity map[string]int
	// vulnGivenHeartbeat is the global probability that a heartbeat-enabled
	// server is still Heartbleed-vulnerable (§5.4 patch dynamics).
	vulnGivenHeartbeat adoption.Curve
	// noRC4 holds, by cohort, the cohort's base suites without RC4: what a
	// server that no longer supports RC4 keeps. Shared like the base lists.
	noRC4 [][]uint16
}

// newServerPopulation resolves what a draw reads by name or would recompute:
// each affinity target's cohort index and each cohort's RC4-stripped suites.
// An affinity route to a cohort that is not there routes nothing.
func newServerPopulation(cohorts []Cohort, affinity map[string]string, vulnGivenHeartbeat adoption.Curve) *ServerPopulation {
	sp := &ServerPopulation{cohorts: cohorts, affinity: make(map[string]int, len(affinity)),
		vulnGivenHeartbeat: vulnGivenHeartbeat, noRC4: make([][]uint16, len(cohorts))}
	for i := range cohorts {
		sp.noRC4[i] = stripRC4(cohorts[i].Base.Suites)
		for client, cohort := range affinity {
			if cohort == cohorts[i].Name {
				sp.affinity[client] = i
			}
		}
	}
	return sp
}

func (c *Cohort) curve(u Universe) adoption.Curve {
	if u == ByHosts {
		return c.Hosts
	}
	return c.Traffic
}

// ServerDay is a ServerPopulation at one date, the only way to draw from it:
// every weight and probability a draw at that date reads, evaluated once.
type ServerDay struct {
	sp *ServerPopulation
	// cum holds, by universe, the running sums of the cohorts' weights.
	cum [2][]float64
	// attrs holds each cohort's attribute probabilities (0 for a nil curve,
	// which is never rolled).
	attrs []cohortDay
	// vuln is vulnGivenHeartbeat's value.
	vuln float64
}

// cohortDay is one cohort's attribute probabilities at a date.
type cohortDay struct {
	heartbeat, ssl3, intolerant, rc4 float64
}

// Day returns the population's table for date d.
func (sp *ServerPopulation) Day(d timeline.Date) *ServerDay {
	t := &ServerDay{sp: sp, attrs: make([]cohortDay, len(sp.cohorts)), vuln: sp.vulnGivenHeartbeat.Value(d)}
	value := func(c adoption.Curve) float64 {
		if c == nil {
			return 0
		}
		return c.Value(d)
	}
	for u := range t.cum {
		t.cum[u] = make([]float64, len(sp.cohorts))
		for i := range sp.cohorts {
			t.cum[u][i] = sp.cohorts[i].curve(Universe(u)).Value(d)
		}
	}
	runningSums(t.cum[ByTraffic])
	runningSums(t.cum[ByHosts])
	for i := range sp.cohorts {
		c := &sp.cohorts[i]
		t.attrs[i] = cohortDay{value(c.HeartbeatProb), value(c.SSL3Prob), value(c.IntolerantProb), value(c.RC4Prob)}
	}
	return t
}

// Variant is one server a draw makes: a cohort and the attributes the draw
// rolled for it. Equal variants of one population instantiate equal configs,
// so what a server answers a hello is a function of the hello and the variant.
type Variant struct {
	cohort uint16
	attrs  uint8
}

// The attributes a draw rolls, as Variant.attrs bits.
const (
	attrHeartbeat uint8 = 1 << iota
	attrVulnerable
	attrSSL3
	attrIntolerant
	attrNoRC4
)

// Sample draws a cohort by its weight in universe u and instantiates a
// concrete ServerConfig from it (attribute probabilities rolled).
func (t *ServerDay) Sample(u Universe, rnd *rand.Rand) *handshake.ServerConfig {
	return t.sp.Config(t.Draw(u, rnd))
}

// Draw draws a cohort by its weight in universe u and rolls its attributes.
func (t *ServerDay) Draw(u Universe, rnd *rand.Rand) Variant {
	cum := t.cum[u]
	return t.roll(pick(cum, rnd.Float64()*cum[len(cum)-1]), rnd)
}

// DrawForClient draws the server of a passive connection from the named
// client profile, honouring affinity routes.
func (t *ServerDay) DrawForClient(clientProfile string, rnd *rand.Rand) Variant {
	if i, ok := t.sp.affinity[clientProfile]; ok {
		return t.roll(i, rnd)
	}
	return t.Draw(ByTraffic, rnd)
}

// roll rolls cohort i's attributes, one draw for each probability the cohort
// has (and the vulnerability draw after a heartbeat).
func (t *ServerDay) roll(i int, rnd *rand.Rand) Variant {
	c, p := &t.sp.cohorts[i], &t.attrs[i]
	v := Variant{cohort: uint16(i)}
	if c.HeartbeatProb != nil && rnd.Float64() < p.heartbeat {
		v.attrs |= attrHeartbeat
		if rnd.Float64() < t.vuln {
			v.attrs |= attrVulnerable
		}
	}
	if c.SSL3Prob != nil && rnd.Float64() < p.ssl3 {
		v.attrs |= attrSSL3
	}
	if c.IntolerantProb != nil && rnd.Float64() < p.intolerant {
		v.attrs |= attrIntolerant
	}
	if c.RC4Prob != nil && rnd.Float64() >= p.rc4 {
		v.attrs |= attrNoRC4
	}
	return v
}

// Cohort returns v's cohort.
func (sp *ServerPopulation) Cohort(v Variant) *Cohort { return &sp.cohorts[v.cohort] }

// Config instantiates v: a copy of its cohort's base config with the rolled
// attributes applied.
func (sp *ServerPopulation) Config(v Variant) *handshake.ServerConfig {
	c := &sp.cohorts[v.cohort]
	cfg := c.Base // value copy; slices are shared but never mutated
	if v.attrs&attrHeartbeat != 0 {
		cfg.HeartbeatEnabled = true
		if v.attrs&attrVulnerable != 0 {
			cfg.HeartbleedVulnerable = true
		}
	}
	if c.SSL3Prob != nil {
		if v.attrs&attrSSL3 != 0 {
			cfg.MinVersion = registry.VersionSSL3
		} else if cfg.MinVersion < registry.VersionTLS10 {
			cfg.MinVersion = registry.VersionTLS10
		}
	}
	if v.attrs&attrIntolerant != 0 {
		cfg.VersionIntolerant = true
	}
	if v.attrs&attrNoRC4 != 0 {
		cfg.Suites = sp.noRC4[v.cohort]
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
