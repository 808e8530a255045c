package population

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tlsage/internal/clientdb"
	"tlsage/internal/handshake"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// refClientSample is the body ClientPopulation.Sample had before it drew
// through a ClientDay: every weight evaluated per draw, then
// Profile.SampleRelease's walk over a fresh MixAt.
func refClientSample(cp *ClientPopulation, d timeline.Date, rnd *rand.Rand) (*clientdb.Profile, int) {
	total := 0.0
	weights := make([]float64, len(cp.entries))
	for i, e := range cp.entries {
		w := e.Weight.Value(d)
		weights[i] = w
		total += w
	}
	x := rnd.Float64() * total
	acc := 0.0
	idx := len(cp.entries) - 1
	for i, w := range weights {
		acc += w
		if x < acc {
			idx = i
			break
		}
	}
	p := cp.entries[idx].Profile
	mix := p.MixAt(d)
	x = rnd.Float64()
	acc = 0.0
	for i, w := range mix {
		acc += w
		if x < acc {
			return p, i
		}
	}
	return p, len(mix) - 1
}

// refServerSample is the body ServerPopulation.Sample had before it drew
// through a ServerDay, with instantiate's: every curve evaluated per draw,
// twice for the weights, and the RC4 strip copied per draw.
func refServerSample(sp *ServerPopulation, d timeline.Date, u Universe, rnd *rand.Rand) (*Cohort, *handshake.ServerConfig) {
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
	return c, refInstantiate(sp, c, d, rnd)
}

// refSampleForClient is the body the draw for a client profile had: the
// affinity target by name, then CohortByName's scan.
func refSampleForClient(sp *ServerPopulation, targets map[string]string, clientProfile string, d timeline.Date, rnd *rand.Rand) (*Cohort, *handshake.ServerConfig) {
	if target, ok := targets[clientProfile]; ok {
		if c, found := sp.CohortByName(target); found {
			return c, refInstantiate(sp, c, d, rnd)
		}
	}
	return refServerSample(sp, d, ByTraffic, rnd)
}

func refInstantiate(sp *ServerPopulation, c *Cohort, d timeline.Date, rnd *rand.Rand) *handshake.ServerConfig {
	cfg := c.Base
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

// On every day of the study window, for several seeds: each draw of a day
// table — clients, servers in both universes, servers for every affinity
// profile and for an ordinary one — gives the reference body's profile and
// release, or cohort and config (the drawn variant's), and leaves rnd where
// the reference leaves it.
func TestDayDrawsMatchReference(t *testing.T) {
	cp, sp := DefaultClients(), DefaultServers()
	targets := map[string]string{}
	for client, i := range sp.affinity {
		targets[client] = sp.cohorts[i].Name
	}
	clients := []string{"Chrome"}
	for client := range targets {
		clients = append(clients, client)
	}
	if len(clients) != 4 {
		t.Fatalf("%d affinity routes, want 3", len(clients)-1)
	}
	same := func(where string, a, b *rand.Rand) {
		t.Helper()
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("%s: the day table leaves rnd at %d, the reference at %d", where, x, y)
		}
	}
	sameServer := func(where string, c *Cohort, cfg *handshake.ServerConfig, rc *Cohort, rcfg *handshake.ServerConfig) {
		t.Helper()
		if c != rc || !reflect.DeepEqual(*cfg, *rcfg) {
			t.Fatalf("%s: day table drew %s %+v, reference %s %+v", where, c.Name, *cfg, rc.Name, *rcfg)
		}
	}
	start := time.Date(timeline.StudyStart.Year, timeline.StudyStart.M, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(timeline.StudyEnd.Year, timeline.StudyEnd.M+1, 1, 0, 0, 0, 0, time.UTC)
	days := 0
	for day := start; day.Before(end); day = day.AddDate(0, 0, 1) {
		d := timeline.D(day.Year(), day.Month(), day.Day())
		cd, sd := cp.Day(d), sp.Day(d)
		for seed := int64(1); seed <= 3; seed++ {
			mine, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for i := 0; i < 4; i++ {
				where := fmt.Sprintf("%s seed %d draw %d", d, seed, i)
				p, rel := cd.Sample(mine)
				rp, rrel := refClientSample(cp, d, ref)
				if p != rp || rel != rrel {
					t.Fatalf("%s: day table drew %s release %d, reference %s release %d", where, p.Name, rel, rp.Name, rrel)
				}
				same(where+" (clients)", mine, ref)
				for _, u := range []Universe{ByTraffic, ByHosts} {
					v := sd.Draw(u, mine)
					rc, rcfg := refServerSample(sp, d, u, ref)
					sameServer(fmt.Sprintf("%s universe %d", where, u), sp.Cohort(v), sp.Config(v), rc, rcfg)
					same(fmt.Sprintf("%s universe %d", where, u), mine, ref)
				}
				for _, client := range clients {
					v := sd.DrawForClient(client, mine)
					rc, rcfg := refSampleForClient(sp, targets, client, d, ref)
					sameServer(where+" for "+client, sp.Cohort(v), sp.Config(v), rc, rcfg)
					same(where+" for "+client, mine, ref)
				}
			}
		}
		days++
	}
	if days < 75*28 {
		t.Fatalf("only %d days compared", days)
	}
}

// The simulator draws from its day tables on every connection: once each
// profile's release mix is built, a client draw allocates nothing, nor does a
// server's variant; Sample allocates only the ServerConfig it returns.
func TestDayDrawAllocs(t *testing.T) {
	d := timeline.D(2015, time.June, 15)
	cd, sd := DefaultClients().Day(d), DefaultServers().Day(d)
	rnd := rand.New(rand.NewSource(1))
	for i := range cd.mix {
		cd.release(i, rnd)
	}
	if n := testing.AllocsPerRun(1000, func() { cd.Sample(rnd) }); n != 0 {
		t.Errorf("ClientDay.Sample allocates %v times", n)
	}
	for name, draw := range map[string]func(){
		"Draw(ByTraffic)":       func() { sd.Draw(ByTraffic, rnd) },
		"Draw(ByHosts)":         func() { sd.Draw(ByHosts, rnd) },
		"DrawForClient(Chrome)": func() { sd.DrawForClient("Chrome", rnd) },
		"DrawForClient(Nagios)": func() { sd.DrawForClient("Nagios check_tcp", rnd) },
	} {
		if n := testing.AllocsPerRun(1000, draw); n != 0 {
			t.Errorf("ServerDay.%s allocates %v times", name, n)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { sd.Sample(ByHosts, rnd) }); n > 1 {
		t.Errorf("ServerDay.Sample allocates %v times, want only its ServerConfig", n)
	}
}

func TestSampleReleaseDeterministicBounds(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	cp := DefaultClients()
	day := cp.Day(timeline.D(2015, time.June, 15))
	i := 0
	for cp.entries[i].Profile.Name != "Firefox" {
		i++
	}
	p := cp.entries[i].Profile
	for n := 0; n < 200; n++ {
		idx := day.release(i, rnd)
		if idx < 0 || idx >= len(p.Releases) {
			t.Fatalf("index out of range: %d", idx)
		}
		// In mid-2015 Firefox 60 (2018) must never be sampled.
		if p.Releases[idx].Version == "60" {
			t.Fatal("future release sampled")
		}
	}
}
