package population

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tlsage/internal/clientdb"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// The normalized views below are how the calibration tests read the model;
// the simulator itself only ever draws from it (its day tables).

// Weights returns the normalized traffic share per profile name at date d.
func (cp *ClientPopulation) Weights(d timeline.Date) map[string]float64 {
	out := make(map[string]float64, len(cp.entries))
	total := 0.0
	for _, e := range cp.entries {
		w := e.Weight.Value(d)
		out[e.Profile.Name] = w
		total += w
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}

// ClassShare sums normalized weights per fingerprint class at d, splitting
// labeled and unlabeled mass — the quantities behind Table 2's coverage
// column.
func (cp *ClientPopulation) ClassShare(d timeline.Date) (byClass map[clientdb.Class]float64, unlabeled float64) {
	byClass = make(map[clientdb.Class]float64)
	w := cp.Weights(d)
	for _, e := range cp.entries {
		share := w[e.Profile.Name]
		if e.Profile.Unlabeled {
			unlabeled += share
			continue
		}
		byClass[e.Profile.Class] += share
	}
	return byClass, unlabeled
}

// Weights returns normalized cohort weights at d in the given universe.
func (sp *ServerPopulation) Weights(d timeline.Date, u Universe) map[string]float64 {
	out := make(map[string]float64, len(sp.cohorts))
	total := 0.0
	for _, c := range sp.cohorts {
		w := c.curve(u).Value(d)
		out[c.Name] = w
		total += w
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
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

// TestDefaultClientsCoversAllProfiles: every clientdb profile has a weight
// curve, and every weight names a profile.
func TestDefaultClientsCoversAllProfiles(t *testing.T) {
	cp := DefaultClients()
	if len(cp.entries) != len(clientdb.AllProfiles()) {
		t.Fatalf("population covers %d profiles, clientdb has %d",
			len(cp.entries), len(clientdb.AllProfiles()))
	}
	for _, e := range cp.entries {
		if e.Weight == nil {
			t.Errorf("no weight for profile %s", e.Profile.Name)
		}
	}
	if len(defaultClientWeights) != len(cp.entries) {
		t.Errorf("%d weights for %d profiles", len(defaultClientWeights), len(cp.entries))
	}
}

func TestClientWeightsNormalized(t *testing.T) {
	cp := DefaultClients()
	for _, d := range []timeline.Date{
		timeline.D(2012, time.March, 15), timeline.D(2015, time.July, 15),
		timeline.D(2018, time.April, 15),
	} {
		w := cp.Weights(d)
		sum := 0.0
		for _, v := range w {
			if v < 0 {
				t.Fatalf("negative weight at %v", d)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights at %v sum to %v", d, sum)
		}
	}
}

func TestClassSharesMatchTable2Shape(t *testing.T) {
	// Table 2's coverage ordering: Libraries ≫ Browsers ≫ everything else,
	// with roughly 30% unlabeled.
	cp := DefaultClients()
	byClass, unlabeled := cp.ClassShare(timeline.D(2016, time.June, 15))
	if byClass[clientdb.ClassLibrary] <= byClass[clientdb.ClassBrowser] {
		t.Errorf("Libraries (%0.3f) should exceed Browsers (%0.3f)",
			byClass[clientdb.ClassLibrary], byClass[clientdb.ClassBrowser])
	}
	if byClass[clientdb.ClassBrowser] <= byClass[clientdb.ClassOSTool] {
		t.Errorf("Browsers (%0.3f) should exceed OS tools (%0.3f)",
			byClass[clientdb.ClassBrowser], byClass[clientdb.ClassOSTool])
	}
	if unlabeled < 0.18 || unlabeled > 0.42 {
		t.Errorf("unlabeled share = %0.3f, want ≈0.30", unlabeled)
	}
	labeled := 1 - unlabeled
	if labeled < 0.55 || labeled > 0.85 {
		t.Errorf("labeled share = %0.3f, want ≈0.69 (Table 2)", labeled)
	}
}

func TestClientSampleDistribution(t *testing.T) {
	cp := DefaultClients()
	rnd := rand.New(rand.NewSource(5))
	d := timeline.D(2016, time.June, 15)
	counts := map[string]int{}
	const n = 20000
	day := cp.Day(d)
	for i := 0; i < n; i++ {
		p, idx := day.Sample(rnd)
		counts[p.Name]++
		if idx < 0 || idx >= len(p.Releases) {
			t.Fatal("release index out of range")
		}
	}
	w := cp.Weights(d)
	// Spot-check the two biggest profiles within 2 percentage points.
	for _, name := range []string{"Android SDK", "OpenSSL"} {
		got := float64(counts[name]) / n
		if math.Abs(got-w[name]) > 0.02 {
			t.Errorf("%s sampled share %0.3f vs weight %0.3f", name, got, w[name])
		}
	}
}

// TestPickFallsThroughToLast: a draw at or above the last running sum, which
// float rounding can make of rnd.Float64() times the total, takes the last
// entry instead of running off the table.
func TestPickFallsThroughToLast(t *testing.T) {
	cum := []float64{0.25, 0.5, 0.75}
	for x, want := range map[float64]int{0: 0, 0.25: 1, 0.74: 2, 0.75: 2, 1: 2} {
		if got := pick(cum, x); got != want {
			t.Errorf("pick(%v, %v) = %d, want %d", cum, x, got, want)
		}
	}
}

// TestServerPopulationValidates checks the static server tables: every
// cohort's base config is valid and has both weight curves, and every
// affinity route names a cohort.
func TestServerPopulationValidates(t *testing.T) {
	sp := DefaultServers()
	if len(sp.cohorts) < 12 {
		t.Errorf("expected ≥12 cohorts, got %d", len(sp.cohorts))
	}
	for i := range sp.cohorts {
		c := &sp.cohorts[i]
		if err := c.Base.Validate(); err != nil {
			t.Errorf("cohort %s: %v", c.Name, err)
		}
		if c.Traffic == nil || c.Hosts == nil {
			t.Errorf("cohort %s misses a weight curve", c.Name)
		}
	}
	if len(sp.affinity) != len(defaultAffinity) {
		t.Errorf("affinity routes %v resolve to %v: one names an unknown cohort", defaultAffinity, sp.affinity)
	}
}

func TestServerWeightsNormalized(t *testing.T) {
	sp := DefaultServers()
	for _, u := range []Universe{ByTraffic, ByHosts} {
		for _, d := range []timeline.Date{
			timeline.D(2013, time.August, 15), timeline.D(2015, time.September, 15),
			timeline.D(2018, time.April, 15),
		} {
			w := sp.Weights(d, u)
			sum := 0.0
			for _, v := range w {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("universe %d weights at %v sum to %v", u, d, sum)
			}
		}
	}
}

func TestRC4CohortTrafficPeaksAugust2013(t *testing.T) {
	// Fig 2: RC4 negotiation peaked around 60% in August 2013.
	sp := DefaultServers()
	w := sp.Weights(timeline.D(2013, time.August, 15), ByTraffic)
	rc4 := w["rc4first-tls10"] + w["rc4first-tls12"]
	if rc4 < 0.50 || rc4 > 0.70 {
		t.Errorf("RC4-preferring traffic share Aug 2013 = %0.3f, want ≈0.60", rc4)
	}
	w2018 := sp.Weights(timeline.D(2018, time.March, 15), ByTraffic)
	if tail := w2018["rc4first-tls10"] + w2018["rc4first-tls12"]; tail > 0.02 {
		t.Errorf("RC4-preferring traffic share 2018 = %0.3f, want ≈0", tail)
	}
}

func TestRC4HostSharesMatchCensysScalars(t *testing.T) {
	// §5.3: 11.2% of hosts chose RC4 in Sep 2015, 3.4% in May 2018.
	sp := DefaultServers()
	rc4Choosers := func(d timeline.Date) float64 {
		w := sp.Weights(d, ByHosts)
		return w["rc4first-tls10"] + w["rc4first-tls12"] + w["rc4-pref-misconfig"]
	}
	if got := rc4Choosers(timeline.D(2015, time.September, 15)); math.Abs(got-0.112) > 0.02 {
		t.Errorf("RC4-choosing hosts Sep 2015 = %0.3f, want ≈0.112", got)
	}
	if got := rc4Choosers(timeline.D(2018, time.May, 13)); math.Abs(got-0.034) > 0.01 {
		t.Errorf("RC4-choosing hosts May 2018 = %0.3f, want ≈0.034", got)
	}
}

func TestSSL3HostSupportMatchesCensys(t *testing.T) {
	// §5.1: >45% of servers supported SSL3 in Sep 2015, <25% in May 2018.
	sp := DefaultServers()
	rnd := rand.New(rand.NewSource(9))
	support := func(d timeline.Date) float64 {
		n, hits := 60000, 0
		census := sp.Day(d)
		for i := 0; i < n; i++ {
			cfg := census.Sample(ByHosts, rnd)
			if cfg.MinVersion <= registry.VersionSSL3 {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	sep15 := support(timeline.D(2015, time.September, 15))
	may18 := support(timeline.D(2018, time.May, 13))
	if sep15 < 0.40 || sep15 > 0.52 {
		t.Errorf("SSL3 support Sep 2015 = %0.3f, want ≈0.45", sep15)
	}
	if may18 < 0.15 || may18 > 0.25 {
		t.Errorf("SSL3 support May 2018 = %0.3f, want <0.25 (≈0.22)", may18)
	}
	if may18 >= sep15 {
		t.Error("SSL3 support should decline")
	}
}

func TestHeartbleedDynamics(t *testing.T) {
	sp := DefaultServers()
	rnd := rand.New(rand.NewSource(10))
	measure := func(d timeline.Date) (hb, vuln float64) {
		n := 60000
		var nhb, nv int
		census := sp.Day(d)
		for i := 0; i < n; i++ {
			cfg := census.Sample(ByHosts, rnd)
			if cfg.HeartbeatEnabled {
				nhb++
			}
			if cfg.HeartbleedVulnerable {
				nv++
			}
		}
		return float64(nhb) / float64(n), float64(nv) / float64(n)
	}
	// At disclosure: ≈24% vulnerable (paper: at least 23.7%).
	_, vulnAtDisclosure := measure(timeline.D(2014, time.April, 8))
	if vulnAtDisclosure < 0.17 || vulnAtDisclosure > 0.30 {
		t.Errorf("vulnerable at disclosure = %0.3f, want ≈0.24", vulnAtDisclosure)
	}
	// A month later: below 3% (paper: <2% within a month, 5.9% first scan).
	_, vulnMonthLater := measure(timeline.D(2014, time.May, 10))
	if vulnMonthLater > 0.04 {
		t.Errorf("vulnerable a month later = %0.3f, want <0.04", vulnMonthLater)
	}
	// May 2018: heartbeat ≈34%, vulnerable ≈0.32%.
	hb2018, vuln2018 := measure(timeline.D(2018, time.May, 13))
	if hb2018 < 0.25 || hb2018 > 0.42 {
		t.Errorf("heartbeat support 2018 = %0.3f, want ≈0.34", hb2018)
	}
	if vuln2018 < 0.001 || vuln2018 > 0.007 {
		t.Errorf("vulnerable 2018 = %0.4f, want ≈0.0032", vuln2018)
	}
}

func TestAffinityRouting(t *testing.T) {
	sp := DefaultServers()
	rnd := rand.New(rand.NewSource(11))
	day := sp.Day(timeline.D(2015, time.June, 15))
	v := day.DrawForClient("Nagios check_tcp", rnd)
	if c := sp.Cohort(v); c.Name != "nagios" || !sp.Config(v).SupportsSSLv2 {
		t.Errorf("nagios affinity broken: %s", c.Name)
	}
	if c := sp.Cohort(day.DrawForClient("Globus GridFTP", rnd)); c.Name != "gridftp" {
		t.Errorf("gridftp affinity broken: %s", c.Name)
	}
	if c := sp.Cohort(day.DrawForClient("Interwise client", rnd)); c.Name != "interwise" {
		t.Errorf("interwise affinity broken: %s", c.Name)
	}
	// Ordinary clients never land on special cohorts deterministically.
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		seen[sp.Cohort(day.DrawForClient("Chrome", rnd)).Name] = true
	}
	if len(seen) < 3 {
		t.Error("Chrome should spread across cohorts")
	}
}

func TestInstantiateDoesNotMutateBase(t *testing.T) {
	sp := DefaultServers()
	rnd := rand.New(rand.NewSource(12))
	c, ok := sp.CohortByName("modern-ecdhe")
	if !ok {
		t.Fatal("cohort missing")
	}
	baseMin := c.Base.MinVersion
	day := sp.Day(timeline.D(2013, time.June, 15))
	for i := 0; i < 200; i++ {
		day.Sample(ByTraffic, rnd)
	}
	if c.Base.MinVersion != baseMin {
		t.Error("Sample mutated cohort base config")
	}
}

func TestTLS13CohortOnlyAfter2016(t *testing.T) {
	sp := DefaultServers()
	w := sp.Weights(timeline.D(2015, time.June, 15), ByTraffic)
	if w["tls13"] > 0 {
		t.Error("tls13 cohort present before 2016")
	}
	w = sp.Weights(timeline.D(2018, time.April, 15), ByTraffic)
	if w["tls13"] < 0.03 || w["tls13"] > 0.10 {
		t.Errorf("tls13 traffic share Apr 2018 = %0.3f, want ≈0.06", w["tls13"])
	}
}
