// Package population models who talks to whom on the simulated Internet:
// a client population (traffic share per software profile, time-varying) and
// a server population (configuration cohorts with separate traffic and
// host-census weights, attack-driven attribute dynamics, and affinity rules
// pairing special clients with their servers).
//
// Two weightings per server cohort matter because the paper's two datasets
// measure different universes: the passive Notary weighs servers by the
// connections users actually make (traffic), while Censys weighs every
// reachable IPv4 host equally (hosts). A cohort like "abandoned SSL3-capable
// boxes" is nearly invisible in traffic but large in a host census — which
// is exactly why the paper can report <0.01% SSL3 connections (§5.1)
// alongside 25% SSL3 server support.
package population

import (
	"fmt"
	"math/rand"

	"tlsage/internal/adoption"
	"tlsage/internal/clientdb"
	"tlsage/internal/timeline"
)

// WeightedProfile pairs a client profile with its traffic-share curve.
type WeightedProfile struct {
	Profile *clientdb.Profile
	Weight  adoption.Curve
}

// ClientPopulation is the time-varying mix of client software generating
// Notary traffic.
type ClientPopulation struct {
	entries []WeightedProfile
}

// NewClientPopulation builds a population from explicit weights.
func NewClientPopulation(entries []WeightedProfile) (*ClientPopulation, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("population: empty client population")
	}
	for _, e := range entries {
		if e.Profile == nil || e.Weight == nil {
			return nil, fmt.Errorf("population: nil profile or weight")
		}
		if err := e.Profile.Validate(); err != nil {
			return nil, err
		}
	}
	return &ClientPopulation{entries: entries}, nil
}

// Sample draws a client profile (by traffic weight at d) and a release index
// (by the profile's installed-version mix at d).
func (cp *ClientPopulation) Sample(d timeline.Date, rnd *rand.Rand) (*clientdb.Profile, int) {
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
	return p, p.SampleRelease(d, rnd)
}
