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

// ClientDay is a ClientPopulation at one date, the only way to draw from it:
// every weight a draw at that date reads, evaluated once. A ClientDay is not
// safe for concurrent use.
type ClientDay struct {
	cp   *ClientPopulation
	date timeline.Date
	// cum holds the running sums of the profiles' traffic weights; mix[i]
	// those of profile i's release mix, nil until profile i is first drawn.
	cum []float64
	mix [][]float64
}

// Day returns the population's table for date d.
func (cp *ClientPopulation) Day(d timeline.Date) *ClientDay {
	t := &ClientDay{cp: cp, date: d, cum: make([]float64, len(cp.entries)), mix: make([][]float64, len(cp.entries))}
	for i, e := range cp.entries {
		t.cum[i] = e.Weight.Value(d)
	}
	runningSums(t.cum)
	return t
}

// Sample draws a client profile by traffic weight, then a release index by
// the profile's installed-version mix.
func (t *ClientDay) Sample(rnd *rand.Rand) (*clientdb.Profile, int) {
	i := pick(t.cum, rnd.Float64()*t.cum[len(t.cum)-1])
	return t.cp.entries[i].Profile, t.release(i, rnd)
}

// release draws a release index of profile i.
func (t *ClientDay) release(i int, rnd *rand.Rand) int {
	if t.mix[i] == nil {
		t.mix[i] = runningSums(t.cp.entries[i].Profile.MixAt(t.date))
	}
	return pick(t.mix[i], rnd.Float64())
}

// runningSums replaces each weight of w by the sum of it and those before it,
// added in order, and returns w. They are the float additions, in the order,
// that summing the weights at every draw made, so a day table draws exactly
// what the per-draw sums drew.
func runningSums(w []float64) []float64 {
	acc := 0.0
	for i, v := range w {
		acc += v
		w[i] = acc
	}
	return w
}

// pick is the draw of every table in this package: the index of the first
// running sum above x, or the last index when none is.
func pick(cum []float64, x float64) int {
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}
