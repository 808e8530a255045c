package adoption

import (
	"math"

	"tlsage/internal/timeline"
)

// LagDistribution is the CDF of the delay between a software release and a
// user running it. It mixes three sub-populations:
//
//   - a FastShare that upgrades with mean FastTauDays (auto-updating
//     browsers: days to weeks),
//   - a slow remainder with mean SlowTauDays (OS-bundled libraries,
//     enterprise fleets: months to years),
//   - a NeverShare that never upgrades at all — the abandoned devices and
//     unmaintained software behind the paper's long-tail findings (§7.2:
//     fingerprints unchanged for 1,200+ days, Android 2.3 devices, etc.).
type LagDistribution struct {
	FastShare   float64
	FastTauDays float64
	SlowTauDays float64
	NeverShare  float64
}

// Adopted returns the fraction of the population that has adopted a release
// daysSince days after it shipped. Monotone nondecreasing in daysSince,
// bounded by 1-NeverShare.
func (l LagDistribution) Adopted(daysSince int) float64 {
	if daysSince < 0 {
		return 0
	}
	d := float64(daysSince)
	fast := 1 - math.Exp(-d/l.FastTauDays)
	slow := 1 - math.Exp(-d/l.SlowTauDays)
	slowShare := 1 - l.FastShare - l.NeverShare
	return clamp01(l.FastShare*fast + slowShare*slow)
}

// Canonical lag profiles used by the client population model. Values are
// calibrated so the reproduction's curves match the paper's shapes: browsers
// move in weeks (Figure 6's cliff when Chrome/Firefox dropped RC4), while
// library-linked tools take years (Figure 4's 39.9%-still-offer-RC4 tail).
var (
	// BrowserLag: auto-updating browsers. ~70% within ~3 weeks, most of the
	// rest within months, 3% never (abandoned OS installs).
	BrowserLag = LagDistribution{FastShare: 0.70, FastTauDays: 21, SlowTauDays: 240, NeverShare: 0.015}
	// LibraryLag: TLS libraries shipped with apps or operating systems.
	LibraryLag = LagDistribution{FastShare: 0.25, FastTauDays: 90, SlowTauDays: 360, NeverShare: 0.02}
	// DeviceLag: embedded/IoT/abandoned mobile software; most never updates.
	DeviceLag = LagDistribution{FastShare: 0.20, FastTauDays: 120, SlowTauDays: 480, NeverShare: 0.04}
)

// Release is one dated version of a product.
type Release struct {
	Version string
	Date    timeline.Date
}

// VersionMix computes the share of a product's installed base running each
// release at date d, under lag. The result has len(releases)+1 entries:
// index 0 is the share still on a hypothetical pre-history version (nothing
// adopted yet), and index i+1 the share whose newest adopted release is
// releases[i]. Shares sum to 1. Releases must be in chronological order.
func VersionMix(releases []Release, d timeline.Date, lag LagDistribution) []float64 {
	n := len(releases)
	out := make([]float64, n+1)
	if n == 0 {
		out[0] = 1
		return out
	}
	// adopted[i] = fraction having upgraded to release i or newer. Because
	// releases are chronological and Adopted is monotone in elapsed time,
	// adopted is nonincreasing in i — but enforce it anyway so that a
	// never-share applied to dense release trains cannot produce negative
	// slices.
	adopted := make([]float64, n)
	prev := 1.0
	for i, r := range releases {
		a := lag.Adopted(d.DaysSince(r.Date))
		if a > prev {
			a = prev
		}
		adopted[i] = a
		prev = a
	}
	out[0] = 1 - adopted[0]
	for i := 0; i < n-1; i++ {
		out[i+1] = adopted[i] - adopted[i+1]
	}
	out[n] = adopted[n-1]
	return out
}
