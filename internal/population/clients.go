package population

import (
	"time"

	"tlsage/internal/adoption"
	"tlsage/internal/clientdb"
	"tlsage/internal/timeline"
)

func dd(y int, m time.Month, day int) timeline.Date { return timeline.D(y, m, day) }

func pw(points ...adoption.Point) adoption.Curve { return adoption.MustPiecewise(points...) }

// defaultClientWeights is the calibrated traffic share per profile. The
// absolute values are relative weights (normalized at sample time); the
// calibration targets are Table 2's per-class coverage and the
// advertisement figures (3, 6, 7, 10).
//
// Note the split the paper explains under Table 2: "Chrome on Android is
// just identified as Android SDK" — mobile browser traffic is carried by
// the OS library profiles, which is why Libraries (46.49%) dwarf Browsers
// (15.63%) in coverage.
var defaultClientWeights = map[string]adoption.Curve{
	// Desktop browsers (Table 2: 15.63% together).
	"Chrome": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.085},
		adoption.Point{Date: dd(2015, 1, 1), Value: 0.105},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.115}),
	"Firefox": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.075},
		adoption.Point{Date: dd(2015, 1, 1), Value: 0.055},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.035}),
	"Safari": adoption.Constant(0.016),
	"IE/Edge": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.055},
		adoption.Point{Date: dd(2015, 1, 1), Value: 0.030},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.015}),
	"Opera": adoption.Constant(0.005),

	// Libraries (Table 2: 46.49%). Android and iOS carry mobile browsing.
	"OpenSSL": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.150},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.130}),
	"Android SDK": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.070},
		adoption.Point{Date: dd(2015, 1, 1), Value: 0.130},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.165}),
	"Apple Secure Transport": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.080},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.130}),
	"MS CryptoAPI": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.075},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.040}),
	"Java JSSE": adoption.Constant(0.030),
	"Globus GridFTP": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.050}, // §6.1: NULL traffic, 2.84% dataset-wide
		adoption.Point{Date: dd(2015, 1, 1), Value: 0.022},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.005}),

	// OS tools and services (Table 2: 2.29%).
	"Apple Spotlight":  adoption.Constant(0.020),
	"Nagios check_tcp": adoption.Constant(0.002),
	"Interwise client": adoption.Constant(0.0007),

	// Mobile apps (Table 2: 1.35%).
	"Facebook app (bundled TLS)": adoption.Constant(0.010),
	"Hola VPN":                   adoption.Constant(0.0012),
	"Lookout Personal":           adoption.Constant(0.0012),
	"Craftar Image Recognition":  adoption.Constant(0.0007),

	// Dev tools (Table 2: 0.88%).
	"curl/git (OpenSSL)": adoption.Constant(0.007),
	"Shodan scanner":     adoption.Constant(0.002),

	// AV and middleware (Table 2: 0.85%).
	"AV/Proxy (Avast, Blue Coat)": adoption.Constant(0.006),
	"Kaspersky":                   adoption.Constant(0.003),

	// Cloud storage (Table 2: 0.71%).
	"Dropbox": adoption.Constant(0.007),

	// Email (Table 2: 0.58%).
	"Apple Mail":  adoption.Constant(0.004),
	"Thunderbird": adoption.Constant(0.002),

	// Malware & PUP (Table 2: 0.48%).
	"Zbot":         adoption.Constant(0.002),
	"InstallMoney": adoption.Constant(0.0015),

	// Unlabeled long tail (the ~30% outside fingerprint coverage).
	"unknown-tools": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.150},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.130}),
	"unknown-embedded": pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.075},
		adoption.Point{Date: dd(2016, 1, 1), Value: 0.050},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.020}),
	// The mid-2015 two-month spike of anonymous/NULL advertisers (§6.2:
	// 5.8% → 12.9% and back).
	"unknown-legacyapp": pw(
		adoption.Point{Date: dd(2012, 1, 1), Value: 0.030},
		adoption.Point{Date: dd(2015, 5, 20), Value: 0.030},
		adoption.Point{Date: dd(2015, 6, 15), Value: 0.095},
		adoption.Point{Date: dd(2015, 8, 15), Value: 0.095},
		adoption.Point{Date: dd(2015, 9, 20), Value: 0.040},
		adoption.Point{Date: dd(2018, 4, 1), Value: 0.030}),
	// Cipher-order randomizer: tiny traffic, huge fingerprint count (§4.1).
	"unknown-randomizer": adoption.Constant(0.004),
}

// DefaultClients returns the calibrated study client population: every
// clientdb profile, weighted by defaultClientWeights, which names each of
// them (TestDefaultClientsCoversAllProfiles).
func DefaultClients() *ClientPopulation {
	var entries []WeightedProfile
	for _, p := range clientdb.AllProfiles() {
		entries = append(entries, WeightedProfile{Profile: p, Weight: defaultClientWeights[p.Name]})
	}
	return NewClientPopulation(entries)
}
