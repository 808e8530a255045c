package population

import (
	"tlsage/internal/adoption"
	"tlsage/internal/handshake"
	"tlsage/internal/registry"
)

// DefaultServers returns the calibrated study server population.
//
// Calibration targets (paper section → cohort/attribute):
//   - Fig 2: RC4 negotiated 60% (Aug 2013) → ~0 (2018): rc4first-* traffic.
//   - Fig 8: ECDHE shift after Snowden: modern-ecdhe traffic knots.
//   - §5.1: SSL3 server support 45% (Sep 2015) → <25% (May 2018): SSL3Prob
//     plus legacy cohort host weights.
//   - §5.3: servers choosing RC4 vs Chrome-2015 list: 11.2% → 3.4%:
//     rc4first-* + bankmellat host weights.
//   - §5.2: servers choosing CBC: 54% → 35%, biggest drop late-2016→mid-2017:
//     cbc-tls12 + legacy-tls10 host weights.
//   - §5.6: servers choosing 3DES: 0.54% → 0.25%: 3des-pref host weight.
//   - §5.4: Heartbleed 23.7% at disclosure → 0.32% (May 2018); heartbeat
//     support 34% (2018): HeartbeatProb × vulnGivenHeartbeat.
//   - §6.4: TLS 1.3 negotiated 1.3% (Apr 2018): tls13 traffic weight.
func DefaultServers() *ServerPopulation {
	// Heartbeat support among OpenSSL-derived servers, host- and
	// traffic-invariant. 2018 target: ≈34% of all servers.
	hbProb := pw(
		adoption.Point{Date: dd(2012, 1, 1), Value: 0.02},
		adoption.Point{Date: dd(2012, 10, 1), Value: 0.14},
		adoption.Point{Date: dd(2014, 4, 1), Value: 0.30},
		adoption.Point{Date: dd(2016, 1, 1), Value: 0.36},
		adoption.Point{Date: dd(2018, 5, 1), Value: 0.44},
	)
	// Probability a heartbeat-enabled server is unpatched: ~90% the day
	// Heartbleed went public, crashing within weeks (§5.4: "less than 2%
	// of servers vulnerable a month later"), floor 0.8% so that overall
	// vulnerability lands at ≈0.32% in May 2018.
	vuln := adoption.Decay{
		Start: dd(2014, 4, 7), From: 0.90, To: 0.008, HalfLifeDays: 8,
	}
	// SSL3 acceptance for mid-age server fleets.
	ssl3Mid := pw(
		adoption.Point{Date: dd(2012, 1, 1), Value: 0.92},
		adoption.Point{Date: dd(2014, 10, 14), Value: 0.80}, // POODLE
		adoption.Point{Date: dd(2015, 3, 1), Value: 0.62},
		adoption.Point{Date: dd(2015, 9, 1), Value: 0.48},
		adoption.Point{Date: dd(2016, 9, 1), Value: 0.42},
		adoption.Point{Date: dd(2018, 5, 1), Value: 0.33},
	)
	// RC4 *support* (kept at the bottom of the list, never preferred) for
	// mid-age and modern fleets. Calibrated to SSL Pulse (§5.3): 92.8% in
	// Oct 2013 → 19.1% in May 2018.
	rc4Support := pw(
		adoption.Point{Date: dd(2012, 1, 1), Value: 0.95},
		adoption.Point{Date: dd(2013, 10, 1), Value: 0.92},
		adoption.Point{Date: dd(2015, 9, 1), Value: 0.58},
		adoption.Point{Date: dd(2016, 9, 1), Value: 0.32},
		adoption.Point{Date: dd(2018, 5, 1), Value: 0.13},
	)
	// Version intolerance among legacy fleets: the broken boxes behind the
	// fallback dance, dying off over the study.
	intolerant := pw(
		adoption.Point{Date: dd(2012, 1, 1), Value: 0.40},
		adoption.Point{Date: dd(2015, 1, 1), Value: 0.25},
		adoption.Point{Date: dd(2018, 5, 1), Value: 0.10},
	)
	// Modern fleets disable SSL3 fast after POODLE.
	ssl3Modern := pw(
		adoption.Point{Date: dd(2012, 1, 1), Value: 0.70},
		adoption.Point{Date: dd(2014, 10, 14), Value: 0.55},
		adoption.Point{Date: dd(2015, 2, 1), Value: 0.25},
		adoption.Point{Date: dd(2015, 9, 1), Value: 0.17},
		adoption.Point{Date: dd(2018, 5, 1), Value: 0.05},
	)

	cohorts := []Cohort{
		{
			Name: "ssl3only",
			Base: handshake.ServerConfig{
				Name: "ssl3only", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionSSL3,
				Suites:            []uint16{0x0005, 0x0004, 0x000A, 0x0009, 0x0003},
				PreferServerOrder: true,
			},
			Traffic: pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.016},
				adoption.Point{Date: dd(2014, 6, 1), Value: 0.004},
				adoption.Point{Date: dd(2015, 6, 1), Value: 0.0006},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.00008}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.030},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.010}),
			IntolerantProb: intolerant,
		},
		{
			Name: "legacy-tls10",
			Base: handshake.ServerConfig{
				Name: "legacy-tls10", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS10,
				Suites: listLegacy10, Curves: serverCurvesClassic,
			},
			Traffic: pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.30},
				adoption.Point{Date: dd(2013, 8, 1), Value: 0.10},
				adoption.Point{Date: dd(2014, 1, 1), Value: 0.08},
				adoption.Point{Date: dd(2015, 9, 1), Value: 0.055},
				adoption.Point{Date: dd(2016, 6, 1), Value: 0.022},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.006}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.10},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.05}),
			IntolerantProb: intolerant,
		},
		{
			Name: "rc4first-tls10",
			Base: handshake.ServerConfig{
				Name: "rc4first-tls10", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS10,
				Suites: listRC4First10, PreferServerOrder: true, Curves: serverCurvesClassic,
			},
			Traffic: pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.24},
				adoption.Point{Date: dd(2013, 8, 1), Value: 0.22},
				adoption.Point{Date: dd(2014, 6, 1), Value: 0.11},
				adoption.Point{Date: dd(2015, 9, 1), Value: 0.040},
				adoption.Point{Date: dd(2016, 6, 1), Value: 0.010},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.002}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.050},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.014}),
			IntolerantProb: intolerant,
		},
		{
			Name: "rc4first-tls12",
			Base: handshake.ServerConfig{
				Name: "rc4first-tls12", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS12,
				Suites: listRC4First12, PreferServerOrder: true, Curves: serverCurvesClassic,
			},
			Traffic: pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.11},
				adoption.Point{Date: dd(2013, 8, 1), Value: 0.40},
				adoption.Point{Date: dd(2014, 6, 1), Value: 0.26},
				adoption.Point{Date: dd(2015, 3, 1), Value: 0.14},
				adoption.Point{Date: dd(2015, 9, 1), Value: 0.055},
				adoption.Point{Date: dd(2016, 6, 1), Value: 0.016},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.003}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.059},
				adoption.Point{Date: dd(2016, 6, 1), Value: 0.035},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.017}),
			HeartbeatProb: hbProb,
			SSL3Prob:      ssl3Mid,
		},
		{
			Name: "cbc-tls12",
			Base: handshake.ServerConfig{
				Name: "cbc-tls12", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS12,
				Suites: listCBC12, PreferServerOrder: true, Curves: serverCurvesClassic,
			},
			Traffic: pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.24},
				adoption.Point{Date: dd(2013, 8, 1), Value: 0.13},
				adoption.Point{Date: dd(2014, 6, 1), Value: 0.20},
				adoption.Point{Date: dd(2015, 9, 1), Value: 0.19},
				adoption.Point{Date: dd(2016, 10, 1), Value: 0.13},
				adoption.Point{Date: dd(2017, 7, 1), Value: 0.07},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.045}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.44},
				adoption.Point{Date: dd(2016, 10, 1), Value: 0.41},
				adoption.Point{Date: dd(2017, 7, 1), Value: 0.31},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.30}),
			HeartbeatProb: hbProb,
			SSL3Prob:      ssl3Mid,
			RC4Prob:       rc4Support,
		},
		{
			Name: "modern-rsa",
			Base: handshake.ServerConfig{
				Name: "modern-rsa", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12,
				Suites: listModernRSA, PreferServerOrder: true,
			},
			Traffic: pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.015},
				adoption.Point{Date: dd(2013, 6, 1), Value: 0.035},
				adoption.Point{Date: dd(2014, 6, 1), Value: 0.10},
				adoption.Point{Date: dd(2015, 9, 1), Value: 0.085},
				adoption.Point{Date: dd(2016, 6, 1), Value: 0.055},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.030}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.045},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.035}),
			HeartbeatProb: hbProb,
			SSL3Prob:      ssl3Modern,
			RC4Prob:       rc4Support,
		},
		{
			Name: "modern-ecdhe",
			Base: handshake.ServerConfig{
				Name: "modern-ecdhe", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12,
				Suites: listModernECDHE, PreferServerOrder: true, Curves: serverCurvesModern,
			},
			Traffic: pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.035},
				adoption.Point{Date: dd(2013, 5, 1), Value: 0.050},
				adoption.Point{Date: dd(2013, 10, 1), Value: 0.14}, // post-Snowden wave
				adoption.Point{Date: dd(2014, 6, 1), Value: 0.26},
				adoption.Point{Date: dd(2015, 3, 1), Value: 0.38},
				adoption.Point{Date: dd(2015, 9, 1), Value: 0.46},
				adoption.Point{Date: dd(2016, 6, 1), Value: 0.60},
				adoption.Point{Date: dd(2017, 6, 1), Value: 0.70},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.73}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.23},
				adoption.Point{Date: dd(2016, 10, 1), Value: 0.30},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.42}),
			HeartbeatProb: hbProb,
			SSL3Prob:      ssl3Modern,
			RC4Prob:       rc4Support,
		},
		{
			Name: "modern-ecdhe-p384",
			Base: handshake.ServerConfig{
				Name: "modern-ecdhe-p384", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12,
				Suites: listModernECDHE, PreferServerOrder: true, Curves: serverCurvesP384Only,
			},
			Traffic: pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.004},
				adoption.Point{Date: dd(2014, 6, 1), Value: 0.030},
				adoption.Point{Date: dd(2016, 6, 1), Value: 0.055},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.065}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.020},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.030}),
			HeartbeatProb: hbProb,
			SSL3Prob:      ssl3Modern,
			RC4Prob:       rc4Support,
		},
		{
			Name: "chacha-edge",
			Base: handshake.ServerConfig{
				Name: "chacha-edge", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12,
				Suites: listChaChaEdge, PreferServerOrder: true, Curves: serverCurvesModern,
			},
			Traffic: pw(adoption.Point{Date: dd(2015, 6, 1), Value: 0.0},
				adoption.Point{Date: dd(2016, 6, 1), Value: 0.012},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.022}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.0},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.008}),
			SSL3Prob: ssl3Modern,
		},
		{
			Name: "dhe-fs",
			Base: handshake.ServerConfig{
				Name: "dhe-fs", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS12,
				Suites: listDHE, PreferServerOrder: true, Curves: serverCurvesClassic,
			},
			Traffic: pw(adoption.Point{Date: dd(2012, 1, 1), Value: 0.012},
				adoption.Point{Date: dd(2013, 10, 1), Value: 0.035},
				adoption.Point{Date: dd(2014, 9, 1), Value: 0.085},
				adoption.Point{Date: dd(2015, 9, 1), Value: 0.050},
				adoption.Point{Date: dd(2016, 9, 1), Value: 0.028},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.012}),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.040},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.025}),
			HeartbeatProb: hbProb,
			SSL3Prob:      ssl3Mid,
			RC4Prob:       rc4Support,
		},
		{
			Name: "tls13",
			Base: handshake.ServerConfig{
				Name: "tls13", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS13,
				Suites: listTLS13, PreferServerOrder: true, Curves: serverCurvesModern,
				TLS13Variants: []registry.Version{
					registry.VersionTLS13Google, registry.VersionTLS13Draft18,
				},
			},
			Traffic: pw(adoption.Point{Date: dd(2016, 9, 1), Value: 0.0},
				adoption.Point{Date: dd(2016, 11, 1), Value: 0.010},
				adoption.Point{Date: dd(2017, 6, 1), Value: 0.035},
				adoption.Point{Date: dd(2018, 1, 1), Value: 0.050},
				adoption.Point{Date: dd(2018, 4, 1), Value: 0.062}),
			Hosts: pw(adoption.Point{Date: dd(2016, 9, 1), Value: 0.0},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.020}),
			HeartbeatProb: hbProb,
		},
		{
			Name: "3des-pref",
			Base: handshake.ServerConfig{
				Name: "3des-pref", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS12,
				Suites: list3DES, PreferServerOrder: true, Curves: serverCurvesClassic,
			},
			Traffic: adoption.Constant(0.0008),
			Hosts: pw(adoption.Point{Date: dd(2015, 8, 1), Value: 0.0054},
				adoption.Point{Date: dd(2018, 5, 1), Value: 0.0025}),
			SSL3Prob: ssl3Mid,
		},
		// --- Special cohorts with client affinity ---
		{
			Name: "gridftp",
			Base: handshake.ServerConfig{
				Name: "gridftp", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12,
				Suites: listGrid, PreferServerOrder: true,
			},
			Traffic: adoption.Constant(0.004),
			Hosts:   adoption.Constant(0.002),
		},
		{
			Name: "nagios",
			Base: handshake.ServerConfig{
				Name: "nagios", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS10,
				Suites: listNagios, PreferServerOrder: true, SupportsSSLv2: true,
			},
			Traffic: adoption.Constant(0.0015),
			Hosts:   adoption.Constant(0.0005),
		},
		{
			Name: "interwise",
			Base: handshake.ServerConfig{
				Name: "interwise", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS10,
				Suites: listInterwise, Misbehavior: handshake.BehaveExportDowngrade,
			},
			Traffic: adoption.Constant(0.0008),
			Hosts:   adoption.Constant(0.0004),
		},
		{
			Name: "gost",
			Base: handshake.ServerConfig{
				Name: "gost", MinVersion: registry.VersionTLS10, MaxVersion: registry.VersionTLS12,
				Suites: listGOST, Misbehavior: handshake.BehaveChooseGOST,
			},
			Traffic: adoption.Constant(0.0012),
			Hosts:   adoption.Constant(0.0015),
		},
		{
			Name: "rc4-pref-misconfig",
			Base: handshake.ServerConfig{
				Name: "rc4-pref-misconfig", MinVersion: registry.VersionSSL3, MaxVersion: registry.VersionTLS12,
				Suites: listBankmellat, PreferServerOrder: true, Curves: serverCurvesClassic,
				Misbehavior: handshake.BehavePreferRC4,
			},
			Traffic:  adoption.Constant(0.0015),
			Hosts:    adoption.Constant(0.003),
			SSL3Prob: ssl3Mid,
		},
	}

	return newServerPopulation(cohorts, defaultAffinity, vuln)
}

// defaultAffinity routes the client profiles that only talk to their own
// servers to those servers' cohorts, by name; each names a cohort of
// DefaultServers (TestServerPopulationValidates).
var defaultAffinity = map[string]string{
	"Globus GridFTP":   "gridftp",
	"Nagios check_tcp": "nagios",
	"Interwise client": "interwise",
}
