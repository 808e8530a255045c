package clientdb

import (
	"time"

	"tlsage/internal/adoption"
	"tlsage/internal/registry"
)

// Unlabeled profiles: the long tail of TLS software the study's fingerprint
// database could not attribute (Table 2 covers 69.23% of connections; these
// profiles model the remainder). They matter for every advertisement figure
// — in particular the unexplained mid-2015 spike of anonymous/NULL cipher
// advertisement (§6.2) originates here.

// unknownTools: generic OpenSSL-linked utilities and services following the
// library's configuration era with extra delay.
var unknownTools = &Profile{
	Name:      "unknown-tools",
	Class:     ClassLibrary,
	Unlabeled: true,
	Lag:       adoption.LibraryLag,
	Releases: []VersionConfig{
		{"old", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 13), take(rc4Pool, 2), take(tdesPool, 2),
				take(desPool, 1)),
			Extensions: extsMinimal, Curves: curvesClassic, PointFormats: pfAll,
			SSL3Fallback: true,
		}},
		{"tls12", d(2013, time.June, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionSSL3,
			Suites: concat(take(aeadPool, 4), take(cbcAESPool, 11), take(rc4Pool, 2),
				take(tdesPool, 2)),
			Extensions: extsOpenSSL101, Curves: curvesClassic, PointFormats: pfAll,
			HeartbeatMode: 1, SSL3Fallback: true,
		}},
		{"modern", d(2016, time.October, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     concat(take(aeadPool, 6), take(cbcAESPool, 8), take(tdesPool, 1)),
			Extensions: extsEra2016, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

// unknownEmbedded: firmware, printers, IoT — TLS 1.0 lists frozen for years,
// export and DES suites included (§7.2's smart light bulbs).
var unknownEmbedded = &Profile{
	Name:      "unknown-embedded",
	Class:     ClassLibrary,
	Unlabeled: true,
	Lag:       adoption.DeviceLag,
	Releases: []VersionConfig{
		{"fw1", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 8), take(rc4Pool, 3), take(tdesPool, 2),
				desPool, take(exportPool, 4)),
			Extensions:   extsMinimal,
			SSL3Fallback: true,
		}},
		{"fw2", d(2014, time.June, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 10), take(rc4Pool, 2), take(tdesPool, 2),
				take(desPool, 1)),
			Extensions:   extsMinimal,
			SSL3Fallback: true,
		}},
		{"fw3", d(2016, time.March, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     concat(take(aeadPool, 2), take(cbcAESPool, 8), take(tdesPool, 1)),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

// unknownLegacyApp: the unidentifiable client software that advertises
// anonymous and NULL suites alongside regular ones (§6.1, §6.2: "we could
// not determine the vast majority of applications responsible"). Its traffic
// weight spikes in mid-2015 — the two-month anomaly in Figure 7.
var unknownLegacyApp = &Profile{
	Name:      "unknown-legacyapp",
	Class:     ClassLibrary,
	Unlabeled: true,
	Lag:       adoption.DeviceLag,
	Releases: []VersionConfig{
		{"v1", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 6), take(rc4Pool, 2),
				take(anonPool, 5), take(nullPool, 3)),
			Extensions:   extsMinimal,
			SSL3Fallback: true,
		}},
		{"v2", d(2015, time.October, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites: concat(take(aeadPool, 2), take(cbcAESPool, 6),
				take(anonPool, 4), take(nullPool, 2)),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

// unknownRandomizer: software emitting a different cipher order on every
// connection — the paper's hypothesis for the 42,188 fingerprints seen on a
// single day only (§4.1: "software that does not send its ciphersuites in a
// fixed order, due to a bug, perhaps"). The population layer shuffles its
// suites per connection.
var unknownRandomizer = &Profile{
	Name:      "unknown-randomizer",
	Class:     ClassLibrary,
	Unlabeled: true,
	Lag:       adoption.DeviceLag,
	Releases: []VersionConfig{
		{"v1", d(2014, time.October, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites: concat(take(aeadPool, 4), take(cbcAESPool, 10), take(rc4Pool, 2),
				take(tdesPool, 2)),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

var unknownProfiles = []*Profile{
	unknownTools, unknownEmbedded, unknownLegacyApp, unknownRandomizer,
}

// RandomizerProfileName is the profile whose cipher order is shuffled per
// connection by the traffic generator.
const RandomizerProfileName = "unknown-randomizer"
