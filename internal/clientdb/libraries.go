package clientdb

import (
	"time"

	"tlsage/internal/adoption"
	"tlsage/internal/registry"
)

// Library, tool and long-tail client profiles. These carry the study's
// slow-moving mass: OS-bundled TLS stacks, abandoned devices, security
// middleware, malware with statically linked libraries, and the odd clients
// behind the NULL/anonymous/export findings. Their lag distributions are the
// source of every "embarrassingly high" number in the paper.

var (
	appleLag = adoption.LagDistribution{FastShare: 0.60, FastTauDays: 40, SlowTauDays: 300, NeverShare: 0.015}
	// androidLag: Android traffic is dominated by recent handsets even
	// though abandoned Gingerbread devices linger (§7.2) — traffic turns
	// over in about two years.
	androidLag = adoption.LagDistribution{FastShare: 0.40, FastTauDays: 90, SlowTauDays: 380, NeverShare: 0.015}
)

var openssl = &Profile{
	Name:  "OpenSSL",
	Class: ClassLibrary,
	Lag:   adoption.LibraryLag,
	Releases: []VersionConfig{
		// 0.9.8-era default build: export, DES, RC4, no TLS >1.0. The
		// residue of this config is what keeps export advertisement at
		// 28.19% of connections in 2012 (§5.5, Figure 7).
		{"0.9.8", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL2,
			Suites: concat(take(cbcAESPool, 14), take(rc4Pool, 3), take(tdesPool, 3),
				desPool, take(exportPool, 5)),
			Extensions: extsMinimal, SSL3Fallback: true, SSLv2Compat: false,
		}},
		// 1.0.1 (14 Mar 2012): first TLS 1.2 + AES-GCM release — and the
		// release that introduced the heartbeat extension (§5.4).
		{"1.0.1", d(2012, time.March, 14), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionSSL3,
			Suites: concat(take(aeadPool, 4), take(cbcAESPool, 12), take(rc4Pool, 2),
				take(tdesPool, 2), take(desPool, 1)),
			Extensions: extsOpenSSL101, Curves: curvesClassic, PointFormats: pfAll,
			HeartbeatMode: 1, SSL3Fallback: true,
		}},
		// 1.0.1g (7 Apr 2014): the Heartbleed fix. The heartbeat extension
		// is still advertised — only the buffer over-read was patched.
		{"1.0.1g", d(2014, time.April, 7), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionSSL3,
			Suites: concat(take(aeadPool, 4), take(cbcAESPool, 12), take(rc4Pool, 2),
				take(tdesPool, 2)),
			Extensions: extsOpenSSL101, Curves: curvesClassic, PointFormats: pfAll,
			HeartbeatMode: 1, SSL3Fallback: true,
		}},
		// 1.0.2 (22 Jan 2015): export and DES gone from the default list.
		{"1.0.2", d(2015, time.January, 22), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionSSL3,
			Suites: concat(take(aeadPool, 6), take(cbcAESPool, 10), take(rc4Pool, 2),
				take(tdesPool, 2)),
			Extensions: extsOpenSSL101, Curves: curvesClassic, PointFormats: pfAll,
			HeartbeatMode: 1,
		}},
		// 1.1.0 (25 Aug 2016): RC4 and SSL3 removed; ChaCha20 and x25519
		// added; heartbeat finally dropped.
		{"1.1.0", d(2016, time.August, 25), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     concat(take(aeadPool, 6), take(cbcAESPool, 8)),
			Extensions: extsEra2016, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
		// 1.1.1 pre-releases (Feb 2018): TLS 1.3 draft support — the
		// "compiling new versions of libraries" uptake of §6.4.
		{"1.1.1-pre", d(2018, time.February, 13), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			SupportedVersions: []registry.Version{
				registry.VersionTLS13Draft18, registry.VersionTLS12,
				registry.VersionTLS11, registry.VersionTLS10,
			},
			Suites: concat([]uint16{0x1301, 0x1302, 0x1303},
				take(aeadPool, 6), take(cbcAESPool, 8)),
			Extensions: extsEra2018, Curves: curvesModern, PointFormats: pfUncompressed,
		}},
	},
}

var androidSDK = &Profile{
	Name:  "Android SDK",
	Class: ClassLibrary,
	Lag:   androidLag,
	Releases: []VersionConfig{
		// Android 2.3 (Gingerbread): TLS 1.0 only, no ECDHE, no AEAD — the
		// §7.2 example of why servers keep legacy suites. RC4-MD5 led the
		// platform default list.
		{"2.3", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: []uint16{0x0004, 0x0005, 0x002F, 0x0035, 0x0033, 0x0039,
				0x000A, 0x0016, 0x0009, 0x0015},
			Extensions: extsMinimal, SSL3Fallback: true,
		}},
		// Android 4.x: ECDHE CBC suites appear.
		{"4.x", d(2012, time.November, 13), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 12), take(rc4Pool, 4), take(tdesPool, 1),
				take(desPool, 1)),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
		// Android 5.0: TLS 1.2 by default, AES-GCM.
		{"5.0", d(2014, time.November, 12), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionSSL3,
			Suites:     browserList(4, 8, 1, 2),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
		// Android 6.0: RC4 and SSL3 fallback removed.
		{"6.0", d(2015, time.October, 5), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 8, 1, 0),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
		// Android 7.0: ChaCha20-Poly1305 preferred, x25519; 3DES dropped
		// post-Sweet32 (the Figure 3 decline to 69%).
		{"7.0", d(2016, time.August, 22), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(6, 6, 0, 0),
			Extensions: extsEra2016, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
		// Android 8.0.
		{"8.0", d(2017, time.August, 21), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(6, 4, 0, 0),
			Extensions: extsEra2016, Curves: curvesModern, PointFormats: pfUncompressed,
		}},
		// March 2018: Chrome 65 on Android rolls out the experimental
		// TLS 1.3 variant — part of the §6.4 Feb→Apr client-support jump,
		// attributed to "Android SDK" by the fingerprint DB.
		{"8.1-tls13", d(2018, time.March, 7), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			SupportedVersions: []registry.Version{
				registry.VersionTLS13Google, registry.VersionTLS12,
				registry.VersionTLS11, registry.VersionTLS10,
			},
			Suites: concat([]uint16{0x1301, 0x1303, 0x1302},
				browserList(6, 4, 0, 0)),
			Extensions: extsEra2018, Curves: curvesModern, PointFormats: pfUncompressed,
		}},
	},
}

var appleST = &Profile{
	Name:  "Apple Secure Transport",
	Class: ClassLibrary,
	Lag:   appleLag,
	Releases: []VersionConfig{
		// iOS 5 / OS X 10.7 era.
		{"iOS5", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:     browserList(0, 20, 4, 4),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfAll,
			SSL3Fallback: true,
		}},
		// iOS 7: TLS 1.2.
		{"iOS7", d(2013, time.September, 18), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionSSL3,
			Suites:     browserList(0, 20, 4, 4),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfAll,
			SSL3Fallback: true,
		}},
		// iOS 9: App Transport Security, AES-GCM.
		{"iOS9", d(2015, time.September, 16), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 12, 3, 4),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
		// iOS 10: RC4 removed.
		{"iOS10", d(2016, time.September, 13), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 12, 3, 0),
			Extensions: extsEra2016, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
		// iOS 11.
		{"iOS11", d(2017, time.September, 19), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 8, 2, 0),
			Extensions: extsEra2016, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

var msCryptoAPI = &Profile{
	Name:  "MS CryptoAPI",
	Class: ClassLibrary,
	Lag:   windowsLag,
	Releases: []VersionConfig{
		// Windows XP schannel: RC4 first, DES and export-grade still present.
		{"WinXP", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL2,
			Suites: concat(take(rc4Pool, 2)[0:2], []uint16{0x002F, 0x0035},
				take(tdesPool, 1), take(desPool, 1), take(exportPool, 2)),
			Extensions: extsMinimal, SSL3Fallback: true,
		}},
		// Windows 7 schannel (pre-TLS1.2-default).
		{"Win7", d(2012, time.January, 2), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:     browserList(0, 10, 1, 2),
			Extensions: extsMinimal, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
		// Windows 7/8.1 with TLS 1.2 defaults (2014 servicing).
		{"Win7-TLS12", d(2014, time.April, 8), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionSSL3,
			Suites:     browserList(2, 10, 1, 2),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
		// Windows 10 RTM: RC4 gone.
		{"Win10", d(2015, time.July, 29), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 8, 1, 0),
			Extensions: extsEra2016, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
		// Windows 10 1709.
		{"Win10-1709", d(2017, time.October, 17), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 6, 1, 0),
			Extensions: extsEra2016, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

var javaJSSE = &Profile{
	Name:  "Java JSSE",
	Class: ClassLibrary,
	Lag:   adoption.LibraryLag,
	Releases: []VersionConfig{
		{"6", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 8), take(rc4Pool, 2), take(tdesPool, 1),
				take(desPool, 1), take(exportPool, 2)),
			Extensions: extsMinimal, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
		{"7", d(2012, time.July, 28), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 10), take(rc4Pool, 2), take(tdesPool, 1),
				take(desPool, 1)),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
		// Java 8: TLS 1.2 by default, GCM suites.
		{"8", d(2014, time.March, 18), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionSSL3,
			Suites:     browserList(2, 10, 1, 2),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfAll,
		}},
		// Java 8u60: RC4 out of the default list.
		{"8u60", d(2015, time.August, 18), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(2, 10, 1, 0),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfAll,
		}},
	},
}

// --- Tools, apps, middleware and the long tail ---

var devTools = &Profile{
	Name:  "curl/git (OpenSSL)",
	Class: ClassDevTool,
	Lag:   adoption.LibraryLag,
	Releases: []VersionConfig{
		{"2012", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 12), take(rc4Pool, 2), take(tdesPool, 2),
				take(desPool, 1)),
			Extensions: extsMinimal, Curves: curvesClassic, PointFormats: pfAll,
			SSL3Fallback: true,
		}},
		{"2015", d(2015, time.March, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 10, 1, 0),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfAll,
		}},
	},
}

var spotlight = &Profile{
	Name:  "Apple Spotlight",
	Class: ClassOSTool,
	Lag:   appleLag,
	Releases: []VersionConfig{
		{"10.10", d(2014, time.October, 16), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(0, 14, 3, 4),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
		{"10.12", d(2016, time.September, 20), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 10, 2, 0),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

var thunderbird = &Profile{
	Name:  "Thunderbird",
	Class: ClassEmail,
	Lag:   adoption.LibraryLag,
	Releases: []VersionConfig{
		{"2012", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:     browserList(0, 24, 6, 5),
			Extensions: extsEra2012, Curves: curvesNSSOld, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
		{"2015", d(2015, time.June, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 10, 1, 0),
			Extensions: extsEra2014, Curves: curvesNSSOld, PointFormats: pfUncompressed,
		}},
	},
}

var appleMail = &Profile{
	Name:  "Apple Mail",
	Class: ClassEmail,
	Lag:   appleLag,
	Releases: []VersionConfig{
		{"2013", d(2013, time.June, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:     browserList(0, 20, 4, 4),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfAll,
			SSL3Fallback: true,
		}},
		{"2016", d(2016, time.March, 21), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(4, 12, 3, 0),
			Extensions: extsEra2016, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

var dropbox = &Profile{
	Name:  "Dropbox",
	Class: ClassCloudStorage,
	Lag:   adoption.LibraryLag,
	Releases: []VersionConfig{
		{"2012", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:     concat(take(cbcAESPool, 10), take(rc4Pool, 2), take(tdesPool, 1)),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfAll,
			SSL3Fallback: true,
		}},
		{"2016", d(2016, time.February, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(6, 6, 0, 0),
			Extensions: extsEra2016, Curves: curvesModern, PointFormats: pfUncompressed,
		}},
	},
}

// avProxy models TLS-interception middleware (Avast, Blue Coat, Kaspersky
// web shields). These boxes kept RC4 and fat CBC lists long after browsers
// dropped them — a large slice of Figure 4's "fingerprints still supporting
// RC4" tail and of the §6.2 anonymous-suite advertisers.
var avProxy = &Profile{
	Name:  "AV/Proxy (Avast, Blue Coat)",
	Class: ClassAV,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"2013", d(2013, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 16), take(rc4Pool, 4), take(tdesPool, 3),
				take(anonPool, 2)),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfAll,
			SSL3Fallback: true,
		}},
		{"2016", d(2016, time.June, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites: concat(take(aeadPool, 4), take(cbcAESPool, 12), take(rc4Pool, 4),
				take(tdesPool, 2)),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

var mobileApps = &Profile{
	Name:  "Facebook app (bundled TLS)",
	Class: ClassMobileApp,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"2013", d(2013, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:     concat(take(cbcAESPool, 10), take(rc4Pool, 3), take(tdesPool, 1)),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
		{"2016", d(2016, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     browserList(6, 6, 0, 0),
			Extensions: extsEra2016, Curves: curvesModern, PointFormats: pfUncompressed,
		}},
	},
}

// lookout is the identity-theft-protection Android app the paper names as a
// NULL- and anonymous-suite advertiser (§6.1, §6.2).
var lookout = &Profile{
	Name:  "Lookout Personal",
	Class: ClassMobileApp,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"2014", d(2014, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 8), take(rc4Pool, 2),
				take(anonPool, 4), take(nullPool, 3)),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
	},
}

// craftar is the other named NULL-cipher advertiser (§6.1).
var craftar = &Profile{
	Name:  "Craftar Image Recognition",
	Class: ClassMobileApp,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"2014", d(2014, time.June, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:     concat(take(cbcAESPool, 6), take(nullPool, 2)),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

// shodan models Internet-wide security scanners that advertise everything,
// anonymous suites included (§6.2).
var shodan = &Profile{
	Name:  "Shodan scanner",
	Class: ClassDevTool,
	Lag:   adoption.LibraryLag,
	Releases: []VersionConfig{
		{"2014", d(2014, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionSSL3,
			Suites: concat(take(aeadPool, 4), take(cbcAESPool, 14), take(rc4Pool, 4),
				take(tdesPool, 3), desPool, anonPool, take(nullPool, 3), take(exportPool, 4)),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfAll,
		}},
	},
}

// gridFTP is the GRID data-transfer software responsible for 99.99% of the
// connections actually established with NULL ciphers (§6.1): TLS used for
// mutual authentication only.
var gridFTP = &Profile{
	Name:  "Globus GridFTP",
	Class: ClassLibrary,
	Lag:   adoption.LibraryLag,
	Releases: []VersionConfig{
		{"5", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:     concat(take(nullPool, 2), take(cbcAESPool, 4), take(tdesPool, 1)),
			Extensions: extsMinimal, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
		{"6", d(2014, time.August, 1), Config{
			LegacyVersion: registry.VersionTLS12, MinVersion: registry.VersionTLS10,
			Suites:     concat(take(nullPool, 2), take(aeadPool, 2), take(cbcAESPool, 4)),
			Extensions: extsEra2014, Curves: curvesClassic, PointFormats: pfUncompressed,
		}},
	},
}

// nagios is the monitoring-plugin traffic of §5.1/§5.5/§6.1: anonymous and
// NULL_WITH_NULL_NULL suites, anonymous export suites, and even SSLv2
// hellos, all terminating at university Nagios servers.
var nagios = &Profile{
	Name:  "Nagios check_tcp",
	Class: ClassOSTool,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"legacy", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL2,
			Suites: concat(take(anonPool, 6), []uint16{0x0000},
				take(cbcAESPool, 2)),
			Extensions:   extsMinimal,
			SSL3Fallback: true, SSLv2Compat: true,
		}},
	},
}

// interwise reproduces the §5.5 oddity: the client offers plain
// RC4_128_SHA, yet Interwise servers answer with EXP_RC4_40_MD5 — a
// spec-violating negotiation the Notary repeatedly logged.
var interwise = &Profile{
	Name:  "Interwise client",
	Class: ClassOSTool,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"legacy", d(2012, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:       []uint16{0x0005, 0x0004, 0x000A},
			Extensions:   extsMinimal,
			SSL3Fallback: true,
		}},
	},
}

// zbot is banking malware with a statically linked, never-updated TLS stack.
var zbot = &Profile{
	Name:  "Zbot",
	Class: ClassMalware,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"static", d(2012, time.June, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(rc4Pool, 3), []uint16{0x002F, 0x0035},
				take(tdesPool, 1), take(desPool, 1)),
			Extensions:   extsMinimal,
			SSL3Fallback: true,
		}},
	},
}

// installMoney is pay-per-install PUP shipping an ancient OpenSSL.
var installMoney = &Profile{
	Name:  "InstallMoney",
	Class: ClassMalware,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"static", d(2013, time.March, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 10), take(rc4Pool, 3), take(tdesPool, 2),
				desPool, take(exportPool, 4)),
			Extensions:   extsMinimal,
			SSL3Fallback: true,
		}},
	},
}

// holaVPN: a mobile VPN app with its own TLS stack, slow to modernize.
var holaVPN = &Profile{
	Name:  "Hola VPN",
	Class: ClassMobileApp,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"2014", d(2014, time.March, 1), Config{
			LegacyVersion: registry.VersionTLS10, MinVersion: registry.VersionSSL3,
			Suites:     concat(take(cbcAESPool, 8), take(rc4Pool, 2), take(tdesPool, 1)),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
	},
}

// kaspersky: endpoint AV with its own TLS client, an anonymous-suite
// advertiser per §6.2.
var kaspersky = &Profile{
	Name:  "Kaspersky",
	Class: ClassAV,
	Lag:   adoption.DeviceLag,
	Releases: []VersionConfig{
		{"2014", d(2014, time.January, 1), Config{
			LegacyVersion: registry.VersionTLS11, MinVersion: registry.VersionSSL3,
			Suites: concat(take(cbcAESPool, 12), take(rc4Pool, 2), take(tdesPool, 2),
				take(anonPool, 3)),
			Extensions: extsEra2012, Curves: curvesClassic, PointFormats: pfUncompressed,
			SSL3Fallback: true,
		}},
	},
}

var libraryProfiles = []*Profile{
	openssl, androidSDK, appleST, msCryptoAPI, javaJSSE,
	devTools, spotlight, thunderbird, appleMail, dropbox,
	avProxy, mobileApps, lookout, craftar, shodan,
	gridFTP, nagios, interwise, zbot, installMoney, holaVPN, kaspersky,
}
