package clientdb

import "tlsage/internal/registry"

// Suite pools, each in modern-first preference order. Client cipher lists
// are assembled from prefixes of these pools so that the per-browser counts
// of Tables 3, 4 and 5 are met exactly while every list stays structurally
// realistic (AEAD first, AES-CBC next, RC4, then 3DES/DES at the bottom —
// the ordering Figure 5 measures).

// aeadPool: AEAD suites in the order modern clients prefer them.
var aeadPool = []uint16{
	0xC02B, // ECDHE-ECDSA-AES128-GCM
	0xC02F, // ECDHE-RSA-AES128-GCM
	0xC02C, // ECDHE-ECDSA-AES256-GCM
	0xC030, // ECDHE-RSA-AES256-GCM
	0xCCA9, // ECDHE-ECDSA-CHACHA20
	0xCCA8, // ECDHE-RSA-CHACHA20
	0x009E, // DHE-RSA-AES128-GCM
	0x009F, // DHE-RSA-AES256-GCM
	0x009C, // RSA-AES128-GCM
	0x009D, // RSA-AES256-GCM
}

// oldChaChaPool: the pre-RFC draft ChaCha20 code points Chrome shipped first.
var oldChaChaPool = []uint16{0xCC14, 0xCC13}

// cbcAESPool: CBC-mode suites that are not 3DES/DES, forward-secret first.
var cbcAESPool = []uint16{
	0xC023, // ECDHE-ECDSA-AES128-CBC-SHA256
	0xC027, // ECDHE-RSA-AES128-CBC-SHA256
	0xC009, // ECDHE-ECDSA-AES128-CBC-SHA
	0xC013, // ECDHE-RSA-AES128-CBC-SHA
	0xC024, // ECDHE-ECDSA-AES256-CBC-SHA384
	0xC028, // ECDHE-RSA-AES256-CBC-SHA384
	0xC00A, // ECDHE-ECDSA-AES256-CBC-SHA
	0xC014, // ECDHE-RSA-AES256-CBC-SHA
	0x003C, // RSA-AES128-CBC-SHA256
	0x002F, // RSA-AES128-CBC-SHA
	0x003D, // RSA-AES256-CBC-SHA256
	0x0035, // RSA-AES256-CBC-SHA
	0x0067, // DHE-RSA-AES128-CBC-SHA256
	0x0033, // DHE-RSA-AES128-CBC-SHA
	0x006B, // DHE-RSA-AES256-CBC-SHA256
	0x0039, // DHE-RSA-AES256-CBC-SHA
	0xC004, // ECDH-ECDSA-AES128-CBC-SHA
	0xC00E, // ECDH-RSA-AES128-CBC-SHA
	0xC005, // ECDH-ECDSA-AES256-CBC-SHA
	0xC00F, // ECDH-RSA-AES256-CBC-SHA
	0x0032, // DHE-DSS-AES128-CBC-SHA
	0x0038, // DHE-DSS-AES256-CBC-SHA
	0x0045, // DHE-RSA-CAMELLIA128-CBC-SHA
	0x0088, // DHE-RSA-CAMELLIA256-CBC-SHA
	0x0041, // RSA-CAMELLIA128-CBC-SHA
	0x0084, // RSA-CAMELLIA256-CBC-SHA
	0x0044, // DHE-DSS-CAMELLIA128-CBC-SHA
	0x0087, // DHE-DSS-CAMELLIA256-CBC-SHA
	0x009A, // DHE-RSA-SEED-CBC-SHA
	0x0096, // RSA-SEED-CBC-SHA
	0x0007, // RSA-IDEA-CBC-SHA
}

// rc4Pool: RC4 suites. The plain RSA-kex entries lead so that clients
// without a supported_groups extension still interoperate with RC4-first
// servers (the dominant post-BEAST pairing of Figure 2).
var rc4Pool = []uint16{
	0x0005, // RSA-RC4-SHA
	0x0004, // RSA-RC4-MD5
	0xC011, // ECDHE-RSA-RC4-SHA
	0xC007, // ECDHE-ECDSA-RC4-SHA
	0xC00C, // ECDH-RSA-RC4-SHA
	0xC002, // ECDH-ECDSA-RC4-SHA
	0x0066, // DHE-DSS-RC4-SHA
}

// tdesPool: Triple-DES CBC suites.
var tdesPool = []uint16{
	0x000A, // RSA-3DES
	0xC012, // ECDHE-RSA-3DES
	0xC008, // ECDHE-ECDSA-3DES
	0x0016, // DHE-RSA-3DES
	0x0013, // DHE-DSS-3DES
	0xC00D, // ECDH-RSA-3DES
	0xC003, // ECDH-ECDSA-3DES
	0x000D, // DH-DSS-3DES
}

// desPool: single-DES suites, advertised only by vintage libraries.
var desPool = []uint16{
	0x0009, // RSA-DES
	0x0015, // DHE-RSA-DES
	0x0012, // DHE-DSS-DES
}

// exportPool: export-grade suites (the §5.5 decline).
var exportPool = []uint16{
	0x0003, // RSA-EXPORT-RC4-40-MD5
	0x0008, // RSA-EXPORT-DES40
	0x0006, // RSA-EXPORT-RC2-40
	0x0014, // DHE-RSA-EXPORT-DES40
	0x0011, // DHE-DSS-EXPORT-DES40
	0x0060, // RSA-EXPORT1024-RC4-56
	0x0062, // RSA-EXPORT1024-DES
}

// anonPool: anonymous suites (§6.2).
var anonPool = []uint16{
	0x0018, // DH-anon-RC4-MD5
	0x001B, // DH-anon-3DES
	0x0034, // DH-anon-AES128-CBC
	0x003A, // DH-anon-AES256-CBC
	0xC018, // ECDH-anon-AES128-CBC
	0x0019, // DH-anon-EXPORT-DES40
}

// nullPool: NULL-encryption suites (§6.1).
var nullPool = []uint16{
	0x0002, // RSA-NULL-SHA
	0x0001, // RSA-NULL-MD5
	0x003B, // RSA-NULL-SHA256
	0xC010, // ECDHE-RSA-NULL-SHA
	0x0000, // NULL-WITH-NULL-NULL
}

// concat builds one preference list from pool prefixes.
func concat(parts ...[]uint16) []uint16 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]uint16, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// take returns the first n entries of pool. The pools are slice literals,
// whose capacity is their length, so an n beyond the pool panics: a
// static-table programming error.
func take(pool []uint16, n int) []uint16 {
	return pool[:n]
}

// browserList assembles a browser cipher list with exact class counts:
// nAEAD AEAD suites, a total of nCBC CBC-mode suites of which n3DES are
// Triple-DES, and nRC4 RC4 suites. Order: AEAD, AES-CBC, RC4, 3DES. An
// n3DES above nCBC panics in take, like any count beyond its pool.
func browserList(nAEAD, nCBC, n3DES, nRC4 int) []uint16 {
	return concat(
		take(aeadPool, nAEAD),
		take(cbcAESPool, nCBC-n3DES),
		take(rc4Pool, nRC4),
		take(tdesPool, n3DES),
	)
}

// Standard extension sets by era.
var (
	extsEra2012 = []registry.ExtensionID{
		registry.ExtServerName, registry.ExtRenegotiationInfo,
		registry.ExtSupportedGroups, registry.ExtECPointFormats,
		registry.ExtSessionTicket, registry.ExtNextProtoNego,
		registry.ExtStatusRequest,
	}
	extsEra2014 = []registry.ExtensionID{
		registry.ExtServerName, registry.ExtRenegotiationInfo,
		registry.ExtSupportedGroups, registry.ExtECPointFormats,
		registry.ExtSessionTicket, registry.ExtALPN,
		registry.ExtStatusRequest, registry.ExtSignatureAlgorithms,
	}
	extsEra2016 = []registry.ExtensionID{
		registry.ExtServerName, registry.ExtExtendedMasterSecret,
		registry.ExtRenegotiationInfo, registry.ExtSupportedGroups,
		registry.ExtECPointFormats, registry.ExtSessionTicket,
		registry.ExtALPN, registry.ExtStatusRequest,
		registry.ExtSignatureAlgorithms, registry.ExtSignedCertTimestamp,
	}
	extsEra2018 = []registry.ExtensionID{
		registry.ExtServerName, registry.ExtExtendedMasterSecret,
		registry.ExtRenegotiationInfo, registry.ExtSupportedGroups,
		registry.ExtECPointFormats, registry.ExtSessionTicket,
		registry.ExtALPN, registry.ExtStatusRequest,
		registry.ExtSignatureAlgorithms, registry.ExtSignedCertTimestamp,
		registry.ExtKeyShare, registry.ExtPSKKeyExchangeModes,
		registry.ExtSupportedVersions,
	}
	extsOpera2013 = []registry.ExtensionID{
		registry.ExtServerName, registry.ExtRenegotiationInfo,
		registry.ExtSupportedGroups, registry.ExtECPointFormats,
		registry.ExtSessionTicket, registry.ExtNextProtoNego,
	}
	extsOpera2016 = []registry.ExtensionID{
		registry.ExtServerName, registry.ExtExtendedMasterSecret,
		registry.ExtRenegotiationInfo, registry.ExtSupportedGroups,
		registry.ExtECPointFormats, registry.ExtSessionTicket,
		registry.ExtALPN, registry.ExtStatusRequest,
		registry.ExtSignatureAlgorithms, registry.ExtSignedCertTimestamp,
		registry.ExtChannelID,
	}
	extsOpenSSL101 = []registry.ExtensionID{
		registry.ExtServerName, registry.ExtRenegotiationInfo,
		registry.ExtSupportedGroups, registry.ExtECPointFormats,
		registry.ExtSessionTicket, registry.ExtSignatureAlgorithms,
		registry.ExtHeartbeat,
	}
	extsMinimal = []registry.ExtensionID{
		registry.ExtRenegotiationInfo,
	}
)

// Curve sets by era.
var (
	curvesClassic = []registry.CurveID{
		registry.CurveSecp256r1, registry.CurveSecp384r1, registry.CurveSecp521r1,
	}
	curvesNSSOld = []registry.CurveID{
		registry.CurveSecp256r1, registry.CurveSecp384r1, registry.CurveSecp521r1,
		registry.CurveSect571r1,
	}
	curvesModern = []registry.CurveID{
		registry.CurveX25519, registry.CurveSecp256r1, registry.CurveSecp384r1,
	}
	pfUncompressed = []registry.ECPointFormat{registry.PointFormatUncompressed}
	pfAll          = []registry.ECPointFormat{
		registry.PointFormatUncompressed,
		registry.PointFormatANSIX962CompressedPrime,
		registry.PointFormatANSIX962CompressedChar2,
	}
)
