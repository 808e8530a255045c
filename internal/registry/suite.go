package registry

import "fmt"

// KeyExchange identifies the key-establishment mechanism of a cipher suite.
type KeyExchange uint8

// Key exchange algorithms seen across the SSL3–TLS 1.2 suite space, plus the
// pseudo-value KexTLS13 for TLS 1.3 suites (which negotiate key exchange
// separately from the cipher suite).
const (
	KexNULL KeyExchange = iota
	KexRSA
	KexDH    // static (fixed) Diffie-Hellman
	KexDHE   // ephemeral Diffie-Hellman (forward secret)
	KexECDH  // static elliptic-curve Diffie-Hellman
	KexECDHE // ephemeral elliptic-curve Diffie-Hellman (forward secret)
	KexPSK
	KexDHEPSK
	KexECDHEPSK
	KexRSAPSK
	KexSRP
	KexKRB5
	KexGOST
	KexTLS13
)

// String returns the conventional short name of the key exchange.
func (k KeyExchange) String() string {
	switch k {
	case KexNULL:
		return "NULL"
	case KexRSA:
		return "RSA"
	case KexDH:
		return "DH"
	case KexDHE:
		return "DHE"
	case KexECDH:
		return "ECDH"
	case KexECDHE:
		return "ECDHE"
	case KexPSK:
		return "PSK"
	case KexDHEPSK:
		return "DHE-PSK"
	case KexECDHEPSK:
		return "ECDHE-PSK"
	case KexRSAPSK:
		return "RSA-PSK"
	case KexSRP:
		return "SRP"
	case KexKRB5:
		return "KRB5"
	case KexGOST:
		return "GOST"
	case KexTLS13:
		return "TLS13"
	}
	return fmt.Sprintf("KeyExchange(%d)", uint8(k))
}

// ForwardSecret reports whether the key exchange provides forward secrecy
// (§6.3.1): only the ephemeral (EC)DHE family qualifies. TLS 1.3 suites are
// always forward secret.
func (k KeyExchange) ForwardSecret() bool {
	switch k {
	case KexDHE, KexECDHE, KexDHEPSK, KexECDHEPSK, KexTLS13:
		return true
	}
	return false
}

// AuthAlgorithm identifies the server-authentication mechanism.
type AuthAlgorithm uint8

// Authentication algorithms. AuthAnon marks the anonymous suites discussed
// in §6.2 (key establishment unauthenticated, trivially MITM-able).
const (
	AuthNULL AuthAlgorithm = iota
	AuthRSA
	AuthDSS
	AuthECDSA
	AuthAnon
	AuthPSK
	AuthKRB5
	AuthGOST
	AuthTLS13 // authentication negotiated outside the suite
)

// CipherAlgorithm identifies the bulk encryption primitive.
type CipherAlgorithm uint8

// Bulk ciphers across the registry. CipherNULL means data travels in the
// clear (§6.1).
const (
	CipherNULL CipherAlgorithm = iota
	CipherRC4
	CipherRC2
	CipherDES
	CipherDES40
	Cipher3DES
	CipherIDEA
	CipherSEED
	CipherAES128
	CipherAES256
	CipherCamellia128
	CipherCamellia256
	CipherARIA128
	CipherARIA256
	CipherChaCha20
	CipherGOST28147
)

// CipherMode identifies the mode of operation of the bulk cipher.
type CipherMode uint8

// Modes of operation. The three AEAD modes (GCM, CCM/CCM8, Poly1305)
// correspond to the paper's "AEAD" traffic class; ModeCBC to "CBC"; ModeStream
// with CipherRC4 to "RC4".
const (
	ModeNone CipherMode = iota // NULL cipher: no encryption at all
	ModeStream
	ModeCBC
	ModeGCM
	ModeCCM
	ModeCCM8
	ModePoly1305
)

// AEAD reports whether the mode is an authenticated-encryption mode.
func (m CipherMode) AEAD() bool {
	switch m {
	case ModeGCM, ModeCCM, ModeCCM8, ModePoly1305:
		return true
	}
	return false
}

// MACAlgorithm identifies the record-protection MAC of non-AEAD suites.
type MACAlgorithm uint8

// MAC algorithms. MACAEAD is used for AEAD suites where integrity comes from
// the AEAD transform itself; the SHA256/SHA384 values on AEAD suites denote
// the PRF hash.
const (
	MACNULL MACAlgorithm = iota
	MACMD5
	MACSHA1
	MACSHA256
	MACSHA384
	MACAEAD
	MACGOST
)

// Suite describes one registered cipher suite: its IANA code point, name and
// the algorithm decomposition the study's analyses classify on.
type Suite struct {
	ID     uint16
	Name   string
	Kex    KeyExchange
	Auth   AuthAlgorithm
	Cipher CipherAlgorithm
	Mode   CipherMode
	MAC    MACAlgorithm
	// Export marks 40/56-bit export-grade suites (§5.5, FREAK/Logjam).
	Export bool
	// MinVersion is the lowest protocol version the suite may be used with.
	MinVersion Version
}

// IsAEAD reports whether the suite uses an AEAD mode.
func (s Suite) IsAEAD() bool { return s.Mode.AEAD() }

// IsCBC reports whether the suite uses CBC mode.
func (s Suite) IsCBC() bool { return s.Mode == ModeCBC }

// IsRC4 reports whether the suite encrypts with RC4.
func (s Suite) IsRC4() bool { return s.Cipher == CipherRC4 }

// IsDES reports whether the suite encrypts with single DES (incl. DES40).
func (s Suite) IsDES() bool { return s.Cipher == CipherDES || s.Cipher == CipherDES40 }

// Is3DES reports whether the suite encrypts with Triple-DES.
func (s Suite) Is3DES() bool { return s.Cipher == Cipher3DES }

// IsNULLCipher reports whether the suite provides no confidentiality (§6.1).
func (s Suite) IsNULLCipher() bool { return s.Cipher == CipherNULL }

// IsAnon reports whether key establishment is unauthenticated (§6.2).
func (s Suite) IsAnon() bool { return s.Auth == AuthAnon }

// IsExport reports whether the suite is export-grade (§5.5).
func (s Suite) IsExport() bool { return s.Export }

// IsTLS13 reports whether the suite is a TLS 1.3 suite (0x13xx space).
func (s Suite) IsTLS13() bool { return s.Kex == KexTLS13 }

// TrafficClass buckets a suite the way Figures 2 and 3 of the paper do:
// "AEAD", "CBC", "RC4", or "other" (NULL/stream oddities).
func (s Suite) TrafficClass() string {
	switch {
	case s.IsAEAD():
		return "AEAD"
	case s.IsCBC():
		return "CBC"
	case s.IsRC4():
		return "RC4"
	default:
		return "other"
	}
}
