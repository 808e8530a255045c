package registry

import "fmt"

// CurveID is a named group from the IANA "TLS Supported Groups" registry
// (historically "EC Named Curve"). The paper reports 35 registered values as
// of May 2018; the curves that actually occur in its data (§6.3.3) are all
// present here.
type CurveID uint16

// Named curves / groups.
const (
	CurveSect163k1       CurveID = 1
	CurveSect163r1       CurveID = 2
	CurveSect163r2       CurveID = 3
	CurveSect193r1       CurveID = 4
	CurveSect193r2       CurveID = 5
	CurveSect233k1       CurveID = 6
	CurveSect233r1       CurveID = 7
	CurveSect239k1       CurveID = 8
	CurveSect283k1       CurveID = 9
	CurveSect283r1       CurveID = 10
	CurveSect409k1       CurveID = 11
	CurveSect409r1       CurveID = 12
	CurveSect571k1       CurveID = 13
	CurveSect571r1       CurveID = 14
	CurveSecp160k1       CurveID = 15
	CurveSecp160r1       CurveID = 16
	CurveSecp160r2       CurveID = 17
	CurveSecp192k1       CurveID = 18
	CurveSecp192r1       CurveID = 19
	CurveSecp224k1       CurveID = 20
	CurveSecp224r1       CurveID = 21
	CurveSecp256k1       CurveID = 22
	CurveSecp256r1       CurveID = 23 // P-256, 84.4% of connections in the study
	CurveSecp384r1       CurveID = 24 // P-384, 8.6%
	CurveSecp521r1       CurveID = 25 // P-521, 0.1%
	CurveBrainpoolP256r1 CurveID = 26
	CurveBrainpoolP384r1 CurveID = 27
	CurveBrainpoolP512r1 CurveID = 28
	CurveX25519          CurveID = 29 // 6.7% overall, 22.2% by Feb 2018
	CurveX448            CurveID = 30
	CurveFFDHE2048       CurveID = 256
	CurveFFDHE3072       CurveID = 257
	CurveFFDHE4096       CurveID = 258
	CurveFFDHE6144       CurveID = 259
	CurveFFDHE8192       CurveID = 260
)

var curveNames = map[CurveID]string{
	CurveSect163k1: "sect163k1", CurveSect163r1: "sect163r1", CurveSect163r2: "sect163r2",
	CurveSect193r1: "sect193r1", CurveSect193r2: "sect193r2", CurveSect233k1: "sect233k1",
	CurveSect233r1: "sect233r1", CurveSect239k1: "sect239k1", CurveSect283k1: "sect283k1",
	CurveSect283r1: "sect283r1", CurveSect409k1: "sect409k1", CurveSect409r1: "sect409r1",
	CurveSect571k1: "sect571k1", CurveSect571r1: "sect571r1",
	CurveSecp160k1: "secp160k1", CurveSecp160r1: "secp160r1", CurveSecp160r2: "secp160r2",
	CurveSecp192k1: "secp192k1", CurveSecp192r1: "secp192r1", CurveSecp224k1: "secp224k1",
	CurveSecp224r1: "secp224r1", CurveSecp256k1: "secp256k1", CurveSecp256r1: "secp256r1",
	CurveSecp384r1: "secp384r1", CurveSecp521r1: "secp521r1",
	CurveBrainpoolP256r1: "brainpoolP256r1", CurveBrainpoolP384r1: "brainpoolP384r1",
	CurveBrainpoolP512r1: "brainpoolP512r1",
	CurveX25519:          "x25519", CurveX448: "x448",
	CurveFFDHE2048: "ffdhe2048", CurveFFDHE3072: "ffdhe3072", CurveFFDHE4096: "ffdhe4096",
	CurveFFDHE6144: "ffdhe6144", CurveFFDHE8192: "ffdhe8192",
}

// String returns the IANA name of the curve, or a hex rendering for
// unregistered values.
func (c CurveID) String() string {
	if n, ok := curveNames[c]; ok {
		return n
	}
	return fmt.Sprintf("curve(%#04x)", uint16(c))
}

// AllCurves returns the registered named groups in ascending order.
func AllCurves() []CurveID {
	out := make([]CurveID, 0, len(curveNames))
	for c := range curveNames {
		out = append(out, c)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// ECPointFormat is a value from the "EC Point Formats" registry.
type ECPointFormat uint8

// EC point formats.
const (
	PointFormatUncompressed            ECPointFormat = 0
	PointFormatANSIX962CompressedPrime ECPointFormat = 1
	PointFormatANSIX962CompressedChar2 ECPointFormat = 2
)

// String returns the conventional name of the point format.
func (p ECPointFormat) String() string {
	switch p {
	case PointFormatUncompressed:
		return "uncompressed"
	case PointFormatANSIX962CompressedPrime:
		return "ansiX962_compressed_prime"
	case PointFormatANSIX962CompressedChar2:
		return "ansiX962_compressed_char2"
	}
	return fmt.Sprintf("pointformat(%d)", uint8(p))
}
