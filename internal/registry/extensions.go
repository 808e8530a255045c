package registry

import "fmt"

// ExtensionID is a TLS extension code point from the IANA ExtensionType
// registry. The paper notes 28 standardized extensions as of March 2018; all
// of them are listed here, together with the renegotiation_info value and the
// draft code points the study's fingerprints contain.
type ExtensionID uint16

// Standardized extensions as of the study period.
const (
	ExtServerName           ExtensionID = 0
	ExtMaxFragmentLength    ExtensionID = 1
	ExtClientCertificateURL ExtensionID = 2
	ExtTrustedCAKeys        ExtensionID = 3
	ExtTruncatedHMAC        ExtensionID = 4
	ExtStatusRequest        ExtensionID = 5
	ExtUserMapping          ExtensionID = 6
	ExtClientAuthz          ExtensionID = 7
	ExtServerAuthz          ExtensionID = 8
	ExtCertType             ExtensionID = 9
	ExtSupportedGroups      ExtensionID = 10 // née elliptic_curves
	ExtECPointFormats       ExtensionID = 11
	ExtSRP                  ExtensionID = 12
	ExtSignatureAlgorithms  ExtensionID = 13
	ExtUseSRTP              ExtensionID = 14
	ExtHeartbeat            ExtensionID = 15 // RFC 6520; Heartbleed (§5.4)
	ExtALPN                 ExtensionID = 16
	ExtStatusRequestV2      ExtensionID = 17
	ExtSignedCertTimestamp  ExtensionID = 18
	ExtClientCertType       ExtensionID = 19
	ExtServerCertType       ExtensionID = 20
	ExtPadding              ExtensionID = 21
	ExtEncryptThenMAC       ExtensionID = 22 // Lucky 13 response (§9)
	ExtExtendedMasterSecret ExtensionID = 23
	ExtTokenBinding         ExtensionID = 24
	ExtCachedInfo           ExtensionID = 25
	ExtSessionTicket        ExtensionID = 35
	ExtPreSharedKey         ExtensionID = 41
	ExtEarlyData            ExtensionID = 42
	ExtSupportedVersions    ExtensionID = 43 // TLS 1.3 version negotiation (§6.4)
	ExtCookie               ExtensionID = 44
	ExtPSKKeyExchangeModes  ExtensionID = 45
	ExtCertAuthorities      ExtensionID = 47
	ExtOIDFilters           ExtensionID = 48
	ExtPostHandshakeAuth    ExtensionID = 49
	ExtSigAlgsCert          ExtensionID = 50
	ExtKeyShare             ExtensionID = 51
	ExtNextProtoNego        ExtensionID = 13172 // NPN, pre-ALPN Google draft
	ExtChannelID            ExtensionID = 30032 // Google Channel ID draft
	ExtRenegotiationInfo    ExtensionID = 0xFF01
)

var extensionNames = map[ExtensionID]string{
	ExtServerName:           "server_name",
	ExtMaxFragmentLength:    "max_fragment_length",
	ExtClientCertificateURL: "client_certificate_url",
	ExtTrustedCAKeys:        "trusted_ca_keys",
	ExtTruncatedHMAC:        "truncated_hmac",
	ExtStatusRequest:        "status_request",
	ExtUserMapping:          "user_mapping",
	ExtClientAuthz:          "client_authz",
	ExtServerAuthz:          "server_authz",
	ExtCertType:             "cert_type",
	ExtSupportedGroups:      "supported_groups",
	ExtECPointFormats:       "ec_point_formats",
	ExtSRP:                  "srp",
	ExtSignatureAlgorithms:  "signature_algorithms",
	ExtUseSRTP:              "use_srtp",
	ExtHeartbeat:            "heartbeat",
	ExtALPN:                 "application_layer_protocol_negotiation",
	ExtStatusRequestV2:      "status_request_v2",
	ExtSignedCertTimestamp:  "signed_certificate_timestamp",
	ExtClientCertType:       "client_certificate_type",
	ExtServerCertType:       "server_certificate_type",
	ExtPadding:              "padding",
	ExtEncryptThenMAC:       "encrypt_then_mac",
	ExtExtendedMasterSecret: "extended_master_secret",
	ExtTokenBinding:         "token_binding",
	ExtCachedInfo:           "cached_info",
	ExtSessionTicket:        "session_ticket",
	ExtPreSharedKey:         "pre_shared_key",
	ExtEarlyData:            "early_data",
	ExtSupportedVersions:    "supported_versions",
	ExtCookie:               "cookie",
	ExtPSKKeyExchangeModes:  "psk_key_exchange_modes",
	ExtCertAuthorities:      "certificate_authorities",
	ExtOIDFilters:           "oid_filters",
	ExtPostHandshakeAuth:    "post_handshake_auth",
	ExtSigAlgsCert:          "signature_algorithms_cert",
	ExtKeyShare:             "key_share",
	ExtNextProtoNego:        "next_protocol_negotiation",
	ExtChannelID:            "channel_id",
	ExtRenegotiationInfo:    "renegotiation_info",
}

// String returns the IANA name of the extension, or a hex rendering for
// unregistered values.
func (e ExtensionID) String() string {
	if n, ok := extensionNames[e]; ok {
		return n
	}
	return fmt.Sprintf("extension(%#04x)", uint16(e))
}

// AllExtensions returns the registered extension IDs in ascending order.
func AllExtensions() []ExtensionID {
	out := make([]ExtensionID, 0, len(extensionNames))
	for e := range extensionNames {
		out = append(out, e)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
