package wire

import (
	"bytes"
	"reflect"
	"testing"

	"tlsage/internal/registry"
)

// handshakeRecord frames a handshake body as one TLS 1.0 handshake record.
func handshakeRecord(typ HandshakeType, body []byte) []byte {
	return AppendRecord(nil, ContentHandshake, registry.VersionTLS10, AppendHandshake(nil, typ, body))
}

// observeSeeds returns well-formed messages of every kind the observer
// decodes, and one input for each decode refusal: a cut record header, a
// record header claiming more than 2^14 bytes or more than follows, SSLv2
// hellos cut in their length fields or their spec list or with a spec
// length not divisible by 3, a ClientHello whose suite list has an odd byte
// length, whose extension block ends inside an extension or is followed by
// trailing bytes, or whose supported_groups, ec_point_formats and
// supported_versions bodies are malformed, and a ServerHello with trailing
// bytes.
func observeSeeds() [][]byte {
	hello := (&ClientHello{Version: registry.VersionTLS12, CipherSuites: []uint16{0x002F}}).Append(nil)
	noExts := hello[:len(hello)-2] // strip the empty extension block
	server := (&ServerHello{Version: registry.VersionTLS12, CipherSuite: 0x002F}).Append(nil)
	oddSuites := append([]byte{3, 3}, make([]byte, 32)...)
	oddSuites = append(oddSuites, 0, 0, 1, 0x2F)
	badAccessors := &ClientHello{Version: registry.VersionTLS12, CipherSuites: []uint16{0x002F},
		Extensions: []Extension{
			{ID: registry.ExtSupportedGroups, Data: []byte{0, 1, 0}},
			{ID: registry.ExtECPointFormats},
			{ID: registry.ExtSupportedVersions, Data: []byte{1, 3}},
		}}
	heartbeat := (&HeartbeatMessage{Type: HeartbeatRequest, PayloadLength: 4, Payload: []byte{1, 2, 3, 4}}).Append(nil)
	overClaim := (&HeartbeatMessage{Type: HeartbeatRequest, PayloadLength: 4096, Payload: make([]byte, 16)}).Append(nil)
	return [][]byte{
		sampleClientHello().AppendRecord(nil),
		handshakeRecord(TypeClientHello, hello),
		(&ServerHello{Version: registry.VersionTLS12, CipherSuite: 0xC02F, SessionID: []byte{9},
			Extensions: []Extension{NewHeartbeatExtension(1)}}).AppendRecord(nil),
		(&SSLv2ClientHello{Version: registry.VersionSSL2, CipherSpecs: []uint32{0x010080, 0x00002F},
			Challenge: make([]byte, 16)}).Append(nil),
		AppendRecord(nil, ContentAlert, registry.VersionTLS10, Alert{Level: 2, Description: AlertHandshakeFailure}.Append(nil)),
		AppendRecord(nil, ContentHeartbeat, registry.VersionTLS12, heartbeat),
		AppendRecord(nil, ContentHeartbeat, registry.VersionTLS12, overClaim),
		{22, 3, 1},
		{22, 3, 1, 0xff, 0xff},
		{22, 3, 1, 0, 5, 1, 2},
		{0x80, 3, 1, 0, 2},
		{0x80, 9, 1, 0, 2, 0, 1, 0, 0, 0, 0},
		{0x80, 9, 1, 0, 2, 0, 3, 0, 0, 0, 0},
		handshakeRecord(TypeClientHello, oddSuites),
		handshakeRecord(TypeClientHello, append(hello, 0)),
		handshakeRecord(TypeClientHello, append(noExts, 0, 2, 0, 1)),
		badAccessors.AppendRecord(nil),
		handshakeRecord(TypeServerHello, append(server, 0)),
	}
}

// FuzzObserveWire runs arbitrary bytes through the decoders in the order an
// observer does: sniff for an SSLv2 hello and decode it (a record the stream
// reader takes from the front decodes as the slice does), or decode a record
// (from a slice and from a stream, which must agree), its handshake message
// and the ClientHello or ServerHello it carries, then the ClientHello's list
// accessors; alert and heartbeat records decode by content type. Nothing may
// panic, and every record, handshake message and message a decoder accepts
// must encode and decode back to an equal value: the evidence that no
// decoded input reaches an encode panic. The one normalisation is that an
// empty compression list encodes as [0].
func FuzzObserveWire(f *testing.F) {
	for _, seed := range observeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if IsSSLv2Hello(data) {
			var v2, back, streamed SSLv2ClientHello
			err := v2.DecodeFromBytes(data)
			if raw, serr := ReadSSLv2Record(bytes.NewReader(data)); serr == nil &&
				(!bytes.Equal(raw, data[:len(raw)]) || (streamed.DecodeFromBytes(raw) == nil) != (err == nil)) {
				t.Fatalf("ReadSSLv2Record read % x; the slice decodes with error %v", raw, err)
			}
			if err != nil {
				return
			}
			if err := back.DecodeFromBytes(v2.Append(nil)); err != nil || !reflect.DeepEqual(v2, back) {
				t.Fatalf("sslv2 round trip: %v\n%+v\n%+v", err, v2, back)
			}
			return
		}
		rec, n, err := DecodeRecord(data)
		streamed, serr := ReadRecord(bytes.NewReader(data))
		if (err == nil) != (serr == nil) {
			t.Fatalf("DecodeRecord error %v, ReadRecord error %v", err, serr)
		}
		if err != nil {
			return
		}
		if streamed.Type != rec.Type || streamed.Version != rec.Version || !bytes.Equal(streamed.Payload, rec.Payload) {
			t.Fatalf("ReadRecord %+v, DecodeRecord %+v", streamed, rec)
		}
		if got := AppendRecord(nil, rec.Type, rec.Version, rec.Payload); !bytes.Equal(got, data[:n]) {
			t.Fatalf("record re-encodes as %x, want %x", got, data[:n])
		}
		switch rec.Type {
		case ContentAlert:
			var a, back Alert
			if a.DecodeFromBytes(rec.Payload) == nil {
				if err := back.DecodeFromBytes(a.Append(nil)); err != nil || back != a {
					t.Fatalf("alert round trip: %v %+v %+v", err, a, back)
				}
			}
			return
		case ContentHeartbeat:
			var hb, back HeartbeatMessage
			if hb.DecodeFromBytes(rec.Payload) == nil {
				if err := back.DecodeFromBytes(hb.Append(nil)); err != nil || !reflect.DeepEqual(hb, back) {
					t.Fatalf("heartbeat round trip: %v\n%+v\n%+v", err, hb, back)
				}
			}
			return
		}
		typ, body, m, err := DecodeHandshake(rec.Payload)
		if err != nil {
			return
		}
		if got := AppendHandshake(nil, typ, body); !bytes.Equal(got, rec.Payload[:m]) {
			t.Fatalf("handshake re-encodes as %x, want %x", got, rec.Payload[:m])
		}
		switch typ {
		case TypeClientHello:
			var ch, back ClientHello
			if ch.DecodeFromBytes(body) != nil {
				return
			}
			ch.AppendExtensionIDs(nil)
			ch.AppendSupportedGroups(nil)
			ch.AppendECPointFormats(nil)
			ch.AppendSupportedVersions(nil)
			if err := back.DecodeFromBytes(ch.Append(nil)); err != nil {
				t.Fatalf("client hello re-decode: %v", err)
			}
			if len(ch.CompressionMethods) == 0 {
				ch.CompressionMethods = []byte{0}
			}
			if !reflect.DeepEqual(ch, back) {
				t.Fatalf("client hello round trip:\n%+v\n%+v", ch, back)
			}
		case TypeServerHello:
			var sh, back ServerHello
			if sh.DecodeFromBytes(body) != nil {
				return
			}
			if err := back.DecodeFromBytes(sh.Append(nil)); err != nil || !reflect.DeepEqual(sh, back) {
				t.Fatalf("server hello round trip: %v\n%+v\n%+v", err, sh, back)
			}
		}
	})
}
