package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"tlsage/internal/registry"
)

// serverNameExtension builds a server_name (SNI) extension carrying one
// host_name entry.
func serverNameExtension(host string) Extension {
	var b builder
	var list builder
	list.u8(0) // name_type host_name
	list.vec16([]byte(host))
	b.vec16(list.buf)
	return Extension{ID: registry.ExtServerName, Data: b.buf}
}

func sampleClientHello() *ClientHello {
	ch := &ClientHello{
		Version:            registry.VersionTLS12,
		SessionID:          []byte{1, 2, 3, 4},
		CipherSuites:       []uint16{0xC02F, 0xC030, 0xC013, 0xC014, 0x009C, 0x0035, 0x002F, 0x000A},
		CompressionMethods: []byte{0},
		Extensions: []Extension{
			serverNameExtension("example.org"),
			NewSupportedGroupsExtension([]registry.CurveID{registry.CurveX25519, registry.CurveSecp256r1, registry.CurveSecp384r1}),
			NewECPointFormatsExtension([]registry.ECPointFormat{registry.PointFormatUncompressed}),
			NewSupportedVersionsExtension([]registry.Version{registry.VersionTLS13, registry.VersionTLS12}),
			NewHeartbeatExtension(1),
		},
	}
	for i := range ch.Random {
		ch.Random[i] = byte(i)
	}
	return ch
}

func TestClientHelloAccessors(t *testing.T) {
	ch := sampleClientHello()
	groups := ch.SupportedGroups()
	if len(groups) != 3 || groups[0] != registry.CurveX25519 {
		t.Errorf("SupportedGroups = %v", groups)
	}
	pf := ch.AppendECPointFormats(nil)
	if len(pf) != 1 || pf[0] != registry.PointFormatUncompressed {
		t.Errorf("AppendECPointFormats = %v", pf)
	}
	if !ch.OffersHeartbeat() {
		t.Error("OffersHeartbeat = false")
	}
	ids := ch.AppendExtensionIDs(nil)
	if len(ids) != 5 || ids[0] != registry.ExtServerName {
		t.Errorf("AppendExtensionIDs = %v", ids)
	}
}

func TestClientHelloNoExtensions(t *testing.T) {
	ch := &ClientHello{
		Version:      registry.VersionSSL3,
		CipherSuites: []uint16{0x0005, 0x0004},
	}
	raw := ch.Append(nil)
	// An SSL3-era hello may legitimately end right after compression methods.
	// Strip the (empty) extensions block we emit and check the parser accepts
	// the shorter form.
	raw = raw[:len(raw)-2]
	var got ClientHello
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if len(got.Extensions) != 0 {
		t.Errorf("expected no extensions, got %v", got.Extensions)
	}
	if got.SupportedGroups() != nil || got.OffersHeartbeat() {
		t.Error("accessors on extension-less hello should be empty")
	}
}

// The decoder accepts an empty suite list and an empty compression list, so
// the encoder writes both; the one normalisation is that an empty
// compression list reads back as [0].
func TestClientHelloEmptyListsRoundTrip(t *testing.T) {
	ch := &ClientHello{Version: registry.VersionTLS12}
	var got ClientHello
	if err := got.DecodeFromBytes(ch.Append(nil)); err != nil {
		t.Fatal(err)
	}
	ch.CompressionMethods = []byte{0}
	if !reflect.DeepEqual(ch, &got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", ch, &got)
	}
}

// Every cut of a hello is refused with ErrMalformed but one: a TLS hello cut
// right after its compression methods is the extension-less form SSL3-era
// clients send.
func TestClientHelloTruncationNeverPanics(t *testing.T) {
	full := sampleClientHello()
	sh := &ServerHello{Version: registry.VersionTLS12, CipherSuite: 0xC02F, Extensions: []Extension{NewHeartbeatExtension(1)}}
	for name, c := range map[string]struct {
		raw    []byte
		noExt  int
		decode func([]byte) error
	}{
		"client": {full.Append(nil), 2 + 32 + 1 + len(full.SessionID) + 2 + 2*len(full.CipherSuites) + 1 + len(full.CompressionMethods),
			func(b []byte) error { return new(ClientHello).DecodeFromBytes(b) }},
		"server": {sh.Append(nil), 2 + 32 + 1 + 2 + 1, func(b []byte) error { return new(ServerHello).DecodeFromBytes(b) }},
		"sslv2": {(&SSLv2ClientHello{Version: registry.VersionSSL2, CipherSpecs: []uint32{0x010080}, Challenge: make([]byte, 16)}).Append(nil),
			-1, func(b []byte) error { return new(SSLv2ClientHello).DecodeFromBytes(b) }},
	} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < len(c.raw); i++ {
				if err := c.decode(c.raw[:i]); (err == nil) != (i == c.noExt) || err != nil && !errors.Is(err, ErrMalformed) {
					t.Fatalf("a cut to %d of %d bytes: err %v", i, len(c.raw), err)
				}
			}
		})
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	sh := &ServerHello{
		Version:     registry.VersionTLS12,
		SessionID:   []byte{9, 9},
		CipherSuite: 0xC02F,
		Extensions: []Extension{
			NewHeartbeatExtension(1),
			NewServerSupportedVersionsExtension(registry.VersionTLS13),
		},
	}
	raw := sh.Append(nil)
	var got ServerHello
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sh, &got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", sh, &got)
	}
	if !got.AcksHeartbeat() {
		t.Error("AcksHeartbeat = false")
	}
	if e, ok := FindExtension(got.Extensions, registry.ExtSupportedVersions); !ok || !bytes.Equal(e.Data, []byte{0x03, 0x04}) {
		t.Errorf("supported_versions = %v, %v; want TLS13 selected", e, ok)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	raw := AppendRecord(nil, ContentHandshake, registry.VersionTLS10, payload)
	rec, n, err := DecodeRecord(raw)
	if err != nil || n != len(raw) {
		t.Fatalf("DecodeRecord: %v n=%d", err, n)
	}
	if rec.Type != ContentHandshake || rec.Version != registry.VersionTLS10 || !bytes.Equal(rec.Payload, payload) {
		t.Errorf("record mismatch: %+v", rec)
	}
	// Stream form.
	rec2, err := ReadRecord(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec2.Payload, payload) {
		t.Error("ReadRecord payload mismatch")
	}
	for typ, want := range map[ContentType]string{
		ContentChangeCipherSpec: "change_cipher_spec",
		ContentAlert:            "alert",
		ContentHandshake:        "handshake",
		ContentApplicationData:  "application_data",
		ContentHeartbeat:        "heartbeat",
		99:                      "content(99)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("ContentType(%d).String() = %q, want %q", uint8(typ), got, want)
		}
	}
}

// Every encode limit panics: a length its prefix or the record layer cannot
// hold is a programming error, not an input the encoder refuses.
func TestRecordOversizeRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		encode func()
	}{
		{"vec8 of 256 bytes", func() {
			(&ClientHello{SessionID: make([]byte, 0x100)}).Append(nil)
		}},
		{"extension body of 0x10000 bytes", func() {
			(&ServerHello{Extensions: []Extension{{Data: make([]byte, 0x10000)}}}).Append(nil)
		}},
		{"0x8000 cipher suites", func() {
			(&ClientHello{CipherSuites: make([]uint16, 0x8000)}).Append(nil)
		}},
		{"handshake body of 2^24 bytes", func() {
			AppendHandshake(nil, TypeClientHello, make([]byte, 1<<24))
		}},
		{"sslv2 body over 0x7fff", func() {
			(&SSLv2ClientHello{Challenge: make([]byte, 0x7fff)}).Append(nil)
		}},
		{"record over 2^14", func() {
			AppendRecord(nil, ContentHandshake, registry.VersionTLS10, make([]byte, maxRecordLen+1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("encoded without panicking")
				}
			}()
			tc.encode()
		})
	}
	hdr := []byte{22, 3, 1, 0xff, 0xff}
	if _, _, err := DecodeRecord(append(hdr, make([]byte, 0xffff)...)); err == nil {
		t.Error("oversize record decoded")
	}
}

func TestFullRecordPath(t *testing.T) {
	// ClientHello → record bytes → record decode → handshake decode → hello.
	ch := sampleClientHello()
	rec, _, err := DecodeRecord(ch.AppendRecord(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != ContentHandshake {
		t.Fatalf("record type %v", rec.Type)
	}
	if rec.Version != registry.VersionTLS10 {
		t.Fatalf("record version %v, want TLS10 clamp", rec.Version)
	}
	typ, body, _, err := DecodeHandshake(rec.Payload)
	if err != nil || typ != TypeClientHello {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"cut-header": 3, "cut-body": len(rec.Payload) - 1} {
		t.Run(name, func(t *testing.T) {
			if _, _, _, err := DecodeHandshake(rec.Payload[:n]); err == nil {
				t.Errorf("a handshake message cut to %d bytes decoded", n)
			}
		})
	}
	var got ClientHello
	if err := got.DecodeFromBytes(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ch, &got) {
		t.Error("full path mismatch")
	}
}

func TestServerHelloRecordVersionClamp(t *testing.T) {
	sh := &ServerHello{Version: registry.VersionTLS13, CipherSuite: 0x1301}
	rec, _, err := DecodeRecord(sh.AppendRecord(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != registry.VersionTLS12 {
		t.Errorf("TLS 1.3 ServerHello record version = %v, want TLS12", rec.Version)
	}
}

func TestAlertRoundTrip(t *testing.T) {
	a := Alert{Level: 2, Description: AlertHandshakeFailure}
	var got Alert
	if err := got.DecodeFromBytes(a.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Error("alert mismatch")
	}
	if err := got.DecodeFromBytes([]byte{1}); err == nil {
		t.Error("short alert decoded")
	}
}

func TestSSLv2RoundTrip(t *testing.T) {
	h := &SSLv2ClientHello{
		Version:     registry.VersionSSL2,
		CipherSpecs: []uint32{0x010080, 0x020080, 0x000005}, // v2 RC4, v2 RC4-export, TLS RSA_RC4_SHA
		Challenge:   bytes.Repeat([]byte{7}, 16),
	}
	raw := h.Append(nil)
	if !IsSSLv2Hello(raw) {
		t.Error("IsSSLv2Hello = false on valid hello")
	}
	var got SSLv2ClientHello
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Version != registry.VersionSSL2 || len(got.CipherSpecs) != 3 {
		t.Errorf("sslv2 decode: %+v", got)
	}
	if got.SessionID == nil {
		got.SessionID = []byte{}
	}
	tls := TLSSuitesFromSSLv2(got.CipherSpecs)
	if len(tls) != 1 || tls[0] != 0x0005 {
		t.Errorf("TLSSuitesFromSSLv2 = %v", tls)
	}
	// Neither a TLS record nor an SSLv2 message of another type (4,
	// server-verify) is a client hello.
	for name, b := range map[string][]byte{"tls-record": {22, 3, 1, 0, 5}, "server-verify": {0x80, 0x03, 0x04, 0, 2}} {
		t.Run(name, func(t *testing.T) {
			if IsSSLv2Hello(b) || got.DecodeFromBytes(b) == nil {
				t.Errorf("% x detected or decoded as an SSLv2 client hello", b)
			}
		})
	}
}

// ReadSSLv2Record reads one whole SSLv2 record and no byte past it, and
// refuses a cut header, a TLS header, a body over 2^14 and a cut body.
func TestReadSSLv2Record(t *testing.T) {
	raw := (&SSLv2ClientHello{Version: registry.VersionSSL2, CipherSpecs: []uint32{0x010080}, Challenge: make([]byte, 16)}).Append(nil)
	r := bytes.NewReader(append(append([]byte(nil), raw...), 22, 3, 1))
	if got, err := ReadSSLv2Record(r); err != nil || !bytes.Equal(got, raw) || r.Len() != 3 {
		t.Fatalf("read % x with %d bytes left, err %v; want % x with 3 left", got, r.Len(), err, raw)
	}
	for name, in := range map[string][]byte{
		"cut header": {0x80},
		"tls header": {22, 3, 1, 0, 5},
		"oversized":  {0xff, 0xff},
		"cut body":   {0x80, 0x10, 1, 2},
	} {
		if got, err := ReadSSLv2Record(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: read % x", name, got)
		}
	}
}

// quickClientHello generates structurally valid random ClientHellos for the
// round-trip property test.
func quickClientHello(r *rand.Rand) *ClientHello {
	ch := &ClientHello{
		Version: []registry.Version{registry.VersionSSL3, registry.VersionTLS10,
			registry.VersionTLS11, registry.VersionTLS12}[r.Intn(4)],
		SessionID:          make([]byte, r.Intn(33)),
		CipherSuites:       make([]uint16, 1+r.Intn(64)),
		CompressionMethods: []byte{0},
	}
	r.Read(ch.Random[:])
	r.Read(ch.SessionID)
	for i := range ch.CipherSuites {
		ch.CipherSuites[i] = uint16(r.Intn(0x10000))
	}
	if len(ch.SessionID) == 0 {
		ch.SessionID = []byte{}
	}
	nExt := r.Intn(5)
	for i := 0; i < nExt; i++ {
		var body []byte
		if n := r.Intn(40); n > 0 {
			body = make([]byte, n)
			r.Read(body)
		}
		ch.Extensions = append(ch.Extensions, Extension{
			ID:   registry.ExtensionID(r.Intn(0x10000)),
			Data: body,
		})
	}
	return ch
}

func TestClientHelloRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		ch := quickClientHello(r)
		var got ClientHello
		if err := got.DecodeFromBytes(ch.Append(nil)); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		// Normalize nil vs empty for comparison.
		if got.SessionID == nil {
			got.SessionID = []byte{}
		}
		if !reflect.DeepEqual(ch, &got) {
			t.Fatalf("iteration %d mismatch:\n%+v\n%+v", i, ch, &got)
		}
	}
}
