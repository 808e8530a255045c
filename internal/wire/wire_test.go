package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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

func TestClientHelloRoundTrip(t *testing.T) {
	ch := sampleClientHello()
	raw := ch.Append(nil)
	var got ClientHello
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ch, &got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", ch, &got)
	}
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

func TestClientHelloTruncationNeverPanics(t *testing.T) {
	full := sampleClientHello()
	raw := full.Append(nil)
	// The one prefix that is legitimately parseable: a hello ending exactly
	// after compression methods (extension-less SSL3-style form).
	noExtLen := 2 + 32 + 1 + len(full.SessionID) + 2 + 2*len(full.CipherSuites) + 1 + len(full.CompressionMethods)
	for i := 0; i < len(raw); i++ {
		var ch ClientHello
		err := ch.DecodeFromBytes(raw[:i])
		if err == nil {
			if i != noExtLen {
				t.Fatalf("truncated hello of %d/%d bytes decoded without error", i, len(raw))
			}
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("error not wrapping ErrMalformed: %v", err)
		}
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

func TestServerHelloTruncation(t *testing.T) {
	sh := &ServerHello{Version: registry.VersionTLS12, CipherSuite: 0xC02F,
		Extensions: []Extension{NewHeartbeatExtension(1)}}
	raw := sh.Append(nil)
	noExtLen := 2 + 32 + 1 + len(sh.SessionID) + 2 + 1
	for i := 0; i < len(raw); i++ {
		var got ServerHello
		if err := got.DecodeFromBytes(raw[:i]); err == nil && i != noExtLen {
			t.Fatalf("truncated server hello of %d bytes decoded", i)
		}
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

func TestHandshakeFraming(t *testing.T) {
	body := []byte{0xde, 0xad}
	msg := AppendHandshake(nil, TypeClientHello, body)
	typ, got, n, err := DecodeHandshake(msg)
	if err != nil || n != len(msg) {
		t.Fatal(err)
	}
	if typ != TypeClientHello || !bytes.Equal(got, body) {
		t.Error("handshake framing mismatch")
	}
	if _, _, _, err := DecodeHandshake(msg[:3]); err == nil {
		t.Error("truncated handshake header decoded")
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
}

func TestSSLv2Truncation(t *testing.T) {
	h := &SSLv2ClientHello{Version: registry.VersionSSL2, CipherSpecs: []uint32{0x010080}, Challenge: make([]byte, 16)}
	raw := h.Append(nil)
	for i := 0; i < len(raw); i++ {
		var got SSLv2ClientHello
		if err := got.DecodeFromBytes(raw[:i]); err == nil {
			t.Fatalf("truncated sslv2 hello of %d bytes decoded", i)
		}
	}
	// A TLS record is not an SSLv2 hello.
	if IsSSLv2Hello([]byte{22, 3, 1, 0, 5}) {
		t.Error("TLS record misdetected as SSLv2")
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

func TestIsSSLv2HelloRejectsNonHelloType(t *testing.T) {
	// High bit set but message type 4 (server-verify) is not a client hello.
	if IsSSLv2Hello([]byte{0x80, 0x03, 0x04}) {
		t.Error("non-CLIENT-HELLO sslv2 message misdetected")
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

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	// Property: arbitrary input must produce an error or a valid struct,
	// never a panic. testing/quick drives the fuzzing.
	f := func(data []byte) bool {
		var ch ClientHello
		_ = ch.DecodeFromBytes(data)
		var sh ServerHello
		_ = sh.DecodeFromBytes(data)
		var v2 SSLv2ClientHello
		_ = v2.DecodeFromBytes(data)
		_, _, _ = DecodeRecord(data)
		_, _, _, _ = DecodeHandshake(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
