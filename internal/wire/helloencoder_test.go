package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"tlsage/internal/registry"
)

func encoderTestHello(rnd *rand.Rand) *ClientHello {
	n := 1 + rnd.Intn(20)
	suites := make([]uint16, n)
	for i := range suites {
		suites[i] = uint16(rnd.Intn(0x1400))
	}
	ch := &ClientHello{
		Version:      registry.VersionTLS12,
		CipherSuites: suites,
	}
	rnd.Read(ch.Random[:])
	if rnd.Intn(2) == 0 {
		ch.Extensions = []Extension{
			NewSupportedGroupsExtension([]registry.CurveID{registry.CurveSecp256r1}),
			{ID: registry.ExtHeartbeat, Data: []byte{1}},
		}
	}
	return ch
}

// A reused HelloEncoder must emit exactly the bytes of the allocate-fresh
// AppendRecord path, message after message.
func TestHelloEncoderMatchesAppendRecord(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	var enc HelloEncoder
	var scratch []byte
	for i := 0; i < 200; i++ {
		ch := encoderTestHello(rnd)
		want := ch.AppendRecord(nil)
		scratch = enc.AppendRecord(ch, scratch[:0])
		if !bytes.Equal(want, scratch) {
			t.Fatalf("message %d: encoder bytes differ from AppendRecord", i)
		}
	}
}

// Steady-state encoding through the scratch buffers must not allocate.
func TestHelloEncoderSteadyStateAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	ch := encoderTestHello(rnd)
	var enc HelloEncoder
	dst := enc.AppendRecord(ch, nil)
	if got := testing.AllocsPerRun(200, func() {
		dst = enc.AppendRecord(ch, dst[:0])
	}); got != 0 {
		t.Errorf("steady-state HelloEncoder.AppendRecord: %v allocs/run, want 0", got)
	}
}
