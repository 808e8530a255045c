package federation

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// compatFixtureDelta is the deterministic delta behind the recorded
// testdata/delta_v<version>.bin fixtures.
func compatFixtureDelta() *Delta {
	return &Delta{Source: "edge-eu", Base: 42, Agg: buildAggregate(1, 6)}
}

func fixturePath(version int) string {
	return filepath.Join("testdata", fmt.Sprintf("delta_v%d.bin", version))
}

// TestRecordCompatFixtures records the fixture of the delta version this
// build writes. Guarded like its notary counterpart: the file name carries
// the version byte, so a post-bump tree adds a file instead of overwriting
// genuine older bytes.
func TestRecordCompatFixtures(t *testing.T) {
	if os.Getenv("RECORD_COMPAT_FIXTURES") == "" {
		t.Skip("set RECORD_COMPAT_FIXTURES=1 to record the current version's fixture")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fixturePath(DeltaVersion), mustEncode(t, compatFixtureDelta()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCurrentVersionGolden pins the bytes this build writes: AppendDelta
// reproduces the committed fixture byte for byte and both decoders read it
// back to the fixture content.
func TestCurrentVersionGolden(t *testing.T) {
	golden, err := os.ReadFile(fixturePath(DeltaVersion))
	if err != nil {
		t.Fatal(err)
	}
	want := compatFixtureDelta()
	if got := mustEncode(t, want); !bytes.Equal(got, golden) {
		t.Errorf("EncodeDelta wrote %d bytes that differ from the %d-byte golden", len(got), len(golden))
	}
	if got, err := AppendDelta([]byte("prefix"), want); err != nil || !bytes.Equal(got[len("prefix"):], golden) {
		t.Errorf("AppendDelta onto a non-empty dst differs from the golden (err %v)", err)
	}
	for name, decode := range map[string]func() (*Delta, error){
		"DecodeDelta": func() (*Delta, error) { return DecodeDelta(golden) },
		"ReadDelta":   func() (*Delta, error) { return ReadDelta(bytes.NewReader(golden)) },
	} {
		got, err := decode()
		if err != nil {
			t.Errorf("%s(golden): %v", name, err)
			continue
		}
		if got.Source != want.Source || got.Base != want.Base || !reflect.DeepEqual(got.Agg, want.Agg) {
			t.Errorf("%s(golden) differs from the fixture content", name)
		}
	}
}
