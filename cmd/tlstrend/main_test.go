package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tlsage/internal/core"
)

// TestCLI drives the built binary: serve refuses a queue bound below 1 —
// the merge queue is the only ingest path, so there is no "0 = off" — and
// an offline query prints exactly what core.Study.Query computes.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tlstrend")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("serve rejects -queue-bound 0", func(t *testing.T) {
		out, err := exec.Command(bin, "serve", "-http", "127.0.0.1:0", "-queue-bound", "0").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("serve -queue-bound 0: err=%v, want a non-zero exit\n%s", err, out)
		}
		if !strings.Contains(string(out), "-queue-bound") {
			t.Errorf("error output does not name the flag:\n%s", out)
		}
	})

	t.Run("query matches Study.Query", func(t *testing.T) {
		const q = "pct(version:tls12 / established)"
		got, err := exec.Command(bin, "query", "-q", q, "-conns", "20", "-seed", "7", "-json").Output()
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		s := core.NewStudy(20)
		s.Options.Seed = 7
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("query -json printed\n%s\nwant\n%s", got, want.Bytes())
		}
	})
}
