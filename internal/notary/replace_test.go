package notary

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReplaceFile: the target appears (directory created on the way) under
// the name the writer chose, a second call replaces it, and a failed write
// leaves the old content in place and no temp file behind.
func TestReplaceFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub", "state")
	write := func(content string, err error) func(io.Writer) (string, error) {
		return func(w io.Writer) (string, error) {
			_, _ = io.WriteString(w, content)
			return "cursor", err
		}
	}
	for _, content := range []string{"one\n", "two\n"} {
		if err := ReplaceFile(dir, ".cursor-*", write(content, nil)); err != nil {
			t.Fatalf("ReplaceFile: %v", err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, "cursor")); err != nil || string(got) != content {
			t.Fatalf("target holds %q (%v), want %q", got, err, content)
		}
	}
	if err := ReplaceFile(dir, "no/temp-*", write("x", nil)); err == nil {
		t.Fatal("a temp pattern with a path separator was created")
	}
	boom := errors.New("writer failed")
	if err := ReplaceFile(dir, ".cursor-*", write("torn", boom)); !errors.Is(err, boom) {
		t.Fatalf("failed write: err %v, want the writer's", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "cursor" {
		t.Fatalf("after a failed write the directory holds %v (%v), want only the target", entries, err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "cursor")); string(got) != "two\n" {
		t.Fatalf("a failed write changed the target to %q", got)
	}
}
