package tlsage

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneFrameEnvelope guards the "one envelope" decision: the frame
// checksum lives in internal/framing, so any other production package that
// imports hash/crc32 is hand-rolling a fourth frame. bench/ (frozen, and a
// measurement tool rather than part of the program) and test files are not
// walked.
func TestOneFrameEnvelope(t *testing.T) {
	const envelope = "internal/framing"
	fset := token.NewFileSet()
	seen := false
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if name, _ := strconv.Unquote(imp.Path.Value); name != "hash/crc32" {
				continue
			}
			if filepath.ToSlash(filepath.Dir(path)) == envelope {
				seen = true
				continue
			}
			t.Errorf("%s imports hash/crc32: frame through %s instead of checksumming by hand", path, envelope)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Errorf("%s no longer imports hash/crc32: the guard is looking in the wrong place", envelope)
	}
}
