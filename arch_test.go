package tlsage

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
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

// TestOneServeAssembly guards the "one assembly" decision: recovery,
// compaction, the ingest log, the pusher and the servers and router that
// listen are put together by service.Open, so a production file under cmd/
// that calls one of the pieces is assembling a second serve. bench/ is not
// walked (its in-process host predates Open and is frozen).
func TestOneServeAssembly(t *testing.T) {
	// The pieces, by the package that declares them.
	pieces := map[string][]string{
		"service":    {"RecoverStudy", "OpenIngestLog", "WriteStudySnapshot", "NewServer", "NewRouter"},
		"federation": {"NewPusher", "LoadShippedState"},
	}
	// references lists the pieces the production files of dir mention,
	// qualified (other packages) or bare (the declaring package itself).
	references := func(dir string) map[string]bool {
		t.Helper()
		found := map[string]bool{}
		fset := token.NewFileSet()
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && slices.Contains(pieces[pkg.Name], n.Sel.Name) {
						found[pkg.Name+"."+n.Sel.Name] = true
					}
				case *ast.CallExpr:
					if fn, ok := n.Fun.(*ast.Ident); ok && slices.Contains(pieces[f.Name.Name], fn.Name) {
						found[f.Name.Name+"."+fn.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return found
	}
	for ref := range references("cmd") {
		t.Errorf("cmd/ references %s: the serve assembly lives in service.Open", ref)
	}
	home := references(filepath.Join("internal", "service"))
	for pkg, names := range pieces {
		for _, name := range names {
			if !home[pkg+"."+name] {
				t.Errorf("internal/service no longer references %s.%s: the guard is looking in the wrong place", pkg, name)
			}
		}
	}
}

// calledOnlyByTests is TestProductionCallsProduction's allow-list: name →
// why a declaration that only tests reach stays in a production file.
var calledOnlyByTests = map[string]string{
	"AllSuites": "read accessor: the registered suites in code-point order. The notary codec, merge and snapshot " +
		"property tests and the registry's class-bit property test draw their random suite lists from it; " +
		"production looks a suite up by ID and never enumerates them",
	"Served": "read accessor: the connections a farm host has answered. The scanner tests assert through it that a " +
		"finished scan probed every target exactly once and that a cancelled one opened no connection",
}

// TestProductionCallsProduction guards the "production code is what
// production calls" decision: every top-level func or method declared in a
// non-test file under internal/ must be named in some non-test file of the
// module (cmd/, examples/ and bench/ count as callers) outside its own
// declaration. What only _test.go files reach is either a predecessor that
// belongs beside the differential test using it, or dead. The check is by
// name on purpose (go/parser only; the type-checked scan needs a source
// importer and 13 s), so two declarations sharing a name vouch for each
// other; the methods the standard library calls through its interfaces are
// exempt.
func TestProductionCallsProduction(t *testing.T) {
	exempt := []string{"init", "String", "Error", "Unwrap", "MarshalJSON", "UnmarshalJSON", "MarshalBinary",
		"Read", "Write", "Len", "Less", "Swap", "ServeHTTP"}
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, d := range f.Decls {
			fn, isFunc := d.(*ast.FuncDecl)
			if isFunc && internal {
				decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos())})
			}
			// Every identifier names something, except a func's own name
			// and, inside its declaration, calls to itself.
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !(isFunc && id.Name == fn.Name.Name) {
					named[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no declarations under internal/: the guard is looking in the wrong place")
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		if named[d.name] || slices.Contains(exempt, d.name) || calledOnlyByTests[d.name] != "" {
			continue
		}
		t.Errorf("%s:%d: %s is reached only from tests: delete it, or move it into the _test.go that uses it as a reference", d.pos.Filename, d.pos.Line, d.name)
	}
	for name, reason := range calledOnlyByTests {
		if reason == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
		if !declared[name] || named[name] {
			t.Errorf("allow-list entry %s is stale: it is no longer declared under internal/, or production names it now", name)
		}
	}
}

// TestOnePackageDoc guards what go doc shows first: every package under
// internal/ and cmd/ has its package doc in exactly one file, and the doc
// opens with "Package <name>" ("Command <name>" for a command). A file
// comment that sits directly on the package clause is glued into the package
// doc, so a file's own header comment needs a blank line before `package`.
func TestOnePackageDoc(t *testing.T) {
	dirs := map[string][]string{} // directory → its production files
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(dirs) < 19 {
		t.Fatalf("found %d packages under internal/ and cmd/: the guard is looking in the wrong place", len(dirs))
	}
	for dir, paths := range dirs {
		fset := token.NewFileSet()
		var files []*ast.File
		var documented []string
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			if f.Doc != nil {
				documented = append(documented, filepath.Base(path))
			}
		}
		if len(documented) != 1 {
			t.Errorf("%s: package doc in %d files %v, want exactly one", dir, len(documented), documented)
		}
		pkg, err := doc.NewFromFiles(fset, files, "tlsage/"+filepath.ToSlash(dir))
		if err != nil {
			t.Fatal(err)
		}
		want := "Package " + pkg.Name + " "
		if pkg.Name == "main" {
			want = "Command " + filepath.Base(dir) + " "
		}
		if !strings.HasPrefix(pkg.Doc, want) {
			first, _, _ := strings.Cut(pkg.Doc, "\n")
			t.Errorf("%s: go doc opens with %q, want %q…", dir, first, want)
		}
	}
}
