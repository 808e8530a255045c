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
// module (cmd/ and bench/ count as callers) outside its own declaration, or
// in the body of an Example function that go test runs: one with an
// "// Output:" comment, as go/doc.Examples reads it. An example with no
// output is only compiled, and vouches for nothing. What only other _test.go
// code reaches is either a predecessor that belongs beside the differential
// test using it, or dead. The check is by name on purpose (go/parser only;
// the type-checked scan needs a source importer and 13 s), so two
// declarations sharing a name vouch for each other; the methods the standard
// library calls through its interfaces are exempt.
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, ex := range doc.Examples(f) {
				if ex.Output == "" && !ex.EmptyOutput {
					continue
				}
				ast.Inspect(ex.Code, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						named[id.Name] = true
					}
					return true
				})
			}
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

// TestServeConfigIsItsFlagSet guards open.go's "one field per flag": every
// exported service.Config field but Logf is bound by exactly one
// fs.*Var(&cfg.X, …) in cmd/tlstrend/serve.go, and every flag serve defines
// binds a Config field, so a knob cannot be added on one side only.
func TestServeConfigIsItsFlagSet(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		t.Helper()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fields := map[string]int{} // Config field → flags binding it
	ast.Inspect(parse(filepath.Join("internal", "service", "open.go")), func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Config" {
			return true
		}
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			for _, name := range field.Names {
				if name.IsExported() && name.Name != "Logf" {
					fields[name.Name] = 0
				}
			}
		}
		return false
	})
	if len(fields) == 0 {
		t.Fatal("no service.Config fields: the guard is looking in the wrong place")
	}
	// The FlagSet methods that define no flag.
	reads := []string{"Parse", "Parsed", "Args", "Arg", "NArg", "NFlag", "Lookup", "Set", "Visit", "VisitAll",
		"PrintDefaults", "SetOutput", "Output", "Name", "ErrorHandling", "Init"}
	ast.Inspect(parse(filepath.Join("cmd", "tlstrend", "serve.go")), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" || slices.Contains(reads, sel.Sel.Name) {
			return true
		}
		pos := fset.Position(call.Pos())
		bound := ""
		if addr, ok := call.Args[0].(*ast.UnaryExpr); ok && addr.Op == token.AND && strings.HasSuffix(sel.Sel.Name, "Var") {
			if field, ok := addr.X.(*ast.SelectorExpr); ok {
				if cfg, ok := field.X.(*ast.Ident); ok && cfg.Name == "cfg" {
					bound = field.Sel.Name
				}
			}
		}
		if _, isField := fields[bound]; !isField {
			t.Errorf("%s:%d: fs.%s defines a flag that binds no service.Config field", pos.Filename, pos.Line, sel.Sel.Name)
			return true
		}
		fields[bound]++
		return true
	})
	for name, flags := range fields {
		if flags != 1 {
			t.Errorf("service.Config.%s is bound by %d serve flags, want exactly 1", name, flags)
		}
	}
}

// TestFrameWrittenOnlyByConstructors guards what analysis.Frame's doc claims:
// a frame is data, never written after its constructor returns, so it holds no
// memo and no lock. Frame declares no field of a sync or sync/atomic type,
// and in internal/analysis's production files only the constructors and the
// two fillers they call assign to a field through a *Frame. A *Frame is a
// receiver, parameter or result declared *Frame, or a local made from
// &Frame{…}; a write is an assignment or ++/-- whose left side selects a
// field of one, directly or through indexing.
func TestFrameWrittenOnlyByConstructors(t *testing.T) {
	writers := map[string]bool{"NewFrame": false, "Advance": false, "fillRow": false, "buildFPColumns": false}
	isFrame := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "Frame"
	}
	// throughFrame reports whether lhs selects a field of one of frames.
	throughFrame := func(lhs ast.Expr, frames map[string]bool) bool {
		for {
			switch x := lhs.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && frames[id.Name] {
					return true
				}
				lhs = x.X
			case *ast.IndexExpr:
				lhs = x.X
			case *ast.ParenExpr:
				lhs = x.X
			default:
				return false
			}
		}
	}

	paths, err := filepath.Glob(filepath.Join("internal", "analysis", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sawFrame := false
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if d, ok := d.(*ast.GenDecl); ok {
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == "Frame" {
						sawFrame = true
						ast.Inspect(ts.Type, func(n ast.Node) bool {
							if sel, ok := n.(*ast.SelectorExpr); ok {
								if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "sync" || pkg.Name == "atomic") {
									t.Errorf("%s: Frame has a %s.%s field: a frame holds no lock or memo",
										fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
								}
							}
							return true
						})
					}
				}
			}
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			frames := map[string]bool{}
			for _, list := range []*ast.FieldList{fn.Recv, fn.Type.Params, fn.Type.Results} {
				if list == nil {
					continue
				}
				for _, field := range list.List {
					if star, ok := field.Type.(*ast.StarExpr); ok && isFrame(star.X) {
						for _, name := range field.Names {
							frames[name.Name] = true
						}
					}
				}
			}
			write := func(lhs ast.Expr) {
				if !throughFrame(lhs, frames) {
					return
				}
				if _, ok := writers[fn.Name.Name]; ok {
					writers[fn.Name.Name] = true
					return
				}
				t.Errorf("%s: %s writes a Frame field: a frame is never written after NewFrame or Advance returns",
					fset.Position(lhs.Pos()), fn.Name.Name)
			}
			// Source order: a local is declared before it is written through.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						write(lhs)
						id, ok := lhs.(*ast.Ident)
						if !ok || len(n.Lhs) != len(n.Rhs) {
							continue
						}
						if u, ok := n.Rhs[i].(*ast.UnaryExpr); ok && u.Op == token.AND {
							if lit, ok := u.X.(*ast.CompositeLit); ok && isFrame(lit.Type) {
								frames[id.Name] = true
							}
						}
					}
				case *ast.IncDecStmt:
					write(n.X)
				}
				return true
			})
		}
	}
	if !sawFrame {
		t.Fatal("no Frame type in internal/analysis: the guard is looking in the wrong place")
	}
	for name, wrote := range writers {
		if !wrote {
			t.Errorf("allowed writer %s writes no Frame field: the guard is looking in the wrong place, or the entry is stale", name)
		}
	}
}
