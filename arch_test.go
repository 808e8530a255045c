package tlsage

import (
	"go/ast"
	"go/build"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
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

// calledOnlyByTests is TestProductionCallsProduction's allow-list: a
// declaration, spelled as its package's directory and its own part of the
// symbol, → why it stays in a production file though neither binary links it.
var calledOnlyByTests = map[string]string{
	"internal/registry.AllSuites": "read accessor: the registered suites in code-point order. The notary codec, merge " +
		"and snapshot property tests and the registry's class-bit property test draw their random suite lists from " +
		"it; production looks a suite up by ID and never enumerates them",
	"internal/serverfarm.(*Host).Served": "read accessor: the connections a farm host has answered. The scanner tests " +
		"assert through it that a finished scan probed every target exactly once and that a cancelled one opened no " +
		"connection",
	"internal/notary.(*Counts).Get": "read accessor: one key's count. The paged counter's model test compares it " +
		"with a map after every operation, and the aggregate, merge and notary tests read single counts through it; " +
		"production reads a Counts only through All",
	"internal/notary.(*Counts).Has": "read accessor: whether a key is present. The model test tells a zero count " +
		"from an absent key through it, as the merge test does for a zero-count curve; production reads a Counts " +
		"only through All",
}

// TestProductionCallsProduction guards the "production code is what
// production runs" decision: every top-level func or method declared in a
// non-test file under internal/ or cmd/ must be linked into tlstrend or the
// bench harness. Both are built with inlining off in the module's packages,
// so every called function keeps its symbol, and read with go tool nm. What
// neither binary links is dead, or a predecessor that belongs beside the
// differential test using it. Two ways out: calledOnlyByTests, and use in the
// body of an Example function that go test runs — one with an "// Output:"
// comment, as go/doc.Examples reads it (an example with no output is only
// compiled and vouches for nothing). Examples are type-checked, so a use
// names one declaration, not every declaration that shares its name. A
// declaration is matched by its symbol: pkg.F, pkg.T.M, pkg.(*T).M, type
// arguments dropped (pkg.F[…], pkg.(*T[…]).M), and the Nth init of a
// package, counted in file order, as pkg.init.N; cmd/tlstrend's are main.*
// of tlstrend alone.
func TestProductionCallsProduction(t *testing.T) {
	dir := t.TempDir()
	gobuild := exec.Command("go", "build", "-gcflags=tlsage/...=-l", "-o", dir+string(filepath.Separator), "./cmd/tlstrend", "./bench")
	if out, err := gobuild.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// symbols reads a binary's symbol table, type arguments dropped.
	symbols := func(bin string) map[string]bool {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin)).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		syms := map[string]bool{}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				syms[dropTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
		return syms
	}
	tlstrend, bench := symbols("tlstrend"), symbols("bench")

	type decl struct {
		key string // the package's directory, then the symbol's own part
		sym string // as go tool nm prints it, type arguments dropped
		pos token.Position
	}
	var decls []decl
	inits := map[string]int{}
	// Output examples live in external test packages (package x_test),
	// where they are type-checked: examples holds their bodies by
	// directory, and exampleFiles the files of each such package.
	examples := map[string][]ast.Node{}
	exampleFiles := map[string][]*ast.File{}
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
		pkg := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			external := strings.HasSuffix(f.Name.Name, "_test")
			if external {
				exampleFiles[pkg] = append(exampleFiles[pkg], f)
			}
			for _, ex := range doc.Examples(f) {
				if ex.Output == "" && !ex.EmptyOutput {
					continue
				}
				if !external {
					t.Errorf("%s: %s is in package %s: put it in package %s_test, where this guard reads it",
						path, "Example"+ex.Name, f.Name.Name, f.Name.Name)
				}
				examples[pkg] = append(examples[pkg], ex.Code)
			}
			return nil
		}
		if !strings.HasPrefix(pkg, "internal/") && !strings.HasPrefix(pkg, "cmd/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		prefix := "tlsage/" + pkg + "."
		if f.Name.Name == "main" {
			prefix = "main."
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name != "_" {
				own := ownSymbol(fn, inits, pkg)
				decls = append(decls, decl{pkg + "." + own, prefix + own, fset.Position(fn.Pos())})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exampled := exampleUses(t, fset, examples, exampleFiles)
	linked := func(sym string) bool {
		return tlstrend[sym] || (!strings.HasPrefix(sym, "main.") && bench[sym])
	}
	byKey := map[string]decl{}
	nLinked := 0
	for _, d := range decls {
		byKey[d.key] = d
		if linked(d.sym) {
			nLinked++
			continue
		}
		if exampled[d.key] || calledOnlyByTests[d.key] != "" {
			continue
		}
		t.Errorf("%s:%d: %s is linked into neither tlstrend nor bench: delete it, or move it into the _test.go that uses it as a reference",
			d.pos.Filename, d.pos.Line, d.key)
	}
	for key, reason := range calledOnlyByTests {
		if reason == "" {
			t.Errorf("allow-list entry %s has no reason", key)
		}
		if d, ok := byKey[key]; !ok || linked(d.sym) || exampled[key] {
			t.Errorf("allow-list entry %s is stale: it is no longer declared, or a binary links it, or an example uses it", key)
		}
	}

	// One linked declaration of each symbol shape, so a shape the matching
	// gets wrong fails here instead of passing for want of declarations.
	for _, c := range []struct{ shape, key string }{
		{"plain func", "internal/adoption.MustPiecewise"},
		{"value receiver", "internal/adoption.Constant.Value"},
		{"pointer receiver", "internal/notary.(*ShardBuilder).Flush"},
		{"generic method", "internal/notary.(*Counts).Set"},
	} {
		t.Run(c.shape, func(t *testing.T) {
			d, ok := byKey[c.key]
			if !ok {
				t.Fatalf("%s is not among the declarations read", c.key)
			}
			if !linked(d.sym) {
				t.Errorf("%s is declared but %s is not found linked", c.key, d.sym)
			}
		})
	}
	t.Run("init", func(t *testing.T) {
		// No production file declares an init, so the shape is checked on
		// a standard package that both binaries link.
		pkg, err := build.Import("flag", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		inits := map[string]int{}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "init" {
					sym := pkg.ImportPath + "." + ownSymbol(fn, inits, pkg.ImportPath)
					if !tlstrend[sym] || !bench[sym] {
						t.Errorf("%s is declared but not found linked into both binaries", sym)
					}
				}
			}
		}
		if inits[pkg.ImportPath] == 0 {
			t.Fatalf("%s declares no init", pkg.ImportPath)
		}
	})
	t.Run("examples are read", func(t *testing.T) {
		for _, key := range []string{"internal/core.NewStudy", "internal/fingerprint.(*DB).Lookup"} {
			if !exampled[key] {
				t.Errorf("%s is used by an Output example but not found among the example uses", key)
			}
		}
	})
	t.Run("floor of linked declarations", func(t *testing.T) {
		const floor = 600 // 709 at the time of writing
		if nLinked < floor {
			t.Errorf("%d of %d declarations found linked, want at least %d", nLinked, len(decls), floor)
		}
	})
}

// exampleUses type-checks the external test packages that hold Output
// examples, against the export data go list -export gives for their imports,
// and returns the funcs and methods the examples' bodies use, spelled as
// calledOnlyByTests spells a declaration.
func exampleUses(t *testing.T, fset *token.FileSet, examples map[string][]ast.Node, files map[string][]*ast.File) map[string]bool {
	t.Helper()
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for dir := range examples {
		for _, f := range files[dir] {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				args = append(args, path)
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	uses := map[string]bool{}
	for dir, bodies := range examples {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if _, err := conf.Check("tlsage/"+dir+"_test", fset, files[dir], info); err != nil {
			t.Fatalf("type-checking the examples in %s: %v", dir, err)
		}
		for _, body := range bodies {
			ast.Inspect(body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				fn = fn.Origin()
				own := fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					typ := recv.Type()
					ptr, isPtr := typ.(*types.Pointer)
					if isPtr {
						typ = ptr.Elem()
					}
					named, ok := typ.(*types.Named)
					if !ok {
						return true // a method of an unnamed interface
					}
					name := named.Obj().Name()
					if isPtr {
						name = "(*" + name + ")"
					}
					own = name + "." + own
				}
				uses[strings.TrimPrefix(fn.Pkg().Path(), "tlsage/")+"."+own] = true
				return true
			})
		}
	}
	return uses
}

// ownSymbol is fn's symbol after its package path: F, T.M or (*T).M, type
// parameters dropped, or init.N for the Nth init declared in pkg, counted in
// inits in file order.
func ownSymbol(fn *ast.FuncDecl, inits map[string]int, pkg string) string {
	if fn.Recv == nil {
		if fn.Name.Name != "init" {
			return fn.Name.Name
		}
		inits[pkg]++
		return "init." + strconv.Itoa(inits[pkg]-1)
	}
	recv, star := fn.Recv.List[0].Type, false
	if s, ok := recv.(*ast.StarExpr); ok {
		recv, star = s.X, true
	}
	switch x := recv.(type) {
	case *ast.IndexExpr:
		recv = x.X
	case *ast.IndexListExpr:
		recv = x.X
	}
	typ := recv.(*ast.Ident).Name
	if star {
		typ = "(*" + typ + ")"
	}
	return typ + "." + fn.Name.Name
}

// dropTypeArgs removes every bracketed type-argument list from a symbol:
// pkg.(*T[go.shape.int]).M becomes pkg.(*T).M.
func dropTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
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
// a frame, its month rows and its cell table are data, never written after
// the constructor that makes them returns, so successive frames may share
// them and a frame holds no memo and no lock. Neither Frame nor frameRow
// declares a field of a sync or sync/atomic type. In internal/analysis's
// production files, type-checked, a field of a Frame, frameRow or cellTable
// is written — by an assignment, ++/--, or copy or clear into it — only in
// that type's writers below, and a writer other than the two constructors is
// called only from a constructor or another writer, so it runs only while a
// constructor does.
func TestFrameWrittenOnlyByConstructors(t *testing.T) {
	writers := map[string]map[string]bool{
		"Frame":     {"NewFrame": false, "Advance": false, "put": false, "fillFP": false, "fillFPRow": false},
		"frameRow":  {"fillRow": false, "put": false, "fillFPRow": false},
		"cellTable": {"put": false, "add": false},
	}
	constructors := map[string]bool{"NewFrame": true, "Advance": true}
	runsInConstructor := func(fn string) bool {
		if constructors[fn] {
			return true
		}
		for _, ws := range writers {
			if _, ok := ws[fn]; ok {
				return true
			}
		}
		return false
	}

	dir := filepath.Join("internal", "analysis")
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "./"+dir).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := conf.Check("tlsage/internal/analysis", fset, files, info)
	if err != nil {
		t.Fatalf("type-checking internal/analysis: %v", err)
	}

	for name := range writers {
		obj := pkg.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("no %s type in internal/analysis: the guard is looking in the wrong place", name)
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if named, ok := st.Field(i).Type().(*types.Named); ok && named.Obj().Pkg() != nil &&
				(named.Obj().Pkg().Path() == "sync" || named.Obj().Pkg().Path() == "sync/atomic") {
				t.Errorf("%s has a %s field %s: it holds no lock or memo", name, named, st.Field(i).Name())
			}
		}
	}
	// written names the guarded type whose field lhs selects, directly or
	// through indexing, "" when it selects none.
	written := func(lhs ast.Expr) string {
		for {
			switch x := lhs.(type) {
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					recv := sel.Recv()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					if named, ok := recv.(*types.Named); ok && writers[named.Obj().Name()] != nil {
						return named.Obj().Name()
					}
				}
				lhs = x.X
			case *ast.IndexExpr:
				lhs = x.X
			case *ast.SliceExpr:
				lhs = x.X
			case *ast.ParenExpr:
				lhs = x.X
			case *ast.StarExpr:
				lhs = x.X
			default:
				return ""
			}
		}
	}
	for _, file := range files {
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			write := func(lhs ast.Expr) {
				typ := written(lhs)
				if typ == "" {
					return
				}
				if _, ok := writers[typ][fn.Name.Name]; ok {
					writers[typ][fn.Name.Name] = true
					return
				}
				t.Errorf("%s: %s writes a %s field: it is written only while NewFrame or Advance runs, by %v",
					fset.Position(lhs.Pos()), fn.Name.Name, typ, slices.Sorted(maps.Keys(writers[typ])))
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.CallExpr:
					callee, _ := ast.Unparen(n.Fun).(*ast.Ident)
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
						callee = sel.Sel
					}
					if callee == nil {
						return true
					}
					switch obj := info.Uses[callee].(type) {
					case *types.Builtin:
						if (obj.Name() == "copy" || obj.Name() == "clear") && len(n.Args) > 0 {
							write(n.Args[0])
						}
					case *types.Func:
						if obj.Pkg() == pkg && runsInConstructor(obj.Name()) && !constructors[obj.Name()] && !runsInConstructor(fn.Name.Name) {
							t.Errorf("%s: %s calls the writer %s: a writer runs only inside NewFrame or Advance",
								fset.Position(n.Pos()), fn.Name.Name, obj.Name())
						}
					}
				}
				return true
			})
		}
	}
	for typ, ws := range writers {
		for name, wrote := range ws {
			if !wrote {
				t.Errorf("allowed writer %s writes no %s field: the guard is looking in the wrong place, or the entry is stale", name, typ)
			}
		}
	}
}
