package tlsage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mutant is one seeded fault: the bytes [from, to) of file become repl.
type mutant struct {
	file, fn, op string // file name, enclosing function, operator
	line         int
	from, to     int
	repl         string
}

// TestMutants is the mutation runner. TLSAGE_MUTANTS=<pkg>:<n>[,…] names the
// audited packages under internal/ and how many mutants to seed in each (0
// adds a package's tests without mutating it). Each mutant changes one site
// of a production file — a flipped comparison (< and >=, > and <=, == and
// !=), && swapped with ||, a negated if, a dropped += or ++ statement — and
// is handed to `go test -json -overlay` over its package and every other
// named package that imports it, with a timeout of four times their clean
// run (at least 10 s); a timeout kills. The sites are shuffled by a fixed seed, so a smaller
// n samples a prefix of a larger one. It logs each mutant's killers (the
// top-level tests that fail), the kills per test and the kills no other test
// makes, and fails when a survivor of a package listed in
// .github/surviving-mutants.txt is not listed there.
func TestMutants(t *testing.T) {
	spec := os.Getenv("TLSAGE_MUTANTS")
	if spec == "" {
		t.Skip("set TLSAGE_MUTANTS=<pkg>:<n>[,…] to run seeded mutants against the tests")
	}
	type audit struct {
		pkg string
		n   int
	}
	var audits []audit
	var scope []string
	for _, f := range strings.Split(spec, ",") {
		name, count, ok := strings.Cut(f, ":")
		n, err := strconv.Atoi(count)
		if !ok || err != nil || n < 0 {
			t.Fatalf("TLSAGE_MUTANTS entry %q is not <pkg>:<n>", f)
		}
		audits = append(audits, audit{"internal/" + strings.TrimPrefix(name, "internal/"), n})
		scope = append(scope, "./"+audits[len(audits)-1].pkg)
	}
	// Deps of a package's test binary: what a mutant in it recompiles.
	deps := map[string][]string{}
	out, err := exec.Command("go", append([]string{"list", "-test", "-f", "{{.ImportPath}} {{join .Deps \" \"}}"}, scope...)...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if pkg, ok := strings.CutSuffix(f[0], ".test"); ok {
			deps[strings.TrimPrefix(pkg, "tlsage/")] = f[1:]
		}
	}
	clean := runTests(t, "", time.Hour, scope)
	if len(clean.killers) > 0 || clean.buildFailed {
		t.Fatalf("the audited packages fail without a mutant: %v", clean.killers)
	}
	allowed := survivorList(t)
	for _, a := range audits {
		var tested []string
		limit := 10 * time.Second
		for _, b := range audits {
			if b.pkg == a.pkg || slices.Contains(deps[b.pkg], "tlsage/"+a.pkg) {
				tested = append(tested, "./"+b.pkg)
				limit = max(limit, 4*clean.elapsed["tlsage/"+b.pkg])
			}
		}
		sites := mutantSites(t, a.pkg)
		rand.New(rand.NewPCG(1, 2)).Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
		sites = sites[:min(a.n, len(sites))]
		kills := map[string]int{}
		alone := map[string]int{}
		var killed, cut, broken int
		survivors := map[string]bool{}
		for i, m := range sites {
			dir := t.TempDir()
			src, err := os.ReadFile(filepath.Join(a.pkg, m.file))
			if err != nil {
				t.Fatal(err)
			}
			mutated := append(append(slices.Clip(src[:m.from]), m.repl...), src[m.to:]...)
			abs, _ := filepath.Abs(filepath.Join(a.pkg, m.file))
			overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: filepath.Join(dir, m.file)}})
			for name, data := range map[string][]byte{m.file: mutated, "overlay.json": overlay} {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r := runTests(t, filepath.Join(dir, "overlay.json"), limit, tested)
			site := fmt.Sprintf("mutant %s %d %s:%d %s %s:", a.pkg, i, m.file, m.line, m.fn, m.op)
			switch {
			case r.buildFailed:
				broken++
				t.Log(site, "does not compile")
			case len(r.killers) == 0:
				key := m.file + " " + m.fn + " " + m.op
				survivors[key] = true
				t.Log(site, "survives")
				if list, gated := allowed[a.pkg]; gated && !list[key] {
					t.Errorf("%s survives and .github/surviving-mutants.txt has no %q: kill it with an input in a kept test, or list why it is equivalent", site, key)
				}
			default:
				killed++
				if r.cut {
					cut++
				}
				for _, k := range r.killers {
					kills[k]++
				}
				if len(r.killers) == 1 {
					alone[r.killers[0]]++
				}
				t.Log(site, "killed by", strings.Join(r.killers, " "))
			}
		}
		t.Logf("%s: %d mutants, %d do not compile, %d killed (%d ending the binary mid-test), %d survive", a.pkg, len(sites), broken, killed, cut, len(sites)-broken-killed)
		for _, k := range slices.Sorted(maps.Keys(kills)) {
			t.Logf("%s kills: %s %d, alone %d", a.pkg, k, kills[k], alone[k])
		}
		for key := range allowed[a.pkg] {
			if !survivors[key] {
				t.Logf("%s: listed survivor %q did not survive this sample", a.pkg, key)
			}
		}
	}
}

// mutantSites lists every site of the package's production files (those go
// build compiles) in file and source order.
func mutantSites(t *testing.T, pkg string) []mutant {
	out, err := exec.Command("go", "list", "-f", "{{join .GoFiles \" \"}}", "./"+pkg).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", pkg, err)
	}
	var sites []mutant
	for _, name := range strings.Fields(string(out)) {
		src, err := os.ReadFile(filepath.Join(pkg, name))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		text := func(n ast.Node) string {
			return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
		}
		for _, d := range f.Decls {
			fn := "(package)"
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
				if fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if s, ok := recv.(*ast.StarExpr); ok {
						recv = s.X
					}
					if g, ok := recv.(*ast.IndexExpr); ok {
						recv = g.X
					}
					fn = text(recv) + "." + fn
				}
			}
			add := func(at token.Pos, end token.Pos, op, repl string) {
				p := fset.Position(at)
				sites = append(sites, mutant{name, fn, op, p.Line, p.Offset, fset.Position(end).Offset, repl})
			}
			flips := map[token.Token]token.Token{
				token.LSS: token.GEQ, token.GEQ: token.LSS, token.GTR: token.LEQ, token.LEQ: token.GTR,
				token.EQL: token.NEQ, token.NEQ: token.EQL, token.LAND: token.LOR, token.LOR: token.LAND,
			}
			var post ast.Stmt
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ForStmt:
					// Without its increment a loop spins until the timeout:
					// a kill that costs minutes and tells nothing.
					post = n.Post
				case *ast.BinaryExpr:
					if to, ok := flips[n.Op]; ok {
						add(n.OpPos, n.OpPos+token.Pos(len(n.Op.String())), n.Op.String()+" to "+to.String(), to.String())
					}
				case *ast.IfStmt:
					add(n.Cond.Pos(), n.Cond.End(), "negate if", "!("+text(n.Cond)+")")
				case *ast.AssignStmt:
					if n.Tok == token.ADD_ASSIGN && n != post {
						add(n.Pos(), n.End(), "drop +=", "_ = "+text(n.Rhs[0]))
					}
				case *ast.IncDecStmt:
					if n.Tok == token.INC && n != post {
						add(n.Pos(), n.End(), "drop ++", "_ = "+text(n.X))
					}
				}
				return true
			})
		}
	}
	return sites
}

type testRun struct {
	killers     []string // package.Test of each top-level test that failed or never finished
	buildFailed bool
	cut         bool
	elapsed     map[string]time.Duration
}

// runTests runs go test -json over pkgs, with the overlay when one is given.
func runTests(t *testing.T, overlay string, limit time.Duration, pkgs []string) testRun {
	args := []string{"test", "-json", "-count=1", "-vet=off", "-timeout=" + limit.String()}
	if overlay != "" {
		args = append(args, "-overlay="+overlay)
	}
	cmd := exec.Command("go", append(args, pkgs...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Run() // a failing test exits non-zero; the events say which
	r := testRun{elapsed: map[string]time.Duration{}}
	running := map[string]bool{}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var e struct {
			Action, Package, Test, FailedBuild string
			Elapsed                            float64
		}
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		short := strings.TrimPrefix(e.Package, "tlsage/internal/")
		top := e.Test != "" && !strings.Contains(e.Test, "/")
		switch {
		case e.Action == "build-fail" || e.FailedBuild != "":
			r.buildFailed = true
		case top && e.Action == "run":
			running[short+"."+e.Test] = true
		case top && (e.Action == "pass" || e.Action == "skip"):
			delete(running, short+"."+e.Test)
		case top && e.Action == "fail":
			delete(running, short+"."+e.Test)
			r.killers = append(r.killers, short+"."+e.Test)
		case e.Test == "" && e.Action == "pass":
			r.elapsed[e.Package] = time.Duration(e.Elapsed * float64(time.Second))
		case e.Test == "" && e.Action == "fail":
			// A panic or a timeout ends the binary inside the tests it was
			// running; a failure before any test names the package.
			left := 0
			for k := range running {
				if strings.HasPrefix(k, short+".") {
					r.killers = append(r.killers, k)
					delete(running, k)
					left++
				}
			}
			if left == 0 && !slices.ContainsFunc(r.killers, func(k string) bool { return strings.HasPrefix(k, short+".") }) {
				r.killers = append(r.killers, short+".(package)")
			}
			r.cut = r.cut || left > 0
		}
	}
	slices.Sort(r.killers)
	return r
}

// survivorList reads .github/surviving-mutants.txt: per package, the
// "<file> <func> <operator>" of each survivor it allows.
func survivorList(t *testing.T) map[string]map[string]bool {
	data, err := os.ReadFile(".github/surviving-mutants.txt")
	if err != nil {
		t.Fatal(err)
	}
	list := map[string]map[string]bool{}
	pkg := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok && pkg != "" {
			key, _, _ := strings.Cut(rest, ":")
			list[pkg][key] = true
		} else if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			pkg = f[0]
			list[pkg] = map[string]bool{}
		}
	}
	return list
}
