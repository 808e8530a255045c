// Command bench is tlsage's end-to-end and per-layer benchmark. It builds
// cmd/tlstrend, drives real `tlstrend serve` processes through five traffic
// mixes from at most two generator connections, checks what they served
// against an in-process reference study, and prints every metric by name.
// README.md in this directory explains the workloads and how the layer
// metrics are expected to move the end-to-end ones.
//
//	go run ./bench                                     all workloads, end to end, then traced
//	go run ./bench -workload dashboard-live -trace 1   one workload, traced only
//	go run ./bench compare OLD.json NEW.json           regress / unchanged / unresolved per row
//	go run ./bench selfcheck                           two full sets of the same commit, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllProcs()
		removeAllTemps()
		os.Exit(130)
	}()
	code := run(os.Args[1:])
	killAllProcs()
	removeAllTemps()
	os.Exit(code)
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return cmdCompare(args[1:])
		case "selfcheck":
			return cmdSelfcheck(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "corpus and query-mix seed")
	seconds := fs.Float64("seconds", 10, "measured window per workload")
	trace := fs.Int("trace", 2, "0: end-to-end runs only; 1: traced runs only; 2: both")
	out := fs.String("out", "", "directory for the run file, span files and the built server (default bench/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	run, err := runAll(names, *seed, *seconds, *trace, *out)
	return exitCode(err == nil && run.ok(), err)
}

// runFile is what one invocation writes to <out>/<run>.json.
type runFile struct {
	Run        string   `json:"run"`
	GitSHA     string   `json:"git_sha"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	BuildS     float64  `json:"cmd.build_s"`
	CorpusS    float64  `json:"corpus_s"`
	Results    []result `json:"results"`
	Path       string   `json:"-"`
}

func (r *runFile) ok() bool {
	for _, res := range r.Results {
		if !res.Correct || res.Failed > 0 {
			return false
		}
	}
	return len(r.Results) > 0
}

// runAll runs the named workloads, in that order, in the modes trace selects,
// prints the results and writes the run file.
func runAll(names []string, seed int64, seconds float64, trace int, outDir string) (*runFile, error) {
	var todo []workload
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(workloadNames(), ", "))
		}
		todo = append(todo, w)
	}
	if seconds <= 0 || trace < 0 || trace > 2 {
		return nil, fmt.Errorf("need -seconds > 0 and -trace 0, 1 or 2")
	}
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if outDir == "" {
		outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rf := &runFile{
		Run:    time.Now().UTC().Format("20060102T150405") + fmt.Sprintf("-seed%d", seed),
		GitSHA: gitSHA(root), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: cpuModel(), Seed: seed, Seconds: seconds,
	}
	t0 := time.Now()
	bin, err := buildServer(root, outDir)
	if err != nil {
		return nil, err
	}
	rf.BuildS = time.Since(t0).Seconds()
	t0 = time.Now()
	c, err := buildCorpus(seed, fullScale)
	if err != nil {
		return nil, err
	}
	rf.CorpusS = time.Since(t0).Seconds()
	cfg := runConfig{seed: seed, seconds: seconds, bin: bin, outDir: outDir, corpusS: rf.CorpusS,
		setups: setupReps, warm: warmUp}
	fmt.Printf("bench: seed %d, %gs windows, corpus of %d records built in %.2fs, cmd.build_s %.2f\n",
		seed, seconds, c.n, rf.CorpusS, rf.BuildS)
	for _, w := range todo {
		for _, traced := range []bool{false, true} {
			if traced && trace == 0 || !traced && trace == 1 {
				continue
			}
			res := runWorkload(w, c, cfg, traced)
			printResult(w, res)
			rf.Results = append(rf.Results, res)
		}
	}
	rf.Path = filepath.Join(outDir, rf.Run+".json")
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(rf.Path, raw, 0o644); err != nil {
		return nil, err
	}
	fmt.Println("bench: run file", rf.Path)
	if len(rf.Results) == 1 {
		// The one-line form a driver reads: exactly the metrics declared in
		// BENCHMARK.json for this mode, as the last line of standard output.
		line, err := driverLine(rf.Results[0])
		if err != nil {
			return nil, err
		}
		fmt.Println(line)
	}
	return rf, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// driverLine renders one result as {"correct","attempted","failed","metrics"}
// holding every end-to-end metric (untraced) or every per-layer one (traced).
func driverLine(res result) (string, error) {
	defs := endToEndDefs
	if res.Traced {
		defs = perLayerDefs
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			if res.Correct {
				return "", fmt.Errorf("%s did not report %s", res.Workload, d.Name)
			}
			m.Unit = d.Unit
		}
		metrics[d.Name] = value{m.Value, d.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	return string(raw), err
}

func printResult(w workload, res result) {
	mode := "end-to-end"
	if res.Traced {
		mode = "traced, in process"
	}
	status := "ok"
	if !res.Correct {
		status = "FAILED"
	}
	fmt.Printf("\n== %s (%s): %s, %d ops attempted, %d failed\n", w.name, mode, status, res.Attempted, res.Failed)
	if !res.Traced {
		fmt.Printf("   throughput counts %s; latency is %s\n", w.unit, w.latency)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		detail := ""
		if m.N > 0 {
			detail = fmt.Sprintf("  n=%d", m.N)
		}
		if m.Note != "" {
			detail += "  (" + m.Note + ")"
		}
		if m.Raw != 0 {
			detail += fmt.Sprintf("  raw %.4f", m.Raw)
		}
		fmt.Printf("   %-44s %16.4f %-6s%s\n", n, m.Value, m.Unit, detail)
	}
	for _, n := range res.Notes {
		fmt.Println("   note:", n)
	}
	if res.TraceFile != "" {
		fmt.Println("   spans:", res.TraceFile)
	}
	if res.ServerStderr != "" {
		fmt.Printf("   server stderr:\n%s\n", res.ServerStderr)
	}
}

// moduleRoot finds the tlsage checkout the benchmark was started in.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module tlsage") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the tlsage module: no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/tlstrend into outDir. The build is not part of
// any metric but setup's cmd.build_s.
func buildServer(root, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "tlstrend"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tlstrend")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/tlstrend: %w\n%s", err, out)
	}
	return bin, nil
}

func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a checkout that is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
