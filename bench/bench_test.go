package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"

	"tlsage/internal/analysis"
)

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		p    float64
		ok   bool
	}{
		{n: 19, want: 99.9, ok: false},       // 25% of 19 is under ten
		{n: 40, want: 99.9, p: 75, ok: true}, // exactly ten beyond p75
		{n: 100, want: 99.9, p: 90, ok: true},
		{n: 199, want: 99.9, p: 90, ok: true},
		{n: 200, want: 99.9, p: 95, ok: true},
		{n: 999, want: 99.9, p: 95, ok: true},
		{n: 1000, want: 99.9, p: 99, ok: true},
		{n: 10000, want: 99.9, p: 99.9, ok: true},
		{n: 10000, want: 99, p: 99, ok: true}, // never above what the workload asks for
		{n: 10000, want: 95, p: 95, ok: true},
	}
	for _, c := range cases {
		p, ok := pickTail(c.n, c.want)
		if ok != c.ok || p != c.p {
			t.Errorf("pickTail(%d, %v) = %v, %v; want %v, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
	}
}

func TestLatencySummary(t *testing.T) {
	var l latencies
	for i := 1000; i >= 1; i-- {
		l = append(l, float64(i))
	}
	p50, tail := l.summary(99)
	if p50.Value != 500 || p50.N != 1000 {
		t.Errorf("median = %+v, want 500 over 1000", p50)
	}
	if tail.Value != 990 || tail.Note != "p99" {
		t.Errorf("tail = %+v, want the 990th value as p99", tail)
	}
	_, tail = latencies{3, 1, 2}.summary(99)
	if tail.Value != 2 || tail.Note != "p50" {
		t.Errorf("tail of 3 samples = %+v, want the median", tail)
	}
}

// The acceptance rule is written in Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 30, 20, 50})
	if q1 != 12.5 || q2 != 25 || q3 != 45 {
		t.Errorf("quartiles(10,30,20,50) = %v %v %v, want 12.5 25 45", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []traceSpan{
		{ID: 1, Op: 1, Name: "op.query", Start: 0, End: 100},
		{ID: 10, Parent: 1, Op: 1, Name: "service.http", Start: 20, End: 90},
		{ID: 11, Parent: 10, Op: 1, Name: "a", Start: 20, End: 40},
		{ID: 12, Parent: 10, Op: 1, Name: "b", Start: 30, End: 50},  // overlaps a: counted once
		{ID: 13, Parent: 10, Op: 1, Name: "c", Start: 80, End: 120}, // runs past the parent: clipped
		{ID: 14, Parent: 10, Op: 1, Name: "d", Start: 60, End: 60},  // empty
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 30, 10: 30, 11: 20, 12: 20, 13: 40, 14: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestHotQueriesAreCanonical(t *testing.T) {
	if len(hotQueries) != 16 {
		t.Fatalf("%d hot queries, want 16", len(hotQueries))
	}
	seen := map[string]bool{}
	for _, text := range hotQueries {
		e, err := analysis.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		if e.String() != text {
			t.Errorf("hot query %q is not in canonical form %q", text, e.String())
		}
		if seen[text] {
			t.Errorf("hot query %q listed twice", text)
		}
		seen[text] = true
	}
}

func TestUniqueQueriesParseAndNeverRepeat(t *testing.T) {
	const clients, perClient = 3, 4000
	if d := newQueryMix(1, 0, clients).distinct(); d < 100000 {
		t.Fatalf("generator has %d distinct texts, want at least 100000", d)
	}
	canonical := map[string]bool{}
	for _, text := range hotQueries {
		canonical[text] = true
	}
	for c := 0; c < clients; c++ {
		m := newQueryMix(7, c, clients)
		for i := 0; i < perClient; i++ {
			text := m.unique()
			e, err := analysis.ParseQuery(text)
			if err != nil {
				t.Fatalf("client %d text %d: %v", c, i, err)
			}
			if canon := e.String(); canonical[canon] {
				t.Fatalf("client %d text %d: %q repeats a canonical form already used", c, i, canon)
			} else {
				canonical[canon] = true
			}
		}
	}
	// The same seed and client replay the same texts; another seed does not.
	a, b, other := newQueryMix(7, 0, clients), newQueryMix(7, 0, clients), newQueryMix(8, 0, clients)
	same := true
	for i := 0; i < 50; i++ {
		ta, _ := a.draw()
		tb, _ := b.draw()
		to, _ := other.draw()
		if ta != tb {
			t.Fatalf("draw %d differs between two mixes of one seed: %q vs %q", i, ta, tb)
		}
		same = same && ta == to
	}
	if same {
		t.Error("seeds 7 and 8 drew the same 50 queries")
	}
}

func TestQueryMixShares(t *testing.T) {
	m := newQueryMix(3, 0, 3)
	const draws = 20000
	hot, first, last := 0, 0, 0
	for i := 0; i < draws; i++ {
		text, isHot := m.draw()
		if isHot {
			hot++
		}
		switch text {
		case hotQueries[0]:
			first++
		case hotQueries[len(hotQueries)-1]:
			last++
		}
	}
	if share := float64(hot) / draws; math.Abs(share-hotShare) > 0.02 {
		t.Errorf("hot share %.3f, want about %.2f", share, hotShare)
	}
	// Zipf s=1 over 16 ranks: the first is drawn 16 times as often as the last.
	if ratio := float64(first) / float64(last); ratio < 10 || ratio > 24 {
		t.Errorf("first/last hot query drawn %d/%d times (ratio %.1f), want about 16", first, last, ratio)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
		if have, ok := findWorkload(w.Name); !ok || have.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and workloads.go disagree on its reason", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloadNames())
	}
	if !slices.Equal(b.EndToEnd, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nbench declares\n%v", b.EndToEnd, endToEndDefs)
	}
	if !slices.Equal(b.PerLayer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerDefs")
	}
	seen := map[string]bool{}
	for _, n := range slices.Concat(names, defNames(endToEndDefs), defNames(extraDefs), defNames(perLayerDefs)) {
		if !metricName.MatchString(n) {
			t.Errorf("name %q does not match %v", n, metricName)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	noisy := []float64{100, 140, 70, 120, 80, 100}
	cases := []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"within the bound", lower, steady, []float64{105, 106, 104}, verdictUnchanged},
		{"slower beyond the bound", lower, steady, []float64{115, 116, 114}, verdictRegress},
		{"lower throughput beyond the bound", higher, steady, []float64{85, 86, 84}, verdictRegress},
		{"higher throughput is no regression", higher, steady, []float64{120, 121}, verdictUnchanged},
		{"noisy baseline, overlapping runs", lower, noisy, []float64{115, 90, 130}, verdictUnresolved},
		{"noisy baseline, every run worse", lower, noisy, []float64{150, 160, 170}, verdictRegress},
		{"noisy baseline, every run better", lower, noisy, []float64{50, 60, 65}, verdictUnchanged},
		{"single runs", lower, []float64{100}, []float64{111}, verdictRegress},
	}
	for _, c := range cases {
		if got := judge(c.def, c.old, c.new).Verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSameJSONToleratesOnlyFloatNoise(t *testing.T) {
	a := []byte(`{"kind":"series","points":[{"m":"2014-02","v":12.345678901234567}]}`)
	b := []byte(`{"kind":"series","points":[{"m":"2014-02","v":12.345678901234569}]}`)
	c := []byte(`{"kind":"series","points":[{"m":"2014-02","v":12.3457}]}`)
	if !sameJSON(a, a) || !sameJSON(a, b) {
		t.Error("last-bit float noise must compare equal")
	}
	if sameJSON(a, c) || sameJSON(a, []byte(`{"kind":"series"}`)) || sameJSON(a, []byte(`not json`)) {
		t.Error("a real difference compared equal")
	}
}

// testScale shrinks every size so a workload's whole life fits in well under
// a second.
var testScale = scale{Conns: 40, Frame: 32, Stream: 256, BulkFrames: 4, LiveStream: 32, EdgeStream: 64, CycleStreams: 128}

var testCorpus = sync.OnceValues(func() (*corpus, error) { return buildCorpus(1, testScale) })

func smokeConfig(t *testing.T, bin string) runConfig {
	return runConfig{seed: 1, seconds: 0.3, bin: bin, outDir: t.TempDir(), setups: 1, warm: 50 * time.Millisecond}
}

func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d notes=%v\n%s",
			res.Workload, res.Correct, res.Attempted, res.Failed, res.Notes, res.ServerStderr)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s was not reported", res.Workload, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
	}
	known := map[string]bool{}
	for _, n := range slices.Concat(defNames(endToEndDefs), defNames(extraDefs), defNames(perLayerDefs)) {
		known[n] = true
	}
	for n := range res.Metrics {
		if !known[n] {
			t.Errorf("%s: reported metric %s is declared nowhere", res.Workload, n)
		}
	}
	if _, err := driverLine(res); err != nil {
		t.Error(err)
	}
}

// TestWorkloadsInProcess runs all five workloads end to end against servers
// hosted in the test process, then traced, and checks every declared metric
// is reported and every output verified.
func TestWorkloadsInProcess(t *testing.T) {
	c, err := testCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t, "")
			res := runWorkload(w, c, cfg, false)
			checkResult(t, res, endToEndDefs)
			for _, d := range endToEndDefs {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want above zero", d.Name, res.Metrics[d.Name].Value)
				}
			}

			res = runWorkload(w, c, cfg, true)
			checkResult(t, res, perLayerDefs)
			raw, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				Metrics map[string]metric `json:"metrics"`
				Spans   []traceSpan       `json:"spans"`
			}
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayerDefs {
				if _, ok := tf.Metrics[d.Name]; !ok {
					t.Errorf("span file lacks per-layer metric %s", d.Name)
				}
			}
			checkSpans(t, tf.Spans)
		})
	}
}

// checkSpans verifies the span file's shape: operations were sampled, every
// child lies inside its parent, and children sum to no more than the parent.
func checkSpans(t *testing.T, spans []traceSpan) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("the traced window recorded no span")
	}
	byID := map[uint64]traceSpan{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	sum := map[uint64]int64{}
	replayed := 0
	for _, s := range spans {
		if !metricName.MatchString(s.Name) {
			t.Errorf("span name %q does not match %v", s.Name, metricName)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Replayed {
			replayed++
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) names a parent that was not recorded", s.ID, s.Name)
			continue
		}
		if s.Replayed && (s.Start < p.Start || s.End > p.End) {
			t.Errorf("replayed span %d (%s) leaves its parent %s", s.ID, s.Name, p.Name)
		}
		sum[s.Parent] += s.dur()
	}
	for id, total := range sum {
		if p := byID[id]; total > p.dur() && allReplayed(spans, id) {
			t.Errorf("children of span %d (%s) sum to %dns, more than its %dns", id, p.Name, total, p.dur())
		}
	}
	if replayed == 0 {
		t.Error("no replayed stage span was recorded")
	}
}

func allReplayed(spans []traceSpan, parent uint64) bool {
	for _, s := range spans {
		if s.Parent == parent && !s.Replayed {
			return false
		}
	}
	return true
}

// TestWorkloadsSubprocess is the same smoke against real `tlstrend serve`
// processes, which is what the benchmark measures.
func TestWorkloadsSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns tlstrend; skipped with -short")
	}
	c, err := testCorpus()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "tlstrend")
	build := exec.Command("go", "build", "-o", bin, "../cmd/tlstrend")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tlstrend: %v\n%s", err, out)
	}
	t.Cleanup(killAllProcs)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkResult(t, runWorkload(w, c, smokeConfig(t, bin), false), endToEndDefs)
		})
	}
	procs.Lock()
	left := len(procs.live)
	procs.Unlock()
	if left != 0 {
		t.Errorf("%d tlstrend processes still running after the workloads closed", left)
	}
}
