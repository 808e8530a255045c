// Benchmarks of the frame and query paths every figure goes through, plus the
// ablations called out in DESIGN.md §4.
//
// The passive aggregate is simulated once per process (studyAggregate) at
// study scale; the frame and query benches then measure work over it. The
// end-to-end pipeline cost is measured separately by the simulation benches.
package tlsage

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/clientdb"
	"tlsage/internal/core"
	"tlsage/internal/fingerprint"
	"tlsage/internal/handshake"
	"tlsage/internal/notary"
	"tlsage/internal/population"
	"tlsage/internal/scanner"
	"tlsage/internal/serverfarm"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

var (
	benchOnce      sync.Once
	benchAgg       *notary.Aggregate
	benchFrameOnce sync.Once
	benchFrame     *analysis.Frame
	// benchDB is the fingerprint database every bench aggregate classifies
	// with, as Study.Run and Study.LoadLog install it.
	benchDB = sync.OnceValue(fingerprint.BuildDefault)
)

// simulateClassified runs the simulator into one aggregate whose classifier
// is the fingerprint database, as `tlstrend simulate` (Study.Run) does,
// though Run folds through a ShardBuilder and writes no log here.
func simulateClassified(b *testing.B, opts simulate.Options) *notary.Aggregate {
	b.Helper()
	agg := notary.NewAggregate()
	agg.SetClassifier(benchDB())
	if err := simulate.New(opts).Run(agg); err != nil {
		b.Fatal(err)
	}
	return agg
}

func studyAggregate(b *testing.B) *notary.Aggregate {
	b.Helper()
	benchOnce.Do(func() { benchAgg = simulateClassified(b, simulate.DefaultOptions(800)) })
	return benchAgg
}

// studyFrame is the columnar snapshot the frame and query benches evaluate
// against, built once per process like the aggregate it snapshots.
func studyFrame(b *testing.B) *analysis.Frame {
	b.Helper()
	agg := studyAggregate(b)
	benchFrameOnce.Do(func() { benchFrame = analysis.NewFrame(agg) })
	return benchFrame
}

// benchFigure fetches one catalog figure from the shared frame.
func benchFigure(b *testing.B, n int) analysis.Figure {
	fig, ok := studyFrame(b).FigureByNum(n)
	if !ok {
		b.Fatalf("no figure %d", n)
	}
	return fig
}

// --- Figures (catalog evaluation over the shared columnar frame) ---

// BenchmarkFrameBuild measures the one-pass columnar snapshot of the study
// aggregate that all figure/scalar queries evaluate against.
func BenchmarkFrameBuild(b *testing.B) {
	agg := studyAggregate(b)
	b.ReportAllocs()
	b.ResetTimer()
	var f *analysis.Frame
	for i := 0; i < b.N; i++ {
		f = analysis.NewFrame(agg)
	}
	b.ReportMetric(float64(f.Len()), "months")
}

// BenchmarkFrameAdvance measures what a query pays for the frame after a
// generation bump under live ingest: a 256-record shard lands in the newest
// month (untimed), then Study.Frame() advances the cached frame over that
// one month. Compare BenchmarkFrameBuild, the cost before frames advanced.
func BenchmarkFrameAdvance(b *testing.B) {
	s := core.NewLiveStudy()
	if err := s.MergeShard(studyAggregate(b)); err != nil {
		b.Fatal(err)
	}
	opts := simulate.DefaultOptions(256) // one live-feeder stream's worth
	opts.Start = opts.End
	shard := s.NewShard()
	if err := simulate.New(opts).Run(shard); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Frame(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var f *analysis.Frame
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := s.MergeShard(shard); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		f, _ = s.Frame()
	}
	b.ReportMetric(float64(f.Len()), "months")
}

// TestFrameAdvanceAllocsIndependentOfMonths pins Frame.Advance to an
// allocation count that does not grow with the months it leaves untouched:
// the same month content repeated over 3 and over 60 months, one month
// touched, must cost the same number of allocations (the column copies come
// out of one slab whatever the axis length).
func TestFrameAdvanceAllocsIndependentOfMonths(t *testing.T) {
	opts := simulate.DefaultOptions(300)
	opts.Start = opts.End
	opts.Workers = 1
	var recs []*notary.Record
	if err := simulate.New(opts).Run(notary.SinkFunc(func(r *notary.Record) error {
		recs = append(recs, r.Clone())
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	allocs := func(months int) float64 {
		agg := notary.NewAggregate()
		touched := opts.End
		for m := 0; m < months; m++ {
			for _, r := range recs {
				r.Date = touched.AddMonths(-m).Mid()
				agg.Add(r)
			}
		}
		prev := analysis.NewFrame(agg)
		for _, r := range recs { // every fingerprint grows alike, so the top-K set holds
			r.Date = touched.Mid()
			agg.Add(r)
		}
		return testing.AllocsPerRun(20, func() { prev.Advance(agg, []timeline.Month{touched}) })
	}
	few, many := allocs(3), allocs(60)
	if few != many {
		t.Errorf("Advance allocates %.0f times over 3 months but %.0f over 60", few, many)
	}
	if many > 64 {
		t.Errorf("Advance allocates %.0f times, want at most 64", many)
	}
}

// BenchmarkAllFigures measures the full frame path end to end: snapshot
// build plus all ten catalog figures (compare BenchmarkAllFiguresLegacy in
// internal/analysis, the recorded pre-refactor map-walking baseline).
func BenchmarkAllFigures(b *testing.B) {
	agg := studyAggregate(b)
	b.ReportAllocs()
	b.ResetTimer()
	var figs []analysis.Figure
	for i := 0; i < b.N; i++ {
		figs = analysis.NewFrame(agg).Figures()
	}
	if len(figs) != 10 {
		b.Fatal("figure count")
	}
}

// BenchmarkQueryEvalNative measures Figure 1 (five version-share series)
// through the catalog engine (Frame.EvalFigure): the shared compiled plans
// plus the Figure/Point packaging. Compare BenchmarkQueryCompiled, the same
// five series as bare plans.
func BenchmarkQueryEvalNative(b *testing.B) {
	studyFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 1)
	}
	b.ReportMetric(float64(len(fig.Series)), "series")
}

// benchPlans compiles the Figure 1 expression set against the shared frame,
// the way Study.Query does: ParseQuery, then Compile.
func benchPlans(b *testing.B) []*analysis.Plan {
	b.Helper()
	f := studyFrame(b)
	plans := make([]*analysis.Plan, 0, 5)
	for _, v := range []string{"ssl3", "tls10", "tls11", "tls12", "tls13"} {
		e, err := analysis.ParseQuery("pct(version:" + v + " / established)")
		if err != nil {
			b.Fatal(err)
		}
		p, err := analysis.Compile(e, f)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, p)
	}
	return plans
}

// BenchmarkQueryCompiled measures the plan path on the Figure 1 expression
// set: compile once, then evaluate per request — the served hot path on a
// cache miss.
func BenchmarkQueryCompiled(b *testing.B) {
	plans := benchPlans(b)
	b.ReportAllocs()
	b.ResetTimer()
	var vals []float64
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			vals = p.EvalSeries()
		}
	}
	b.ReportMetric(vals[len(vals)-1], "tls13_apr18_pct")
}

// BenchmarkQueryCompiledResult measures compiled evaluation of the full
// served QueryResult (Plan.Eval — the fused kernel plus materializing the
// month-labelled point list) for the same expression set. This is the exact
// work a cache hit skips: BenchmarkQueryCacheHit returns the same results
// from the generation-keyed cache without touching the frame.
func BenchmarkQueryCompiledResult(b *testing.B) {
	plans := benchPlans(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res analysis.QueryResult
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			res = p.Eval()
		}
	}
	b.ReportMetric(float64(len(res.Series.Points)), "points")
}

// BenchmarkQueryCacheHit measures a generation-keyed cache hit on the same
// five queries — the served hot path for a dashboard hammering an unchanged
// study. A hit yields the same QueryResults as BenchmarkQueryCompiledResult
// for the cost of a map lookup: the clone shares the immutable Points
// backing array, so no per-point work (or allocation) happens at all.
func BenchmarkQueryCacheHit(b *testing.B) {
	plans := benchPlans(b)
	f := studyFrame(b)
	cache := analysis.NewQueryCache(64, 1<<20)
	keys := make([]string, len(plans))
	for i, p := range plans {
		res := p.Eval()
		keys[i] = res.Query
		cache.Put("bench", 0, f.Generation(), keys[i], res, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res analysis.QueryResult
	for i := 0; i < b.N; i++ {
		for _, key := range keys {
			var ok bool
			res, _, ok = cache.Get("bench", 0, f.Generation(), key)
			if !ok {
				b.Fatal("unexpected miss")
			}
		}
	}
	b.ReportMetric(float64(len(res.Series.Points)), "points")
}

// BenchmarkAllFiguresCompiled measures the whole catalog through the
// pre-compiled shared plans (the first Figures call pays the one-time
// compile; the loop measures the steady state every /figures request sees).
func BenchmarkAllFiguresCompiled(b *testing.B) {
	f := studyFrame(b)
	f.Figures() // warm the shared plan memo
	b.ReportAllocs()
	b.ResetTimer()
	var figs []analysis.Figure
	for i := 0; i < b.N; i++ {
		figs = f.Figures()
	}
	if len(figs) != 10 {
		b.Fatal("figure count")
	}
}

// --- Ablations (DESIGN.md §4) ---

// Ablation 1: wire-level simulation vs struct-level fast path. Like every
// simulation ablation below it times what `tlstrend simulate` runs:
// Simulator.Run into one classified aggregate. Reports ns per record. Only a
// hello-memo miss — a hello a worker has not built yet, or a randomizer's —
// round-trips through the codec, so the two arms differ on misses alone.
func benchSimulate(b *testing.B, wireLevel bool) {
	opts := simulate.DefaultOptions(100)
	opts.End = timeline.M(2013, time.December)
	opts.WireLevel = wireLevel
	records := len(timeline.MonthsBetween(opts.Start, opts.End)) * opts.ConnectionsPerMonth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		simulateClassified(b, opts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

func BenchmarkAblationSimWireLevel(b *testing.B)   { benchSimulate(b, true) }
func BenchmarkAblationSimStructLevel(b *testing.B) { benchSimulate(b, false) }

// Ablation 5: months simulated in parallel vs the sequential path, at the
// study configuration (800 conns/month, full window, wire level). Reports
// the serial and 8-worker wall-clock and their ratio.
func BenchmarkAblationSimParallelSpeedup(b *testing.B) {
	opts := simulate.DefaultOptions(800)
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		opts.Workers = 1
		start := time.Now()
		simulateClassified(b, opts)
		serial += time.Since(start)
		opts.Workers = 8
		start = time.Now()
		simulateClassified(b, opts)
		parallel += time.Since(start)
	}
	b.ReportMetric(serial.Seconds()/float64(b.N), "serial_s/op")
	b.ReportMetric(parallel.Seconds()/float64(b.N), "parallel8_s/op")
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup_8workers")
}

// Worker-count sweep over the same configuration, one benchmark per width,
// for profiling scaling behaviour in isolation.
func benchSimWorkers(b *testing.B, workers int) {
	opts := simulate.DefaultOptions(800)
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		simulateClassified(b, opts)
	}
}

func BenchmarkAblationSimWorkers1(b *testing.B) { benchSimWorkers(b, 1) }
func BenchmarkAblationSimWorkers4(b *testing.B) { benchSimWorkers(b, 4) }
func BenchmarkAblationSimWorkers8(b *testing.B) { benchSimWorkers(b, 8) }

// Ablation 2: fingerprinting with GREASE stripping vs a pre-stripped list.
func BenchmarkAblationFingerprintGREASE(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	chrome, _ := clientdb.ProfileByName("Chrome")
	rel, _ := chrome.ReleaseByVersion("65")
	hello := rel.Config.BuildHello(rnd, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fingerprint.FromClientHello(hello)
	}
}

func BenchmarkAblationFingerprintNoGREASE(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	ff, _ := clientdb.ProfileByName("Firefox")
	rel, _ := ff.ReleaseByVersion("44")
	hello := rel.Config.BuildHello(rnd, false) // Firefox sends no GREASE
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fingerprint.FromClientHello(hello)
	}
}

// Ablation 3: scanner worker-pool width against a fixed farm.
func benchScanWorkers(b *testing.B, workers int) {
	cfg := scanner.Chrome2015()
	hello := cfg.Build(rand.New(rand.NewSource(2)))
	farmCfgs, cohorts := sampleFarmConfigs(64)
	farm, err := serverfarm.StartFarm(farmCfgs, cohorts, 3*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer farm.Close()
	sc := scanner.New(workers)
	sc.Timeout = 3 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sc.Scan(context.Background(), farm.Addrs(), hello)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 64 {
			b.Fatal("missing results")
		}
	}
}

func BenchmarkAblationScanWorkers1(b *testing.B)  { benchScanWorkers(b, 1) }
func BenchmarkAblationScanWorkers8(b *testing.B)  { benchScanWorkers(b, 8) }
func BenchmarkAblationScanWorkers32(b *testing.B) { benchScanWorkers(b, 32) }

// Ablation 4: streaming aggregation vs post-hoc log scan.
func BenchmarkAblationAggStreaming(b *testing.B) {
	opts := simulate.DefaultOptions(100)
	opts.End = timeline.M(2012, time.December)
	for i := 0; i < b.N; i++ {
		simulateClassified(b, opts)
	}
}

func BenchmarkAblationAggPostHoc(b *testing.B) {
	opts := simulate.DefaultOptions(100)
	opts.End = timeline.M(2012, time.December)
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			lw := notary.NewLogWriter(pw)
			err := simulate.New(opts).Run(lw)
			if err == nil {
				err = lw.Close()
			}
			pw.CloseWithError(err)
			done <- err
		}()
		agg := notary.NewAggregate()
		if err := notary.ReadLog(pr, agg); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sharded log ingestion (the post-hoc Notary workload) ---

// logFrameSize is the records per frame of the frame-log arm: a shard of
// serve's default -flush, what serve -out writes one frame per.
const logFrameSize = 4096

// benchLogs renders a study-shaped log (~55k records) once per process in
// both kinds the loaders read: TSV lines (LogWriter) and TLSB frames of
// logFrameSize records (BatchWriter).
var benchLogs = sync.OnceValue(func() map[string][]byte {
	var tsv, frames bytes.Buffer
	lw, bw := notary.NewLogWriter(&tsv), notary.NewBatchWriter(&frames, logFrameSize)
	tee := notary.Tee(lw, bw)
	if err := simulate.New(simulate.DefaultOptions(750)).Run(tee); err != nil {
		panic(err)
	}
	if err := tee.Close(); err != nil {
		panic(err)
	}
	return map[string][]byte{"tsv": tsv.Bytes(), "frames": frames.Bytes()}
})

// forEachLog runs bench once per log kind, as a sub-benchmark named after it.
func forEachLog(b *testing.B, bench func(b *testing.B, log []byte)) {
	for _, kind := range []string{"tsv", "frames"} {
		log := benchLogs()[kind]
		b.Run(kind, func(b *testing.B) { bench(b, log) })
	}
}

// loadLog is what Study.LoadLog runs at the given worker count, with the
// classifier it passes: workers 1 is ReadLog into a ShardBuilder.
func loadLog(b *testing.B, log []byte, workers int) {
	if _, err := notary.ReadLogParallel(bytes.NewReader(log), workers, benchDB()); err != nil {
		b.Fatal(err)
	}
}

func benchLoadLog(b *testing.B, workers int) {
	forEachLog(b, func(b *testing.B, log []byte) {
		b.SetBytes(int64(len(log)))
		for i := 0; i < b.N; i++ {
			loadLog(b, log, workers)
		}
	})
}

func BenchmarkLoadLogSerial(b *testing.B)    { benchLoadLog(b, 1) }
func BenchmarkLoadLogParallel2(b *testing.B) { benchLoadLog(b, 2) }
func BenchmarkLoadLogParallel4(b *testing.B) { benchLoadLog(b, 4) }
func BenchmarkLoadLogParallel8(b *testing.B) { benchLoadLog(b, 8) }

// Ablation 6: sharded log ingestion vs the serial path (-workers 1), for each
// kind of log, reporting the wall-clock of both and their ratio (compare with
// the simulation speedup of Ablation 5 — LoadLog should scale the same way).
func BenchmarkAblationLoadLogSpeedup(b *testing.B) {
	forEachLog(b, func(b *testing.B, log []byte) {
		var serial, parallel time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			loadLog(b, log, 1)
			serial += time.Since(start)
			start = time.Now()
			loadLog(b, log, 8)
			parallel += time.Since(start)
		}
		b.ReportMetric(serial.Seconds()/float64(b.N), "serial_s/op")
		b.ReportMetric(parallel.Seconds()/float64(b.N), "parallel8_s/op")
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup_8workers")
	})
}

// sampleFarmConfigs draws deterministic host configs for the worker ablation.
func sampleFarmConfigs(n int) ([]*handshake.ServerConfig, []string) {
	rnd := rand.New(rand.NewSource(9))
	census := population.DefaultServers().Day(timeline.D(2016, time.June, 15))
	cfgs := make([]*handshake.ServerConfig, n)
	cohorts := make([]string, n)
	for i := 0; i < n; i++ {
		cohort, cfg := census.Sample(population.ByHosts, rnd)
		cfgs[i] = cfg
		cohorts[i] = cohort.Name
	}
	return cfgs, cohorts
}
