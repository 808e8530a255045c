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
	"runtime"
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

// TestFrameAdvanceAllocsIndependentOfMonths pins Frame.Advance to the
// months it touches, not the axis it leaves alone: the same month content
// repeated over 3, 60 and 600 months, one month touched, must cost the same
// allocations, and its bytes may grow with the axis only by the row-pointer
// slice — at most 9 B a month, one 8-byte pointer and the allocator's
// size-class rounding (at most 1/8) — while touching 8 months costs about 8
// rows: an advance's fixed part is below one row.
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
	// cost advances a frame of months months over its newest touch months
	// and returns the allocations and bytes of one advance.
	cost := func(months, touch int) (allocs, bytes float64) {
		agg := notary.NewAggregate()
		newest := opts.End
		for m := 0; m < months; m++ {
			for _, r := range recs {
				r.Date = newest.AddMonths(-m).Mid()
				agg.Add(r)
			}
		}
		prev := analysis.NewFrame(agg)
		var touched []timeline.Month
		for m := 0; m < touch; m++ {
			touched = append(touched, newest.AddMonths(-m))
			for _, r := range recs { // every fingerprint grows alike, so the top-K set holds
				r.Date = newest.AddMonths(-m).Mid()
				agg.Add(r)
			}
		}
		return allocsPerRun(20, func() { prev.Advance(agg, touched) })
	}
	allocs3, bytes3 := cost(3, 1)
	allocs60, bytes60 := cost(60, 1)
	allocs600, bytes600 := cost(600, 1)
	_, bytes8 := cost(60, 8)
	row := (bytes8 - bytes60) / 7
	t.Logf("one touched month: %.0f allocations, %.0f/%.0f/%.0f B over 3/60/600 months; a row ≈ %.0f B", allocs3, bytes3, bytes60, bytes600, row)
	if allocs3 != allocs60 || allocs3 != allocs600 {
		t.Errorf("Advance allocates %.0f times over 3 months, %.0f over 60, %.0f over 600", allocs3, allocs60, allocs600)
	}
	if allocs600 > 64 {
		t.Errorf("Advance allocates %.0f times, want at most 64", allocs600)
	}
	if row <= 0 || bytes60-row > row {
		t.Errorf("touching 8 months costs %.0f B and 1 month %.0f B: a row is %.0f B and the fixed part %.0f B, want it below a row", bytes8, bytes60, row, bytes60-row)
	}
	for _, step := range []struct{ from, to, fromB, toB float64 }{{3, 60, bytes3, bytes60}, {60, 600, bytes60, bytes600}} {
		if perMonth := (step.toB - step.fromB) / (step.to - step.from); perMonth > 9 {
			t.Errorf("Advance allocates %.0f B over %.0f months and %.0f B over %.0f: %.1f B a month, want at most 9, a pointer's",
				step.fromB, step.from, step.toB, step.to, perMonth)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports bytes: the mean
// allocations and allocated bytes of one call of f, after a warm-up call.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
// plus the Figure/Point packaging. Compare BenchmarkQueryCompiledResult, the
// same five series as bare plans.
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

// BenchmarkQueryCompiledResult measures the plan path on the Figure 1
// expression set: compile once, then evaluate the full served QueryResult per
// request (Plan.Eval — seriesAt at every row, materializing the
// month-labelled point list), the served hot path on a miss. This is the exact
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

// BenchmarkAllFiguresCompiled measures the whole catalog as every /figures
// request evaluates it: each metric compiled against the frame and
// evaluated.
func BenchmarkAllFiguresCompiled(b *testing.B) {
	f := studyFrame(b)
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

// Ablation 1: the wire-level simulation's cost, the baseline the other
// simulation ablations move from. Like each of them it times what `tlstrend
// simulate` runs: Simulator.Run into one classified aggregate. Reports ns per
// record. Only a hello-memo miss — a hello a worker has not built yet, or a
// randomizer's — round-trips through the codec.
func BenchmarkAblationSimWireLevel(b *testing.B) {
	opts := simulate.DefaultOptions(100)
	opts.End = timeline.M(2013, time.December)
	records := len(timeline.MonthsBetween(opts.Start, opts.End)) * opts.ConnectionsPerMonth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		simulateClassified(b, opts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

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
	farm, err := serverfarm.StartFarm(sampleFarmConfigs(64), scanner.DefaultTimeout)
	if err != nil {
		b.Fatal(err)
	}
	defer farm.Close()
	sc := scanner.New(workers)
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
// service.DefaultFlushEvery, what serve -out writes one frame per.
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
func sampleFarmConfigs(n int) []*handshake.ServerConfig {
	rnd := rand.New(rand.NewSource(9))
	census := population.DefaultServers().Day(timeline.D(2016, time.June, 15))
	cfgs := make([]*handshake.ServerConfig, n)
	for i := range cfgs {
		cfgs[i] = census.Sample(population.ByHosts, rnd)
	}
	return cfgs
}
