// Benchmarks regenerating every table and figure of the paper, plus the
// ablations called out in DESIGN.md §4. Each artifact bench reports its
// headline measured value via b.ReportMetric so a bench run doubles as an
// experiment log (compare against EXPERIMENTS.md).
//
// The passive aggregate is simulated once per process (studyAggregate) at
// study scale; artifact benches then measure regeneration from it. The
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

// simulateClassified runs the simulator the way `tlstrend simulate` does
// (Study.RunSinks): Simulator.Run into one aggregate whose classifier is the
// fingerprint database.
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

// studyFrame is the columnar snapshot the per-figure benches evaluate
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

// monthVal extracts a series value for metric reporting.
func monthVal(fig analysis.Figure, series string, y int, m time.Month) float64 {
	for _, s := range fig.Series {
		if s.Name == series {
			v, _ := s.Value(timeline.M(y, m))
			return v
		}
	}
	return -1
}

// --- Tables ---

func BenchmarkTable1VersionDates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.Table1()
		if len(rows) != 6 {
			b.Fatal("table 1 rows")
		}
	}
}

func BenchmarkTable2FingerprintSummary(b *testing.B) {
	f, db := studyFrame(b), benchDB()
	b.ResetTimer()
	var rep analysis.Table2Report
	for i := 0; i < b.N; i++ {
		rep = analysis.BuildTable2Frame(f, db)
	}
	b.ReportMetric(rep.TotalCoverage, "coverage_pct_paper_69.23")
	b.ReportMetric(float64(rep.TotalFPs), "fingerprints_paper_1562")
}

func benchBrowserTable(b *testing.B, build func() []clientdb.TableRow, wantRows int) {
	b.Helper()
	var rows []clientdb.TableRow
	for i := 0; i < b.N; i++ {
		rows = build()
	}
	if len(rows) < wantRows {
		b.Fatalf("only %d rows", len(rows))
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

func BenchmarkTable3BrowserCBC(b *testing.B)  { benchBrowserTable(b, core.Table3, 15) }
func BenchmarkTable4BrowserRC4(b *testing.B)  { benchBrowserTable(b, core.Table4, 10) }
func BenchmarkTable5Browser3DES(b *testing.B) { benchBrowserTable(b, core.Table5, 6) }

func BenchmarkTable6BrowserVersions(b *testing.B) {
	var rows []clientdb.VersionSupportRow
	for i := 0; i < b.N; i++ {
		rows = core.Table6()
	}
	b.ReportMetric(float64(len(rows)), "rows")
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

func BenchmarkFigure1NegotiatedVersions(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 1)
	}
	b.ReportMetric(monthVal(fig, "TLSv12", 2018, time.February), "tls12_feb18_pct_paper_90")
	b.ReportMetric(monthVal(fig, "TLSv10", 2018, time.February), "tls10_feb18_pct_paper_2.8")
}

func BenchmarkFigure2NegotiatedModes(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 2)
	}
	b.ReportMetric(monthVal(fig, "RC4", 2013, time.August), "rc4_aug13_pct_paper_60")
	b.ReportMetric(monthVal(fig, "AEAD", 2018, time.March), "aead_mar18_pct_paper_90")
}

func BenchmarkFigure3AdvertisedModes(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 3)
	}
	b.ReportMetric(monthVal(fig, "3DES", 2018, time.March), "tdes_mar18_pct_paper_69")
}

func BenchmarkFigure4FingerprintModes(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 4)
	}
	b.ReportMetric(monthVal(fig, "RC4", 2018, time.March), "fp_rc4_mar18_pct_paper_39.9")
}

func BenchmarkFigure5CipherPositions(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 5)
	}
	b.ReportMetric(monthVal(fig, "AEAD", 2016, time.June), "aead_pos_jun16_pct")
	b.ReportMetric(monthVal(fig, "3DES", 2016, time.June), "tdes_pos_jun16_pct")
}

func BenchmarkFigure6RC4Advertised(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 6)
	}
	b.ReportMetric(monthVal(fig, "RC4 advertised", 2018, time.March), "rc4_adv_mar18_pct_paper_10")
}

func BenchmarkFigure7WeakCiphers(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 7)
	}
	b.ReportMetric(monthVal(fig, "Export", 2012, time.June), "export_jun12_pct_paper_28.19")
	b.ReportMetric(monthVal(fig, "Anonymous", 2015, time.July), "anon_jul15_pct_paper_12.9")
}

func BenchmarkFigure8ForwardSecrecy(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 8)
	}
	b.ReportMetric(monthVal(fig, "ECDHE", 2018, time.March), "ecdhe_mar18_pct_paper_85")
	b.ReportMetric(monthVal(fig, "RSA", 2012, time.June), "rsa_jun12_pct_paper_60")
}

func BenchmarkFigure9AEADNegotiated(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 9)
	}
	b.ReportMetric(monthVal(fig, "ChaCha20-Poly1305", 2018, time.March), "chacha_mar18_pct_paper_1.7")
}

func BenchmarkFigure10AEADAdvertised(b *testing.B) {
	studyFrame(b)
	b.ResetTimer()
	var fig analysis.Figure
	for i := 0; i < b.N; i++ {
		fig = benchFigure(b, 10)
	}
	b.ReportMetric(monthVal(fig, "AES128-GCM", 2018, time.March), "gcm128_adv_mar18_pct")
}

// --- Active-scan scalars (S1–S4): real TCP farm sweeps ---

func runCampaign(b *testing.B, date timeline.Date, hosts int) *core.CampaignReport {
	b.Helper()
	c := &core.ScanCampaign{Date: date, Hosts: hosts, Workers: 32, Seed: 7, Timeout: 3 * time.Second}
	rep, err := c.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

func BenchmarkScalarSSL3ServerSupport(b *testing.B) {
	var rep *core.CampaignReport
	for i := 0; i < b.N; i++ {
		rep = runCampaign(b, timeline.D(2018, time.May, 13), 200)
	}
	b.ReportMetric(rep.SSL3SupportPct(), "ssl3_may18_pct_paper_25")
}

func BenchmarkScalarRC4ServerChoice(b *testing.B) {
	var rep *core.CampaignReport
	for i := 0; i < b.N; i++ {
		rep = runCampaign(b, timeline.D(2015, time.September, 15), 200)
	}
	b.ReportMetric(rep.RC4ChosenPct(), "rc4_sep15_pct_paper_11.2")
	b.ReportMetric(rep.CBCChosenPct(), "cbc_sep15_pct_paper_54")
}

func BenchmarkScalarHeartbleed(b *testing.B) {
	var rep *core.CampaignReport
	for i := 0; i < b.N; i++ {
		rep = runCampaign(b, timeline.D(2018, time.May, 13), 200)
	}
	b.ReportMetric(rep.HeartbeatSupportPct(), "heartbeat_may18_pct_paper_34")
	b.ReportMetric(rep.HeartbleedVulnerablePct(), "vulnerable_may18_pct_paper_0.32")
}

func BenchmarkScalar3DESServerChoice(b *testing.B) {
	var rep *core.CampaignReport
	for i := 0; i < b.N; i++ {
		rep = runCampaign(b, timeline.D(2015, time.September, 15), 400)
	}
	b.ReportMetric(rep.TDESChosenPct(), "tdes_sep15_pct_paper_0.54")
}

// --- Passive scalars (S5–S7) ---

func BenchmarkScalarFingerprintDurations(b *testing.B) {
	agg := studyAggregate(b)
	b.ResetTimer()
	var st fingerprint.DurationStats
	for i := 0; i < b.N; i++ {
		st = fingerprint.ComputeDurationStats(agg.FPDurations())
	}
	b.ReportMetric(st.MedianDays, "median_days_paper_1")
	b.ReportMetric(float64(st.SingleDay), "single_day_fps")
}

func BenchmarkScalarTLS13(b *testing.B) {
	f := studyFrame(b)
	b.ResetTimer()
	var scalars []analysis.Scalar
	for i := 0; i < b.N; i++ {
		scalars = analysis.PassiveScalarsFrame(f)
	}
	for _, s := range scalars {
		if s.ID == "S7c" {
			b.ReportMetric(s.Measured, "tls13_support_apr18_pct_paper_23.6")
		}
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
