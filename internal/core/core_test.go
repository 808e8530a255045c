package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/scanner"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

var (
	studyOnce sync.Once
	study     *Study
)

func sharedStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		var err error
		if study, err = Simulate(simulate.DefaultOptions(300), nil); err != nil {
			panic(err)
		}
	})
	return study
}

// frameOf returns s's current frame, failing the test when there is none.
func frameOf(t *testing.T, s *Study) *analysis.Frame {
	t.Helper()
	f, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStudyLifecycle: a study is born with its data, so a live one answers
// every read at zero months, and a constructor that fails returns no study.
func TestStudyLifecycle(t *testing.T) {
	t.Run("a live study answers at zero months", func(t *testing.T) {
		s := NewLiveStudy()
		if records, months, gen, _ := s.Counts(); records != 0 || months != 0 || gen != 0 {
			t.Errorf("Counts = %d records, %d months, generation %d; want zeros", records, months, gen)
		}
		if f := frameOf(t, s); f.Len() != 0 {
			t.Errorf("frame over %d months, want 0", f.Len())
		}
		if scalars, _ := s.Scalars(); len(scalars) == 0 {
			t.Error("no scalar rows")
		}
		if rep := s.Table2(); rep.TotalFPs == 0 {
			t.Error("Table 2 lists no database fingerprints")
		}
		if st := s.FingerprintDurations(); st.Total != 0 {
			t.Errorf("%d fingerprint lifetimes, want 0", st.Total)
		}
	})
	t.Run("a malformed log loads no study", func(t *testing.T) {
		if s, err := LoadLog(strings.NewReader("not a record log\n"), 1); err == nil || s != nil {
			t.Errorf("LoadLog of a malformed log = %v, %v; want an error and no study", s, err)
		}
	})
	t.Run("a failing writer fails the snapshot", func(t *testing.T) {
		if _, err := NewLiveStudy().WriteSnapshot(&failWriter{}); err == nil || err.Error() != "injected write failure" {
			t.Errorf("WriteSnapshot to a failing writer = %v, want the injected failure", err)
		}
	})
}

func TestStudyFiguresAndScalars(t *testing.T) {
	s := sharedStudy(t)
	f := frameOf(t, s)
	if figs := f.Figures(); len(figs) != 10 {
		t.Fatalf("figures: %d, want 10", len(figs))
	}
	fig, ok := f.FigureByNum(1)
	if !ok || fig.ID != "Figure 1" {
		t.Errorf("FigureByNum(1): %v %s", ok, fig.ID)
	}
	if _, ok := f.FigureByNum(0); ok {
		t.Error("FigureByNum(0) should miss")
	}
	if _, ok := f.FigureByNum(11); ok {
		t.Error("FigureByNum(11) should miss")
	}
	scalars, err := s.Scalars()
	if err != nil || len(scalars) < 15 {
		t.Errorf("scalars: %v (%d)", err, len(scalars))
	}
	if rep := s.Table2(); rep.TotalFPs == 0 {
		t.Error("table2 lists no fingerprints")
	}
	if st := s.FingerprintDurations(); st.Total == 0 {
		t.Error("no fingerprint lifetimes")
	}
	t.Run("static-tables", func(t *testing.T) {
		if len(Table1()) != 6 || len(Table3()) < 15 || len(Table4()) < 10 || len(Table5()) < 6 || len(Table6()) < 10 {
			t.Errorf("static table rows: %d, %d, %d, %d, %d",
				len(Table1()), len(Table3()), len(Table4()), len(Table5()), len(Table6()))
		}
	})
}

// Simulate is what `tlstrend simulate` runs — Simulator.Run teed into a
// classified aggregate and the TLSB frame log — and Options.Workers may not
// move a byte of it: every width must fill the identical aggregate
// (client-class attribution included), write the identical log and report
// the identical scalars. The subtests read those runs and their log.
func TestStudyRunIdenticalAcrossWorkers(t *testing.T) {
	logs := map[int][]byte{}
	run := func(workers int) (*Study, []byte) {
		opts := simulate.DefaultOptions(60)
		opts.End = timeline.M(2015, time.June) // 41 months, fingerprints from Feb 2014
		opts.Workers = workers
		var log bytes.Buffer
		s, err := Simulate(opts, &log)
		if err != nil {
			t.Fatal(err)
		}
		logs[workers] = log.Bytes()
		return s, log.Bytes()
	}
	want, wantLog := run(1)
	if want.Aggregate().TotalRecords() != 41*60 {
		t.Fatalf("unexpected record count %d", want.Aggregate().TotalRecords())
	}
	if len(want.Aggregate().Stats(timeline.M(2015, time.June)).ByClientClass) == 0 {
		t.Fatal("no client-class attribution — the classifier is not installed, so the sweep would not cover it")
	}
	wantScalars, err := want.Scalars()
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{0, 2, 3, 8, 64}
	got := map[int]*Study{}
	for _, workers := range widths {
		s, gotLog := run(workers)
		got[workers] = s
		if !bytes.Equal(wantLog, gotLog) {
			t.Errorf("Workers=%d: frame log differs from Workers=1", workers)
		}
		gotScalars, err := s.Scalars()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantScalars, gotScalars) {
			t.Errorf("Workers=%d: scalars differ from Workers=1:\n%+v\n%+v", workers, gotScalars, wantScalars)
		}
	}
	// reload requires the run's log, loaded at the given width, to hold the
	// run's records and report its scalars.
	reload := func(t *testing.T, workers int) {
		s, err := LoadLog(bytes.NewReader(wantLog), workers)
		if err != nil {
			t.Fatal(err)
		}
		gotScalars, err := s.Scalars()
		if err != nil || s.Aggregate().TotalRecords() != 41*60 || !reflect.DeepEqual(wantScalars, gotScalars) {
			t.Errorf("Workers=%d: the reloaded log holds %d records, scalars %+v (%v)",
				workers, s.Aggregate().TotalRecords(), gotScalars, err)
		}
	}
	t.Run("aggregate-at-every-width", func(t *testing.T) {
		for workers, s := range got {
			if !reflect.DeepEqual(want.Aggregate(), s.Aggregate()) {
				t.Errorf("Workers=%d: aggregate differs from Workers=1", workers)
			}
		}
	})
	t.Run("log-round-trip", func(t *testing.T) { reload(t, 1) })
	t.Run("load-log-parallel-and-sinks", func(t *testing.T) {
		for _, workers := range widths {
			log := logs[workers]
			if !bytes.HasPrefix(log, []byte("TLSB")) {
				t.Errorf("Workers=%d: the log starts %q, want a TLSB frame", workers, log[:min(len(log), 8)])
			}
			seen := 0
			counter := notary.SinkFunc(func(r *notary.Record) error {
				if r.Date.Year == 0 {
					t.Error("the log holds an empty record")
				}
				seen++
				return nil
			})
			if err := notary.ReadLog(bytes.NewReader(log), counter); err != nil || seen != 41*60 {
				t.Errorf("Workers=%d: the log reads %d records (%v), want %d", workers, seen, err, 41*60)
			}
			reload(t, workers)
		}
	})
}

func TestScanCampaignTwoSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("network farm test")
	}
	run := func(d timeline.Date) *CampaignReport {
		c := &ScanCampaign{Date: d, Hosts: 250, Seed: 7}
		rep, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	sep15 := run(timeline.D(2015, time.September, 15))
	may18 := run(timeline.D(2018, time.May, 13))
	sep, may := campaignMetrics(sep15), campaignMetrics(may18)

	// §5.1: SSL3 support declines, in the paper's ranges.
	if got := sep["ssl3"]; got < 34 || got > 58 {
		t.Errorf("SSL3 support Sep 2015 = %0.1f%%, want ≈45%%", got)
	}
	if got := may["ssl3"]; got > 32 {
		t.Errorf("SSL3 support May 2018 = %0.1f%%, want <25%%", got)
	}
	if may["ssl3"] >= sep["ssl3"] {
		t.Error("SSL3 support should decline")
	}
	// §5.3: RC4 chosen declines ≈11.2% → ≈3.4%.
	if got := sep["rc4sel"]; got < 6 || got > 17 {
		t.Errorf("RC4 chosen Sep 2015 = %0.1f%%, want ≈11%%", got)
	}
	if got := may["rc4sel"]; got > 8 {
		t.Errorf("RC4 chosen May 2018 = %0.1f%%, want ≈3.4%%", got)
	}
	// §5.2: CBC chosen declines ≈54% → ≈35%.
	if got := sep["cbc"]; got < 40 || got > 68 {
		t.Errorf("CBC chosen Sep 2015 = %0.1f%%, want ≈54%%", got)
	}
	if got := may["cbc"]; got < 20 || got > 50 {
		t.Errorf("CBC chosen May 2018 = %0.1f%%, want ≈35%%", got)
	}
	// §5.4: heartbeat ≈34% in 2018; vulnerability ≈0.32% (sampling noise at
	// 250 hosts allows 0–2 hosts).
	if got := may["hb"]; got < 18 || got > 50 {
		t.Errorf("heartbeat support 2018 = %0.1f%%, want ≈34%%", got)
	}
	if got := may["bleed"]; got > 3 {
		t.Errorf("Heartbleed vulnerable 2018 = %0.1f%%, want ≈0.3%%", got)
	}
	// Export support exists but is not universal.
	if got := sep["export"]; got <= 0 || got > 60 {
		t.Errorf("export support Sep 2015 = %0.1f%%", got)
	}

	scalars := ScanScalars(sep15, may18)
	if len(scalars) != 11 {
		t.Fatalf("scan scalars: %d", len(scalars))
	}
	for _, s := range scalars {
		if s.ID == "" || s.Name == "" {
			t.Errorf("malformed scalar %+v", s)
		}
	}
}

// TestCampaignReportFracEmpty pins the zero-denominator convention: a
// report of no hosts reads 0 on every metric, whatever its probe counters.
func TestCampaignReportFracEmpty(t *testing.T) {
	r := &CampaignReport{
		Probes: map[string]scanner.Summary{
			"ssl3only":   {Answered: 5},
			"chrome2015": {Answered: 5, ChoseRC4: 5, ChoseCBC: 5, Chose3DES: 5, HeartbeatAck: 5},
			"rc4only":    {Answered: 5},
			"exportonly": {ChoseExport: 5},
		},
		VulnerableHosts: 5,
	}
	vals := campaignMetrics(r)
	for _, m := range ScanMetrics {
		if got, ok := vals[m.Key]; !ok || got != 0 {
			t.Errorf("%s of a zero-host report = %v (present %v), want 0", m.Key, got, ok)
		}
	}
}

func TestHeartbleedCheckMatchesGroundTruth(t *testing.T) {
	// The live exploit check over the farm must find exactly the hosts the
	// population configured as unpatched.
	c := &ScanCampaign{Date: timeline.D(2014, time.April, 20), Hosts: 300, Seed: 3}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.VulnerableHosts != rep.GroundTruthVulnerable {
		t.Errorf("exploit check found %d vulnerable hosts, ground truth %d",
			rep.VulnerableHosts, rep.GroundTruthVulnerable)
	}
	// Mid-April 2014: disclosure was days ago, patching underway but far
	// from done — a meaningful fraction must still be vulnerable.
	vals := campaignMetrics(rep)
	if vals["bleed"] < 2 {
		t.Errorf("vulnerable ≈2 weeks after disclosure = %0.1f%%, want >2%%", vals["bleed"])
	}
	if rep.VulnerableHosts > 0 && rep.LeakedBytes == 0 {
		t.Error("vulnerable hosts leaked no bytes")
	}
	// SSL-Pulse-style RC4 support: most hosts still answer RC4-only in 2014.
	if got := vals["rc4sup"]; got < 40 {
		t.Errorf("RC4 support Apr 2014 = %0.1f%%, want high", got)
	}
}

func TestExtensionFigureAndVariants(t *testing.T) {
	s := sharedStudy(t)
	f := frameOf(t, s)
	fig, ok := f.FigureByName("extensions")
	if !ok || fig.ID != "Figure E1" {
		t.Fatalf("extension figure: %v %s", ok, fig.ID)
	}
	shares := analysis.TLS13VariantSharesFrame(f)
	if len(shares) == 0 {
		t.Fatal("no variant shares")
	}
	// §6.4: the Google experimental variant dominates advertised variants.
	if shares[0].Variant != registry.VersionTLS13Google {
		t.Errorf("top variant = %v, want 0x7e02", shares[0].Variant)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v.Share
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("variant shares sum to %0.1f", sum)
	}
}

func TestPopularityWeightedCampaign(t *testing.T) {
	// The Alexa-style flavour samples the traffic universe: popular sites
	// are more modern, so SSL3 support is lower than in the host census.
	date := timeline.D(2016, time.June, 15)
	census := &ScanCampaign{Date: date, Hosts: 250, Seed: 5}
	alexa := &ScanCampaign{Date: date, Hosts: 250, Seed: 5, PopularityWeighted: true}
	cRep, err := census.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	aRep, err := alexa.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, c := campaignMetrics(aRep), campaignMetrics(cRep)
	if a["ssl3"] >= c["ssl3"] {
		t.Errorf("Alexa SSL3 support (%0.1f%%) should be below census (%0.1f%%)", a["ssl3"], c["ssl3"])
	}
	if a["rc4sel"] > c["rc4sel"] {
		t.Errorf("Alexa RC4 choice (%0.1f%%) should not exceed census (%0.1f%%)", a["rc4sel"], c["rc4sel"])
	}
}

func TestScanSweepDeclines(t *testing.T) {
	sweep := &ScanSweep{
		Start:            timeline.M(2015, time.September),
		End:              timeline.M(2018, time.March),
		StepMonths:       10,
		HostsPerSnapshot: 180,
		Seed:             11,
	}
	reports, err := sweep.RunReports(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	agg := ScanAggregate(reports)
	axis, series := scanSeries(agg)
	if len(axis) != 4 {
		t.Fatalf("got %d snapshots", len(axis))
	}
	for _, key := range []string{"ssl3", "rc4sup", "cbc"} {
		if s := series[key]; s[len(s)-1] >= s[0] {
			t.Errorf("%s should decline: %0.1f → %0.1f", key, s[0], s[len(s)-1])
		}
	}
	var buf bytes.Buffer
	if err := RenderSweep(&buf, agg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2015-09") {
		t.Error("sweep rendering incomplete")
	}
}

func TestStudyFigureByName(t *testing.T) {
	s := sharedStudy(t)
	f := frameOf(t, s)
	fig, ok := f.FigureByName("fingerprint-classes")
	if !ok || fig.ID != "Figure 4" {
		t.Fatalf("FigureByName: %v %s", ok, fig.ID)
	}
	ext, ok := f.FigureByName("extensions")
	if !ok || ext.ID != "Figure E1" {
		t.Fatalf("extensions figure: %v %s", ok, ext.ID)
	}
	if upper, ok := f.FigureByName("Fingerprint-Classes"); !ok || upper.ID != "Figure 4" {
		t.Errorf("case-insensitive lookup: %v %s", ok, upper.ID)
	}
	if _, ok := f.FigureByName("nope"); ok {
		t.Error("unknown figure name should miss")
	}
	if impacts := analysis.AttackImpactsFrame(f); len(impacts) < 6 {
		t.Fatalf("impacts: %d rows, want at least 6", len(impacts))
	}
}

// TestStudyQuery pins the ad-hoc query path: text and Expr forms answer
// identically, catalog-equivalent expressions match the figure engine, and
// errors surface for malformed input.
func TestStudyQuery(t *testing.T) {
	s := sharedStudy(t)
	res, err := s.Query("pct(version:tls12 / established)")
	if err != nil || res.Kind != "series" {
		t.Fatalf("Query: %v (%+v)", err, res.Kind)
	}
	fig, _ := frameOf(t, s).FigureByNum(1)
	var want analysis.Series
	for _, s := range fig.Series {
		if s.Name == "TLSv12" {
			want = s
		}
	}
	if want.Name == "" {
		t.Fatal("no TLSv12 series")
	}
	if len(res.Series.Points) != len(want.Points) {
		t.Fatalf("query series has %d points, figure %d", len(res.Series.Points), len(want.Points))
	}
	for i, p := range want.Points {
		if res.Series.Points[i] != p {
			t.Fatalf("query diverges from the catalog at %v", p.Month)
		}
	}

	respelled, err := s.Query("OVER(Null-Negotiated / ESTABLISHED)")
	if err != nil {
		t.Fatal(err)
	}
	byText, err := s.Query("over(null-negotiated / established)")
	if err != nil || respelled.Query != byText.Query || respelled.Value != byText.Value || respelled.Kind != "scalar" {
		t.Errorf("respelled query %+v vs canonical %+v (err %v)", respelled, byText, err)
	}

	if _, err := s.Query("pct(bogus / total)"); err == nil {
		t.Error("bad column should error")
	}
}

// TestScanSweepParallelDeterministic pins the satellite guarantee: the
// bounded snapshot pool must produce byte-identical sweeps for every pool
// width, in chronological order. The width follows GOMAXPROCS.
func TestScanSweepParallelDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	run := func(procs int) ([]*CampaignReport, string) {
		runtime.GOMAXPROCS(procs)
		sweep := &ScanSweep{
			Start:            timeline.M(2016, time.February),
			End:              timeline.M(2017, time.February),
			StepMonths:       6,
			HostsPerSnapshot: 60,
			Seed:             21,
		}
		reports, err := sweep.RunReports(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var table strings.Builder
		if err := RenderSweep(&table, ScanAggregate(reports)); err != nil {
			t.Fatal(err)
		}
		return reports, table.String()
	}
	_, serial := run(1)
	reports, parallel := run(3)
	if len(reports) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(reports))
	}
	if serial != parallel {
		t.Fatalf("sweep differs between pool widths:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	for i := 1; i < len(reports); i++ {
		if !reports[i-1].Date.Before(reports[i].Date) {
			t.Fatal("sweep reports out of chronological order")
		}
	}
}

// TestScanSweepCancelled pins the failure contract of RunReports: under a
// cancelled context every snapshot fails, so the reports stop before the
// first and the error is the cancellation.
func TestScanSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sweep := &ScanSweep{Start: timeline.M(2016, time.February), End: timeline.M(2016, time.August), HostsPerSnapshot: 10}
	reports, err := sweep.RunReports(ctx)
	if !errors.Is(err, context.Canceled) || len(reports) != 0 {
		t.Errorf("RunReports under a cancelled context = (%d reports, %v), want (0, context.Canceled)", len(reports), err)
	}
}

// cancelledAfterCheck is a context that is live at its first Err call and
// cancels itself there: a campaign cancelled just after it looked.
type cancelledAfterCheck struct {
	context.Context
	cancel  context.CancelFunc
	checked atomic.Bool
}

func (c *cancelledAfterCheck) Err() error {
	if !c.checked.Swap(true) {
		c.cancel()
		return nil
	}
	return c.Context.Err()
}

// TestScanCampaignCancelledBeforeTheFarm: a campaign under a context already
// done returns the context's own error, before it samples or binds a host —
// not a probe's wrapped error after the whole farm started for nothing. One
// cancelled once its farm is up fails at its first probe, which it names.
func TestScanCampaignCancelledBeforeTheFarm(t *testing.T) {
	c := &ScanCampaign{Date: timeline.D(2016, time.May, 15), Hosts: 10, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rep, err := c.Run(ctx); err != context.Canceled || rep != nil {
		t.Fatalf("Run under a cancelled context = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	rep, err := c.Run(&cancelledAfterCheck{Context: ctx, cancel: cancel})
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "core: probe ") || rep != nil {
		t.Fatalf("Run cancelled after its check = (%v, %v), want (nil, the first probe's context.Canceled)", rep, err)
	}
}

// failWriter accepts ok writes and fails every one after them.
type failWriter struct{ ok, writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes > w.ok {
		return 0, errors.New("injected write failure")
	}
	return len(p), nil
}

// TestSimulateFailingWriter: a log writer that fails — mid-run, or only at
// the final flush of a run shorter than one frame — makes Simulate return
// that error and no study.
func TestSimulateFailingWriter(t *testing.T) {
	for _, c := range []struct {
		name  string
		conns int // a month; Feb – Apr 2012 is three months
		ok    int
	}{
		{"mid-run", 400, 1},    // 1,200 records: the second frame's write fails
		{"final-flush", 10, 0}, // 30 records: the one frame is written at Close
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := simulate.DefaultOptions(c.conns)
			opts.End = timeline.M(2012, time.April)
			w := &failWriter{ok: c.ok}
			s, err := Simulate(opts, w)
			if err == nil || err.Error() != "injected write failure" {
				t.Fatalf("Simulate error = %v, want the injected failure", err)
			}
			if w.writes != c.ok+1 {
				t.Errorf("%d writes reached the writer, want %d", w.writes, c.ok+1)
			}
			if s != nil {
				t.Error("a failed run must return no study")
			}
		})
	}
}

// TestScanCampaignReceiverUnchanged pins the reuse fix: Run must resolve
// defaults into locals, leaving a zero-valued campaign byte-identical so one
// value can be reused across dates.
func TestScanCampaignReceiverUnchanged(t *testing.T) {
	t.Run("campaign", func(t *testing.T) {
		c := &ScanCampaign{Date: timeline.D(2018, time.May, 13), Hosts: 60, Seed: 9}
		before := *c
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if *c != before {
			t.Errorf("Run mutated its receiver:\nbefore: %+v\nafter:  %+v", before, *c)
		}
	})
	t.Run("sweep", func(t *testing.T) {
		// End, StepMonths and HostsPerSnapshot default: one snapshot (Mar 2018;
		// the next, Jun 2018, is past the default End) of 150 hosts.
		s := &ScanSweep{Start: timeline.M(2018, time.March), Seed: 9}
		before := *s
		reports, err := s.RunReports(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 1 {
			t.Errorf("%d snapshots, want 1", len(reports))
		}
		if *s != before {
			t.Errorf("RunReports mutated its receiver:\nbefore: %+v\nafter:  %+v", before, *s)
		}
	})
}

// TestScanScalarsOrderAndLabels pins the row order (experiment-ID order,
// S2d before S2e) and the corrected S4a label: it measures the Sep 2015
// campaign and must say so.
func TestScanScalarsOrderAndLabels(t *testing.T) {
	sep := &CampaignReport{Date: timeline.D(2015, time.September, 15), Probes: map[string]scanner.Summary{}}
	may := &CampaignReport{Date: timeline.D(2018, time.May, 13), Probes: map[string]scanner.Summary{}}
	scalars := ScanScalars(sep, may)
	wantIDs := []string{"S1a", "S1b", "S2a", "S2b", "S2c", "S2d", "S2e", "S3a", "S3b", "S4a", "S4b"}
	if len(scalars) != len(wantIDs) {
		t.Fatalf("%d scalars, want %d", len(scalars), len(wantIDs))
	}
	for i, want := range wantIDs {
		if scalars[i].ID != want {
			t.Errorf("row %d: ID %s, want %s", i, scalars[i].ID, want)
		}
	}
	for _, s := range scalars {
		if strings.Contains(s.Name, "Aug 2015") {
			t.Errorf("%s still labeled Aug 2015: %q", s.ID, s.Name)
		}
	}
	s4a := scalars[9]
	if s4a.ID != "S4a" || !strings.Contains(s4a.Name, "Sep 2015") {
		t.Errorf("S4a label = %q, want a Sep 2015 label", s4a.Name)
	}
}

// TestScanMetricKeys pins the references into ScanMetrics: a misspelt key
// would read as a silent 0, and a metric missing from sweepColumns would
// drop out of the sweep table.
func TestScanMetricKeys(t *testing.T) {
	keys := map[string]bool{}
	for _, m := range ScanMetrics {
		if keys[m.Key] {
			t.Errorf("duplicate scan metric key %q", m.Key)
		}
		keys[m.Key] = true
	}
	if !slices.Equal(slices.Sorted(maps.Keys(keys)), slices.Sorted(slices.Values(sweepColumns))) {
		t.Errorf("sweepColumns %v is not a permutation of the ScanMetrics keys", sweepColumns)
	}
	for _, s := range scanScalarSpecs {
		if !keys[s.metric] {
			t.Errorf("%s reads unknown scan metric %q", s.ID, s.metric)
		}
	}
}

// TestStudyConcurrentIngestAndFrame hammers the live-ingest write path
// (MergeShard, of one record and of many) while readers go through each of
// the study's frame reads, with a query cache attached — run under -race.
// The aggregate's generation counts records, so every read must agree with
// the generation it reports: a frame's Total column and a count(total)
// query sum to exactly it, and scalars read with it equal those of the frame
// at it. Generations must never go backwards. Readers race one another to
// bring the frame up to date, so every stale read takes read's exclusive
// path.
func TestStudyConcurrentIngestAndFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		// read makes one read and returns the generation it observed, or an
		// error describing the inconsistency it found.
		read func(s *Study) (uint64, error)
	}{
		{"Frame and Counts", func(s *Study) (uint64, error) {
			f, err := s.Frame()
			if err != nil {
				return 0, err
			}
			total := 0
			for _, n := range f.Column("total") {
				total += n
			}
			if uint64(total) != f.Generation() {
				return 0, fmt.Errorf("torn frame: %d records at generation %d", total, f.Generation())
			}
			if len(f.Column("established")) != f.Len() || len(f.Column("adv-rc4")) != f.Len() {
				return 0, errors.New("frame columns misaligned with month axis")
			}
			_, _, gen, err := s.Counts()
			return gen, err
		}},
		{"QueryInfoJSON", func(s *Study) (uint64, error) {
			res, _, gen, _, err := s.QueryInfoJSON("count(total)")
			if err == nil && res.Value != float64(gen) {
				err = fmt.Errorf("count(total) = %v at generation %d", res.Value, gen)
			}
			return gen, err
		}},
		{"ScalarsWithGeneration", func(s *Study) (uint64, error) {
			got, gen := s.ScalarsWithGeneration()
			if f, err := s.Frame(); err == nil && f.Generation() == gen {
				if want := analysis.PassiveScalarsFrame(f); !reflect.DeepEqual(got[:len(want)], want) {
					return 0, fmt.Errorf("scalars at generation %d differ from the frame's", gen)
				}
			}
			return gen, nil
		}},
		{"Table2", func(s *Study) (uint64, error) {
			s.Table2()
			res, _, gen, _, err := s.QueryInfoJSON("COUNT(Total)")
			if err == nil && res.Value != float64(gen) {
				err = fmt.Errorf("count(total) = %v at generation %d", res.Value, gen)
			}
			return gen, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { ingestWhileReading(t, tc.read) })
	}
}

// ingestWhileReading runs four producers merging into a live study with a
// query cache while three readers call read until the producers are done,
// then checks the final state.
func ingestWhileReading(t *testing.T, read func(*Study) (uint64, error)) {
	const producers = 4
	const perProducer = 400
	const shardEvery = 64

	s := NewLiveStudy()
	s.SetQueryCache(analysis.NewQueryCache(64, 1<<20), "concurrent")
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			shard := notary.NewAggregate()
			var hellos notary.HelloTable // one per producer: a table is not shared
			for i := 0; i < perProducer; i++ {
				rec := &notary.Record{
					Date:        timeline.D(2012+i%3, time.Month(1+i%12), 1+i%27),
					Established: i%2 == 0,
				}
				hellos.Intern(rec, &notary.Hello{Suites: []uint16{0x002f}})
				// Odd producers batch shardEvery records a merge, even
				// producers merge record-at-a-time.
				shard.Add(rec)
				if p%2 == 0 || shard.TotalRecords() >= shardEvery {
					if err := s.MergeShard(shard); err != nil {
						t.Errorf("merge: %v", err)
						return
					}
					shard = notary.NewAggregate()
				}
			}
			if shard.TotalRecords() > 0 {
				if err := s.MergeShard(shard); err != nil {
					t.Errorf("final merge: %v", err)
				}
			}
		}(p)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen, err := read(s)
				if err != nil {
					t.Error(err)
					return
				}
				if gen < lastGen {
					t.Errorf("generation moved backwards: %d after %d", gen, lastGen)
					return
				}
				lastGen = gen
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	records, _, gen, err := s.Counts()
	if err != nil {
		t.Fatal(err)
	}
	want := producers * perProducer
	if records != want || gen != uint64(want) {
		t.Fatalf("final state: %d records at generation %d, want %d", records, gen, want)
	}
	if got, err := read(s); err != nil || got != uint64(want) {
		t.Errorf("final read: generation %d, %v; want %d", got, err, want)
	}
}

// TestStudyQueryCacheIntegration pins the generation-keyed result cache:
// repeats hit, canonicalization shares entries across text and Expr forms,
// and ingestion invalidates by generation.
func TestStudyQueryCacheIntegration(t *testing.T) {
	opts := simulate.DefaultOptions(30)
	opts.End = timeline.M(2012, time.December)
	s, err := Simulate(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := analysis.NewQueryCache(64, 1<<20)
	s.SetQueryCache(cache, "test")

	const src = "pct(version:tls12 / established)"
	res1, _, gen1, hit1, err := s.QueryInfoJSON(src)
	if err != nil || hit1 {
		t.Fatalf("first query: err=%v hit=%v, want a miss", err, hit1)
	}
	res2, _, gen2, hit2, err := s.QueryInfoJSON(src)
	if err != nil || !hit2 || gen2 != gen1 {
		t.Fatalf("repeat query: err=%v hit=%v gen=%d/%d, want a hit at the same generation",
			err, hit2, gen2, gen1)
	}
	if res1.Query != res2.Query || len(res1.Series.Points) != len(res2.Series.Points) {
		t.Fatal("cached result differs from the computed one")
	}
	for i := range res1.Series.Points {
		if res1.Series.Points[i] != res2.Series.Points[i] {
			t.Fatal("cached points differ from the computed ones")
		}
	}

	// Another spelling canonicalizes to the same key and shares the entry.
	if _, _, _, hit, err := s.QueryInfoJSON("PCT(Version:TLS12 / ESTABLISHED)"); err != nil || !hit {
		t.Errorf("respelled cached query: err=%v hit=%v, want a hit", err, hit)
	}
	e, err := analysis.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}

	// A generation advance through live ingestion makes the entry
	// unreachable; the recomputed result matches a fresh compile exactly.
	donor := notary.NewAggregate()
	donor.Add(&notary.Record{Date: timeline.D(2012, time.March, 3)})
	if err := s.MergeShard(donor); err != nil {
		t.Fatal(err)
	}
	res3, _, gen3, hit3, err := s.QueryInfoJSON(src)
	if err != nil || hit3 || gen3 != gen1+1 {
		t.Fatalf("post-ingest query: err=%v hit=%v gen=%d, want a miss at generation %d",
			err, hit3, gen3, gen1+1)
	}
	f, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := analysis.Compile(e, f)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Eval()
	for i := range want.Series.Points {
		if res3.Series.Points[i] != want.Series.Points[i] {
			t.Fatal("post-ingest result diverges from a fresh compile")
		}
	}

	if _, _, _, hit4, err := s.QueryInfoJSON(src); err != nil || !hit4 {
		t.Errorf("repeat after ingest: err=%v hit=%v, want a hit", err, hit4)
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache stats unchanged: %+v", st)
	}

}
