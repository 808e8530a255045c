package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Every measured run sets the workload up setupReps times — spawn, preload,
// warm-up — and reports the median, so one slow exec or cold page cache does
// not move setup_s. Only the last instance is measured.
const (
	setupReps = 3
	warmUp    = time.Second
	// workloadTimeout is the hard stop for one workload, all phases included.
	workloadTimeout = 150 * time.Second
)

// runConfig is what one invocation fixes for every workload it runs.
type runConfig struct {
	seed    int64
	seconds float64
	// bin is the built tlstrend binary; empty hosts every server in this
	// process, which is what the tests do to stay fast.
	bin    string
	outDir string
	// corpusS is how long building the corpus took; it is part of setup_s.
	corpusS float64
	// setups and warm are setupReps and warmUp, except in tests.
	setups int
	warm   time.Duration
}

// result is one workload's outcome in one mode, as written to the run file.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	// SliceRates are the per-slice throughputs throughput_per_s is the median
	// of; their scatter shows how steady the window was.
	SliceRates []float64 `json:"slice_rates,omitempty"`
	// ServerStderr is kept only when something failed.
	ServerStderr string `json:"server_stderr,omitempty"`
	TraceFile    string `json:"trace_file,omitempty"`
}

func (r *result) fail(err error) {
	r.Failed++
	r.Correct = false
	if len(r.Notes) < 10 {
		r.Notes = append(r.Notes, "FAILED: "+err.Error())
	}
}

// temps tracks the scratch directories in use, so an exit path that skips a
// workload's deferred clean-up (a signal, the hard timeout) still removes them.
var temps = struct {
	sync.Mutex
	dirs map[string]bool
}{dirs: map[string]bool{}}

func makeTemp(parent, pattern string) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err == nil {
		temps.Lock()
		temps.dirs[dir] = true
		temps.Unlock()
	}
	return dir, err
}

func removeTemp(dir string) {
	temps.Lock()
	delete(temps.dirs, dir)
	temps.Unlock()
	os.RemoveAll(dir)
}

// removeAllTemps is the exit sweep beside killAllProcs.
func removeAllTemps() {
	temps.Lock()
	defer temps.Unlock()
	for dir := range temps.dirs {
		os.RemoveAll(dir)
		delete(temps.dirs, dir)
	}
}

// runWorkload runs one workload in one mode under the hard timeout. On a
// timeout every spawned server is killed and the result says so.
func runWorkload(w workload, c *corpus, cfg runConfig, traced bool) result {
	done := make(chan result, 1)
	go func() { done <- runWorkloadNow(w, c, cfg, traced) }()
	select {
	case r := <-done:
		return r
	case <-time.After(workloadTimeout):
		killAllProcs()
		r := result{Workload: w.name, Traced: traced, Attempted: 1, Metrics: map[string]metric{}}
		r.fail(fmt.Errorf("workload exceeded its %v hard timeout", workloadTimeout))
		return r
	}
}

func runWorkloadNow(w workload, c *corpus, cfg runConfig, traced bool) (res result) {
	res = result{Workload: w.name, Traced: traced, Correct: true, Metrics: map[string]metric{}}
	tmp, err := makeTemp(cfg.outDir, "tmp-"+w.name+"-")
	if err != nil {
		res.Attempted = 1
		res.fail(err)
		return res
	}
	defer removeTemp(tmp)

	var tr *tracer
	e := &env{c: c, seed: cfg.seed, tmp: tmp}
	switch {
	case traced:
		tr = newTracer()
		e.spawn = func(sc serveConfig) (host, error) { return startInproc(sc, tr.hooks()) }
	case cfg.bin == "":
		e.spawn = func(sc serveConfig) (host, error) { return startInproc(sc, hooks{}) }
	default:
		e.spawn = func(sc serveConfig) (host, error) { return spawnProc(cfg.bin, sc) }
	}

	var s session
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		if s, err = w.setup(e); err != nil {
			res.Attempted = 1
			res.fail(fmt.Errorf("set-up: %w", err))
			return res
		}
		s.warm(cfg.warm)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	window := time.Duration(cfg.seconds * float64(time.Second))
	var plain *measurement
	if traced {
		// Half the window untraced, half traced, both in process: the
		// difference is what tracing costs.
		window /= 2
		plain = s.measure(window, nil)
		tr.enabled.Store(true)
	}
	pc := startPace()
	self0, t0 := selfCPUSeconds(), time.Now()
	m := s.measure(window, tr)
	paceUS, paceN := pc.finish()
	// Over the whole call, not m.elapsed: a workload may do harness work
	// between its timed phases.
	cpuShare := (selfCPUSeconds() - self0) / time.Since(t0).Seconds()
	if tr != nil {
		tr.enabled.Store(false)
	}

	res.Attempted, res.Failed, res.SliceRates = m.attempted, m.failed, m.rates
	for _, e := range m.errs {
		res.Notes = append(res.Notes, "FAILED: "+e)
	}
	res.Notes = append(res.Notes, m.notes...)
	checks, errs := s.verify()
	res.Attempted += checks
	for _, err := range errs {
		res.fail(err)
	}
	res.Correct = res.Failed == 0
	if !res.Correct {
		res.ServerStderr = s.stderr()
	}
	if m.units == 0 || len(m.lat) == 0 || len(m.rates) == 0 || m.elapsed <= 0 {
		res.fail(fmt.Errorf("the measured window completed no operation"))
		return res
	}

	p50, tail := m.lat.summary(w.tail)
	if tail.Note != "p"+trimFloat(w.tail) {
		res.Notes = append(res.Notes, fmt.Sprintf("latency_tail_ms fell back to %s: %d samples leave fewer than %d beyond p%s",
			tail.Note, len(m.lat), minBeyond, trimFloat(w.tail)))
	}
	late := metric{Unit: "ms"}
	if len(m.late) > 0 {
		_, late = m.late.summary(99)
	}
	if cpuShare > 0.9 && !traced {
		res.Notes = append(res.Notes, fmt.Sprintf("loadgen.cpu_share %.2f: the generator, not the server, may have been the limit", cpuShare))
	}
	// Measured in both modes; an end-to-end run keeps them in the run file,
	// a traced run reports them among the per-layer metrics.
	shared := map[string]metric{
		"cmd.serve_peak_rss_mb": {Value: s.peakRSSMB(), Unit: "MB"},
		"loadgen.cpu_share":     {Value: cpuShare, Unit: "ratio"},
		"loadgen.late_p99_ms":   late,
		"loadgen.pace_us":       {Value: paceUS, Unit: "us", N: paceN},
	}
	if w.unit == "queries" {
		shared["cmd.serve_cpu_us_per_query"] = metric{Value: m.serverCPU / float64(m.units) * 1e6, Unit: "us"}
	}

	if !traced {
		endToEndMetrics(&res, w, cfg, m, p50, tail, median(setups), paceUS)
		for name, v := range shared {
			res.Metrics[name] = v
		}
		return res
	}

	if err := tracedMetrics(&res, w, c, cfg, tmp, tr, plain, m, shared); err != nil {
		res.fail(err)
	}
	return res
}

// endToEndMetrics fills an end-to-end result. slow is how much slower than
// the reference pace the machine ran while the window was open: times are
// divided by it and closed-loop rates multiplied, so a run on a host that a
// neighbour has slowed by a third reads like one on a quiet host, and Raw
// keeps the measurement. What a schedule or a timer sets is left alone.
func endToEndMetrics(res *result, w workload, cfg runConfig, m *measurement, p50, tail metric, setupS, paceUS float64) {
	slow := 1.0
	if paceUS > 0 {
		slow = paceUS / paceReferenceUS
	}
	asTime := func(v metric) metric { v.Raw, v.Value = v.Value, v.Value/slow; return v }
	throughput := metric{Value: median(m.rates), Unit: "1/s", N: len(m.rates),
		Note: fmt.Sprintf("%s; median slice, %.0f overall", w.unit, float64(m.units)/m.elapsed.Seconds())}
	if w.paced {
		throughput.Note = w.unit + "; set by the generator's schedule"
	} else {
		throughput.Raw, throughput.Value = throughput.Value, throughput.Value*slow
	}
	if !w.timerLatency {
		p50, tail = asTime(p50), asTime(tail)
	}
	res.Metrics["throughput_per_s"] = throughput
	res.Metrics["latency_p50_ms"] = p50
	res.Metrics["latency_tail_ms"] = tail
	res.Metrics["serve_cpu_s_per_mop"] = asTime(metric{Value: m.serverCPU / float64(m.units) * 1e6, Unit: "s/Mop",
		Note: "per million " + w.unit})
	// The warm-up is a fixed sleep; the rest of set-up is work.
	work := cfg.corpusS + setupS - cfg.warm.Seconds()
	res.Metrics["setup_s"] = metric{Value: work/slow + cfg.warm.Seconds(), Unit: "s", N: cfg.setups,
		Raw: work + cfg.warm.Seconds()}
	for name, v := range m.extra {
		if v.Unit == "ms" || v.Unit == "s" {
			v = asTime(v)
		}
		res.Metrics[name] = v
	}
}

// tracedMetrics fills a traced result: the layer timings from the shadow
// study, the workload's own counters, the replayed spans and what they say
// about the service layer's self time, and the span file.
func tracedMetrics(res *result, w workload, c *corpus, cfg runConfig, tmp string,
	tr *tracer, plain, m *measurement, shared map[string]metric) error {
	st, err := newStages(c, cfg.seed)
	if err != nil {
		return err
	}
	layers, err := st.measureLayers(tmp)
	if err != nil {
		return fmt.Errorf("measuring layers: %w", err)
	}
	if err := tr.replay(st); err != nil {
		return fmt.Errorf("replaying sampled operations: %w", err)
	}
	for _, src := range []map[string]metric{layers, m.layer, shared} {
		for name, v := range src {
			res.Metrics[name] = v
		}
	}
	if n := tr.teeRecords.Load(); n > 0 {
		res.Metrics["service.tee_ns_per_record"] = metric{Value: float64(tr.teeNS.Load()) / float64(n), Unit: "ns", N: int(n)}
	}
	res.Metrics["service.shards_merged"] = metric{Value: float64(tr.shards.Load()), Unit: "count"}
	if median(plain.rates) > 0 {
		before, after := median(plain.rates), median(m.rates)
		res.Metrics["loadgen.trace_overhead_pct"] = metric{Value: 100 * (before - after) / before, Unit: "%"}
	}
	if cfg.bin != "" {
		ms, err := serveStartMS(cfg.bin)
		if err != nil {
			return err
		}
		res.Metrics["cmd.serve_start_ms"] = ms
	}

	tr.mu.Lock()
	spans := append([]traceSpan(nil), tr.spans...)
	tr.mu.Unlock()
	self := selfTimes(spans)
	// A client span's self time is what its service.http child does not
	// cover: the network and the HTTP stack on both ends.
	for _, name := range []string{"op.query", "op.ingest"} {
		if v, n := medianSelf(spans, self, name); n > 0 {
			res.Metrics["service.net_overhead_us"] = metric{Value: v, Unit: "us", N: n, Note: name}
			break
		}
	}
	for _, d := range perLayerDefs {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.Metrics[d.Name] = metric{Unit: d.Unit}
		}
	}

	res.TraceFile = filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	out := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Sampled  string            `json:"sampled"`
		Metrics  map[string]metric `json:"metrics"`
		Spans    []traceSpan       `json:"spans"`
	}{w.name, cfg.seed, fmt.Sprintf("1 in %d operations", sampleEvery), res.Metrics, spans}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(res.TraceFile, raw, 0o644)
}

// serveStartMS times exec → first 200 on /healthz of an empty server: the
// floor under every recovery time.
func serveStartMS(bin string) (metric, error) {
	const starts = 5
	cl := newClient()
	defer cl.close()
	d, err := medianDur(starts, func() (time.Duration, error) {
		t0 := time.Now()
		h, err := spawnProc(bin, serveConfig{})
		if err != nil {
			return 0, err
		}
		defer h.Kill()
		_, err = cl.get(h.HTTP() + "/healthz")
		return time.Since(t0), err
	})
	return metric{Value: msOf(d), Unit: "ms", N: starts}, err
}
