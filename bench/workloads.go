package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tlsage/internal/service"
)

// env is what a workload runs in.
type env struct {
	c     *corpus
	seed  int64
	spawn spawner
	tmp   string  // a directory of the workload's own, removed by the runner
	tr    *tracer // nil unless this is the traced window
}

// measurement is what one measured window produced. The runner turns it into
// the end-to-end metrics every workload shares: the median of rates is the
// throughput, lat gives the latency median and tail, and serverCPU over units
// the CPU cost.
type measurement struct {
	tally
	elapsed time.Duration
	units   int // primary operations' units: records, or queries on the dashboards
	// rates are the units per second of each slice of the window (each cycle
	// on durable-collector).
	rates     []float64
	lat       latencies // primary latency, ms
	serverCPU float64   // CPU seconds the measured server used meanwhile
	late      latencies // open-loop lateness, ms
	// extra are the end-to-end metrics only this workload has.
	extra map[string]metric
	// layer are per-layer counters that depend on the workload; the traced
	// run adds them to the workload-independent layer timings.
	layer map[string]metric
	// notes are observations worth printing that are not failures.
	notes []string
}

// session is one set-up instance of a workload: servers running, corpus
// preloaded.
type session interface {
	// warm drives the workload's traffic for d without recording anything.
	warm(d time.Duration)
	// measure runs the measured window. d is its length for the workloads
	// that run on the clock, and scales the fixed work of the one that does
	// not.
	measure(d time.Duration, tr *tracer) *measurement
	// verify compares the served state with the reference study and
	// returns how many checks it made and which failed.
	verify() (checks int, errs []error)
	// peakRSSMB and stderr describe the measured server.
	peakRSSMB() float64
	stderr() string
	close()
}

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// unit is what throughput_per_s and serve_cpu_s_per_mop count.
	unit string
	// latency is what latency_p50_ms and latency_tail_ms time.
	latency string
	// tail is the percentile latency_tail_ms reports, chosen so the
	// workload's design rate leaves at least ten samples beyond it in a
	// 10 s window.
	tail float64
	// paced workloads feed on a schedule, so their throughput is the
	// schedule's and is not scaled to the reference pace; timerLatency marks
	// a latency a timer sets (the edge's push interval), likewise unscaled.
	paced, timerLatency bool
	setup               func(e *env) (session, error)
}

var workloads = []workload{
	{
		name: "bulk-replay",
		why: "2 closed-loop feeders replay TLSB streams of 32 frames over raw TCP into a log-less collector: " +
			"decode is cheapest here, so Add, the merge queue and MergeShard carry the load",
		unit: "records", latency: "stream first byte to ack", tail: 95,
		setup: setupBulkReplay,
	},
	{
		name: "durable-collector",
		why: "2 closed-loop feeders POST TSV streams to a collector with -out and snapshots that is SIGKILLed and " +
			"restarted 5 times: TSV parse, log tee, snapshot writes and crash recovery, which bulk-replay skips",
		unit: "records", latency: "stream POST to ack", tail: 95,
		setup: setupDurableCollector,
	},
	{
		name: "dashboard-static",
		why: "2 closed-loop clients POST /query at a frozen study, 80% from 16 hot texts and 20% never-repeated ones: " +
			"cache hit and compiled miss with no frame rebuilds, the bypass for frame and ingest work",
		unit: "queries", latency: "query request to last body byte", tail: 99,
		setup: func(e *env) (session, error) { return setupDashboard(e, false) },
	},
	{
		name: "dashboard-live",
		why: "the same mix from 1 client every 4.3 ms while a feeder bumps the generation every 5 ms: " +
			"each bump strands the cache and the next query rebuilds the frame under the lock the merge loop wants",
		unit: "queries", latency: "query due time to last body byte", tail: 95,
		paced: true,
		setup: func(e *env) (session, error) { return setupDashboard(e, true) },
	},
	{
		name: "edge-core",
		why: "1 feeder POSTs a TLSB stream every 47 ms to an edge that pushes deltas to a core every 100 ms; 1 poller " +
			"reads the core's union: the only workload where the delta codec, the Pusher and /merge do work",
		unit: "records", latency: "edge ack to visible at the core", tail: 95,
		paced: true, timerLatency: true,
		setup: setupEdgeCore,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mergeAcks brings the reference study level with what the feeders had
// acknowledged, and forgets the counts.
func mergeAcks(ref *reference, feeders ...*feeder) error {
	for _, f := range feeders {
		if err := ref.merge(f.acks); err != nil {
			return err
		}
		f.acks = map[chunk]int{}
	}
	return nil
}

// healthCounters reads the /healthz gauges the per-layer metrics report.
type healthCounters struct {
	Shed             float64 `json:"shed"`
	SnapshotsWritten float64 `json:"snapshots_written"`
	IngestQueue      struct {
		Depth    float64 `json:"depth"`
		ShedFull float64 `json:"shed_full"`
	} `json:"ingest_queue"`
	QueryCache struct {
		Evictions float64 `json:"evictions"`
	} `json:"query_cache"`
	Federation struct {
		Edge struct {
			DeltasShipped  float64 `json:"deltas_shipped"`
			UpstreamErrors float64 `json:"upstream_errors"`
		} `json:"edge"`
	} `json:"federation"`
}

func (h healthCounters) layer(into map[string]metric) {
	into["service.snapshots_written"] = metric{Value: h.SnapshotsWritten, Unit: "count"}
	into["service.queue_shed"] = metric{Value: h.Shed + h.IngestQueue.ShedFull, Unit: "count"}
	into["analysis.cache_evictions"] = metric{Value: h.QueryCache.Evictions, Unit: "count"}
	into["federation.deltas_shipped"] = metric{Value: h.Federation.Edge.DeltasShipped, Unit: "count"}
	into["federation.upstream_errors"] = metric{Value: h.Federation.Edge.UpstreamErrors, Unit: "count"}
}

// queueSampler polls /healthz for the merge queue's depth while a traced
// window is open. It is the one extra connection the traced run allows
// itself; end-to-end runs never start it.
func queueSampler(base string, stop <-chan struct{}) (maxDepth func() float64) {
	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl := newClient()
		defer cl.close()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var h healthCounters
				if cl.getJSON(base+"/healthz", &h) == nil && uint64(h.IngestQueue.Depth) > peak.Load() {
					peak.Store(uint64(h.IngestQueue.Depth))
				}
			}
		}
	}()
	return func() float64 {
		<-done
		return float64(peak.Load())
	}
}

// ingestWindow runs closed-loop feeders against h until stop, and folds what
// they recorded into one measurement. d is the window's length when stop is
// a deadline, 0 when the work is fixed and the whole run is one rate.
func ingestWindow(h host, tr *tracer, d time.Duration, stop func() bool, feeders ...*feeder) *measurement {
	m := &measurement{layer: map[string]metric{}}
	wins := make([]window, len(feeders))
	gens := make([]func(), len(feeders))
	for i, f := range feeders {
		gens[i] = func() { f.closedLoop(stop, &wins[i], tr) }
	}
	var depth func() float64
	sampling := make(chan struct{})
	if tr != nil {
		depth = queueSampler(h.HTTP(), sampling)
	}
	before := tallies(feeders)
	cpu0, t0 := h.CPUSeconds(), time.Now()
	together(gens...)
	m.elapsed, m.serverCPU = time.Since(t0), h.CPUSeconds()-cpu0
	close(sampling)
	if depth != nil {
		m.layer["service.queue_depth_max"] = metric{Value: depth(), Unit: "count"}
	}
	for i := range wins {
		m.units += wins[i].units
		m.lat = append(m.lat, wins[i].lat...)
	}
	if d > 0 {
		m.rates = sliceRates(t0, d, wins...)
	} else if m.elapsed > 0 {
		m.rates = []float64{float64(m.units) / m.elapsed.Seconds()}
	}
	m.tally = tallies(feeders)
	m.attempted -= before.attempted
	m.failed -= before.failed
	return m
}

func tallies(feeders []*feeder) tally {
	var t tally
	for _, f := range feeders {
		t.absorb(f.tally)
	}
	return t
}

// --- bulk-replay ---

type bulkSession struct {
	e       *env
	h       host
	ref     *reference
	cl      *client
	feeders []*feeder
}

func setupBulkReplay(e *env) (session, error) {
	h, err := e.spawn(serveConfig{TCP: true})
	if err != nil {
		return nil, err
	}
	s := &bulkSession{e: e, h: h, ref: newReference(e.c), cl: newClient()}
	send := func(part chunk, _ uint64) (ack, time.Time, error) {
		return ingestTCP(h.TCP(), e.c.tlsbBody(part), part.len())
	}
	if _, _, err := send(e.c.all(), 0); err != nil {
		s.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := s.ref.merge(map[chunk]int{e.c.all(): 1}); err != nil {
		s.close()
		return nil, err
	}
	parts := e.c.streams(e.c.sc.Frame * e.c.sc.BulkFrames)
	for i := 0; i < 2; i++ {
		s.feeders = append(s.feeders, &feeder{parts: parts, next: i, step: 2, kind: opIngestTLSB,
			send: send, acks: map[chunk]int{}})
	}
	return s, nil
}

func (s *bulkSession) warm(d time.Duration) {
	ingestWindow(s.h, nil, d, until(time.Now().Add(d)), s.feeders...)
}

func (s *bulkSession) measure(d time.Duration, tr *tracer) *measurement {
	m := ingestWindow(s.h, tr, d, until(time.Now().Add(d)), s.feeders...)
	var hc healthCounters
	if err := s.cl.getJSON(s.h.HTTP()+"/healthz", &hc); err != nil {
		m.fail(err)
	}
	hc.layer(m.layer)
	return m
}

func (s *bulkSession) verify() (int, []error) {
	if err := mergeAcks(s.ref, s.feeders...); err != nil {
		return 1, []error{err}
	}
	return s.ref.check(s.cl, s.h.HTTP())
}

func (s *bulkSession) peakRSSMB() float64 { return s.h.PeakRSSMB() }
func (s *bulkSession) stderr() string     { return s.h.Stderr() }
func (s *bulkSession) close()             { s.cl.close(); s.h.Close() }

// --- durable-collector ---

// durableCycles is how many times the collector is killed and restarted; the
// recovery time reported is the median of that many restarts.
const durableCycles = 5

// maxLostRecords bounds what a SIGKILL may cost: the log writer's 64 KiB
// buffer holds a few hundred records that were acknowledged but not yet
// written.
const maxLostRecords = 1024

type durableSession struct {
	e       *env
	cfg     serveConfig
	h       host
	ref     *reference
	cl      *client
	clients []*client
	feeders []*feeder
}

func setupDurableCollector(e *env) (session, error) {
	dir, err := os.MkdirTemp(e.tmp, "durable-")
	if err != nil {
		return nil, err
	}
	cfg := serveConfig{Out: filepath.Join(dir, "conn.log"), SnapDir: filepath.Join(dir, "snaps")}
	h, err := e.spawn(cfg)
	if err != nil {
		return nil, err
	}
	s := &durableSession{e: e, cfg: cfg, h: h, ref: newReference(e.c), cl: newClient()}
	if _, err := s.cl.ingestHTTP(h.HTTP(), false, e.c.tsvBody(e.c.all()), e.c.all().len(), 0); err != nil {
		s.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := s.ref.merge(map[chunk]int{e.c.all(): 1}); err != nil {
		s.close()
		return nil, err
	}
	parts := e.c.streams(e.c.sc.Stream)
	for i := 0; i < 2; i++ {
		cl := newClient()
		s.clients = append(s.clients, cl)
		s.feeders = append(s.feeders, &feeder{parts: parts, next: i, step: 2, kind: opIngestTSV, tee: true,
			acks: map[chunk]int{},
			send: func(part chunk, id uint64) (ack, time.Time, error) {
				t0 := time.Now()
				// s.h changes at every restart; the feeder follows it.
				a, err := cl.ingestHTTP(s.h.HTTP(), false, e.c.tsvBody(part), part.len(), id)
				return a, t0, err
			}})
	}
	return s, nil
}

func (s *durableSession) warm(d time.Duration) {
	ingestWindow(s.h, nil, d, until(time.Now().Add(d)), s.feeders...)
}

// measure does fixed work, not fixed time: each cycle ingests the same
// number of streams, so the log a restart has to scan is the same size on
// every commit and recovery_s stays comparable when ingest gets faster.
func (s *durableSession) measure(d time.Duration, tr *tracer) *measurement {
	total := &measurement{layer: map[string]metric{}, extra: map[string]metric{}}
	perCycle := max(2, int(float64(s.e.c.sc.CycleStreams)*d.Seconds()/20+0.5))
	var recoveries []float64
	var lost, depth float64
	var last healthCounters
	for cycle := 0; cycle < durableCycles; cycle++ {
		var left atomic.Int64
		left.Store(int64(perCycle))
		m := ingestWindow(s.h, tr, 0, func() bool { return left.Add(-1) < 0 }, s.feeders...)
		total.absorb(m.tally)
		total.elapsed += m.elapsed
		total.units += m.units
		total.rates = append(total.rates, m.rates...)
		total.lat = append(total.lat, m.lat...)
		total.serverCPU += m.serverCPU
		depth = max(depth, m.layer["service.queue_depth_max"].Value)
		if err := s.cl.getJSON(s.h.HTTP()+"/healthz", &last); err != nil {
			total.fail(err)
		}
		took, lostNow, drifted, err := s.crashAndRestart(tr)
		total.attempted++
		if drifted && len(total.notes) == 0 {
			total.notes = append(total.notes, fmt.Sprintf(
				"cycle %d: the recovered study holds the acknowledged number of records but not the acknowledged records "+
					"(two concurrent streams interleave in the log, shards do not; ROADMAP item 4a)", cycle))
		}
		if err != nil {
			total.fail(fmt.Errorf("cycle %d: %w", cycle, err))
			break
		}
		recoveries = append(recoveries, took.Seconds())
		lost += lostNow
	}
	last.layer(total.layer)
	total.layer["service.queue_depth_max"] = metric{Value: depth, Unit: "count"}
	total.layer["service.acked_lost_records"] = metric{Value: lost, Unit: "count"}
	total.extra["recovery_s"] = metric{Value: median(recoveries), Unit: "s", N: len(recoveries), Note: "p50"}
	return total
}

// crashAndRestart kills the collector with nothing in flight, rebuilds the
// directory's state in process — which becomes the reference from here on —
// restarts the collector with the same flags, and checks that it serves
// exactly that state. It returns exec → first 200 on /healthz.
func (s *durableSession) crashAndRestart(tr *tracer) (took time.Duration, lost float64, drifted bool, err error) {
	if err := mergeAcks(s.ref, s.feeders...); err != nil {
		return 0, 0, false, err
	}
	acked := s.ref.generation()
	ackedScalars, err := s.ref.scalarsBody()
	if err != nil {
		return 0, 0, false, err
	}
	s.h.Kill()
	st, info, err := service.RecoverStudy(s.cfg.SnapDir, s.cfg.Out, func(string, ...any) {})
	if err != nil {
		return 0, 0, false, fmt.Errorf("reference recovery: %w", err)
	}
	s.ref.adopt(st)
	if info.Records() > acked || acked-info.Records() > maxLostRecords {
		return 0, 0, false, fmt.Errorf("recovered %d records of %d acknowledged (at most %d may be lost)",
			info.Records(), acked, maxLostRecords)
	}
	if info.Records() == acked {
		recovered, err := s.ref.scalarsBody()
		drifted = err == nil && !sameJSON(recovered, ackedScalars)
	}
	id := tr.begin()
	t0 := time.Now()
	h, err := s.e.spawn(s.cfg)
	if err != nil {
		return 0, 0, drifted, err
	}
	s.h = h
	if _, err := s.cl.get(h.HTTP() + "/healthz"); err != nil {
		return 0, 0, drifted, err
	}
	end := time.Now()
	tr.finish("op.restart", t0, end, opRecord{id: id, kind: opRestart})
	for _, f := range s.feeders {
		f.lastGen = 0 // the lost tail may put the restarted generation below the last ack
	}
	if _, errs := s.ref.check(s.cl, h.HTTP()); len(errs) > 0 {
		return 0, 0, drifted, fmt.Errorf("restarted collector differs from the recovered directory: %v", errs[0])
	}
	return end.Sub(t0), float64(acked - info.Records()), drifted, nil
}

func (s *durableSession) verify() (int, []error) {
	if err := mergeAcks(s.ref, s.feeders...); err != nil {
		return 1, []error{err}
	}
	return s.ref.check(s.cl, s.h.HTTP())
}

func (s *durableSession) peakRSSMB() float64 { return s.h.PeakRSSMB() }
func (s *durableSession) stderr() string     { return s.h.Stderr() }

func (s *durableSession) close() {
	s.cl.close()
	for _, cl := range s.clients {
		cl.close()
	}
	s.h.Close()
}

// --- dashboard-static and dashboard-live ---

// dashboard-live runs on two schedules. The feeder sends one stream every
// 5 ms: 200 generation bumps a second. The dashboard asks one query every
// 4.3 ms, about 233 a second, which leaves the server mostly idle, so the
// latency is service time and not queueing; four queries in five then find a
// generation they have not seen and pay the frame rebuild. The two periods
// share no short common multiple, so queries sweep every phase of the bump
// cycle instead of locking onto one.
const (
	livePeriod      = 5 * time.Millisecond
	liveQueryPeriod = 4300 * time.Microsecond
)

type dashboardSession struct {
	e      *env
	h      host
	ref    *reference
	cl     *client
	askers []*asker
	feeder *feeder // dashboard-live only
	fcl    *client
}

func setupDashboard(e *env, live bool) (session, error) {
	h, err := e.spawn(serveConfig{})
	if err != nil {
		return nil, err
	}
	s := &dashboardSession{e: e, h: h, ref: newReference(e.c), cl: newClient()}
	if _, err := s.cl.ingestHTTP(h.HTTP(), true, e.c.tlsbBody(e.c.all()), e.c.all().len(), 0); err != nil {
		s.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := s.ref.merge(map[chunk]int{e.c.all(): 1}); err != nil {
		s.close()
		return nil, err
	}
	clients := 2
	if live {
		clients = 1
		s.fcl = newClient()
		s.feeder = &feeder{parts: e.c.streams(e.c.sc.LiveStream), step: 1, kind: opIngestTSV, acks: map[chunk]int{},
			send: func(part chunk, id uint64) (ack, time.Time, error) {
				t0 := time.Now()
				a, err := s.fcl.ingestHTTP(h.HTTP(), false, e.c.tsvBody(part), part.len(), id)
				return a, t0, err
			}}
	}
	for i := 0; i < clients; i++ {
		s.askers = append(s.askers, &asker{cl: newClient(), base: h.HTTP, mix: newQueryMix(e.seed, i, 3)})
	}
	return s, nil
}

func (s *dashboardSession) warm(d time.Duration) { s.drive(d, nil, nil) }

func (s *dashboardSession) measure(d time.Duration, tr *tracer) *measurement {
	m := &measurement{layer: map[string]metric{}, extra: map[string]metric{}}
	s.drive(d, m, tr)
	var hc healthCounters
	if err := s.cl.getJSON(s.h.HTTP()+"/healthz", &hc); err != nil {
		m.fail(err)
	}
	hc.layer(m.layer)
	return m
}

// drive runs the query clients — and on dashboard-live the open-loop feeder
// beside them — for d. With m nil nothing is recorded.
func (s *dashboardSession) drive(d time.Duration, m *measurement, tr *tracer) {
	start := time.Now()
	deadline := start.Add(d)
	wins := make([]window, len(s.askers))
	var fwin window
	var gens []func()
	for i, a := range s.askers {
		w := &wins[i]
		if m == nil {
			w = nil
		}
		if s.feeder != nil {
			gens = append(gens, func() { a.openLoop(start, liveQueryPeriod, deadline, w, tr) })
		} else {
			gens = append(gens, func() { a.closedLoop(until(deadline), w, tr) })
		}
	}
	var before tally
	for _, a := range s.askers {
		before.absorb(a.tally)
		a.hits = 0
	}
	if s.feeder != nil {
		before.absorb(s.feeder.tally)
		w := &fwin
		if m == nil {
			w = nil
		}
		gens = append(gens, func() { s.feeder.openLoop(start, livePeriod, deadline, w, tr) })
	}
	cpu0 := s.h.CPUSeconds()
	together(gens...)
	if m == nil {
		return
	}
	m.elapsed, m.serverCPU = time.Since(start), s.h.CPUSeconds()-cpu0
	hits := 0
	for i, a := range s.askers {
		m.absorb(a.tally)
		m.units += wins[i].units
		m.lat = append(m.lat, wins[i].lat...)
		hits += a.hits
	}
	m.rates = sliceRates(start, d, wins...)
	if s.feeder != nil {
		// The schedule fixes every slice's count; report what was answered.
		m.rates = []float64{float64(m.units) / m.elapsed.Seconds()}
		m.late = wins[0].late
	}
	if m.units > 0 {
		m.layer["core.cache_hit_ratio"] = metric{Value: float64(hits) / float64(m.units), Unit: "ratio"}
	}
	if s.feeder != nil {
		m.absorb(s.feeder.tally)
		m.late = append(m.late, fwin.late...)
		p50, tail := fwin.lat.summary(99)
		m.extra["ingest_records_per_s"] = metric{Value: float64(fwin.units) / m.elapsed.Seconds(), Unit: "1/s", N: len(fwin.lat)}
		m.extra["ingest_ack_p50_ms"] = p50
		m.extra["ingest_ack_tail_ms"] = tail
	}
	m.attempted -= before.attempted
	m.failed -= before.failed
}

func (s *dashboardSession) verify() (int, []error) {
	if s.feeder != nil {
		if err := mergeAcks(s.ref, s.feeder); err != nil {
			return 1, []error{err}
		}
	}
	return s.ref.check(s.cl, s.h.HTTP())
}

func (s *dashboardSession) peakRSSMB() float64 { return s.h.PeakRSSMB() }
func (s *dashboardSession) stderr() string     { return s.h.Stderr() }

func (s *dashboardSession) close() {
	s.cl.close()
	if s.fcl != nil {
		s.fcl.close()
	}
	for _, a := range s.askers {
		a.cl.close()
	}
	s.h.Close()
}

// --- edge-core ---

const (
	pushInterval = 100 * time.Millisecond
	pollPeriod   = 2 * time.Millisecond
	// edgePeriod is the edge feeder's open-loop schedule: a 1024-record
	// stream every 47 ms is about 21 800 records/s, which an edge sustains
	// with room to spare, and 21 lag samples a second. 47 shares no factor
	// with the 100 ms push interval, so the acks sweep every phase of the
	// push cycle; at 50 ms they would lock onto two phases picked by chance
	// at start-up, and the median lag with them.
	edgePeriod = 47 * time.Millisecond
	// convergeWithin is how long the core may take to show the last ack.
	convergeWithin = 5 * time.Second
)

type edgeSession struct {
	e          *env
	core, edge host
	ref        *reference
	cl, pcl    *client
	fcl        *client
	feeder     *feeder

	mu      sync.Mutex
	pending []edgeAck // acks the core has not shown yet, in generation order
}

// edgeAck is one stream acknowledged by the edge at generation gen.
type edgeAck struct {
	gen uint64
	at  time.Time
}

func setupEdgeCore(e *env) (session, error) {
	dir, err := os.MkdirTemp(e.tmp, "edge-")
	if err != nil {
		return nil, err
	}
	core, err := e.spawn(serveConfig{Studies: "eu", Union: "global"})
	if err != nil {
		return nil, err
	}
	edge, err := e.spawn(serveConfig{
		Out: filepath.Join(dir, "conn.log"), SnapDir: filepath.Join(dir, "snaps"),
		Upstream: core.HTTP() + "/studies/eu", PushSource: "vantage-eu", PushInterval: pushInterval,
	})
	if err != nil {
		core.Close()
		return nil, err
	}
	s := &edgeSession{e: e, core: core, edge: edge, ref: newReference(e.c),
		cl: newClient(), pcl: newClient(), fcl: newClient()}
	s.feeder = &feeder{parts: e.c.streams(e.c.sc.EdgeStream), step: 1, kind: opIngestTLSB, tee: true,
		acks: map[chunk]int{},
		send: func(part chunk, id uint64) (ack, time.Time, error) {
			t0 := time.Now()
			a, err := s.fcl.ingestHTTP(edge.HTTP(), true, e.c.tlsbBody(part), part.len(), id)
			return a, t0, err
		}}
	// The preload goes through the edge, so the core's union holds it too.
	a, err := s.fcl.ingestHTTP(edge.HTTP(), true, e.c.tlsbBody(e.c.all()), e.c.all().len(), 0)
	if err == nil {
		err = s.ref.merge(map[chunk]int{e.c.all(): 1})
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	s.noteAck(a.Generation, time.Now())
	s.feeder.onAck = s.noteAck
	if left := s.poll(time.Now().Add(convergeWithin), nil, true); left > 0 {
		s.close()
		return nil, fmt.Errorf("preload did not reach the core within %v", convergeWithin)
	}
	return s, nil
}

func (s *edgeSession) noteAck(gen uint64, at time.Time) {
	s.mu.Lock()
	s.pending = append(s.pending, edgeAck{gen, at})
	s.mu.Unlock()
}

// poll reads the core's union generation every pollPeriod until the
// deadline — or, with untilEmpty, until nothing is pending. Each pending ack
// the core has caught up with yields one lag sample: first poll showing
// generation ≥ the ack's, minus the ack's time. It returns how many acks are
// still pending.
func (s *edgeSession) poll(deadline time.Time, w *window, untilEmpty bool) (pending int) {
	url := s.core.HTTP() + "/studies/global"
	for next := time.Now(); ; next = next.Add(pollPeriod) {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		var info struct {
			Generation uint64 `json:"generation"`
		}
		err := s.pcl.getJSON(url, &info)
		seen := time.Now()
		s.mu.Lock()
		for err == nil && len(s.pending) > 0 && s.pending[0].gen <= info.Generation {
			if w != nil {
				w.lat = append(w.lat, max(0, msSince(s.pending[0].at, seen)))
			}
			s.pending = s.pending[1:]
		}
		pending = len(s.pending)
		s.mu.Unlock()
		if !seen.Before(deadline) || (untilEmpty && pending == 0) {
			return pending
		}
	}
}

func (s *edgeSession) warm(d time.Duration) { s.drive(d, nil, nil) }

func (s *edgeSession) measure(d time.Duration, tr *tracer) *measurement {
	m := &measurement{layer: map[string]metric{}, extra: map[string]metric{}}
	s.drive(d, m, tr)
	return m
}

func (s *edgeSession) drive(d time.Duration, m *measurement, tr *tracer) {
	start := time.Now()
	deadline := start.Add(d)
	before := s.feeder.tally
	var fwin, pwin window
	fw, pw := &fwin, &pwin
	if m == nil {
		fw, pw = nil, nil
	}
	cpu0 := s.edge.CPUSeconds()
	together(
		func() { s.feeder.openLoop(start, edgePeriod, deadline, fw, tr) },
		func() { s.poll(deadline, pw, false) },
	)
	elapsed, cpu := time.Since(start), s.edge.CPUSeconds()-cpu0
	// Convergence: every ack must become visible at the core soon after the
	// feeder stops; those samples count as lag like any other.
	left := s.poll(time.Now().Add(convergeWithin), pw, true)
	if m == nil {
		return
	}
	m.tally = s.feeder.tally
	m.attempted -= before.attempted
	m.failed -= before.failed
	if left > 0 {
		m.fail(fmt.Errorf("%d acks not visible at the core %v after the last one", left, convergeWithin))
	}
	m.elapsed, m.serverCPU, m.units, m.lat, m.late = elapsed, cpu, fwin.units, pwin.lat, fwin.late
	// The schedule fixes every slice's count; report what was delivered.
	m.rates = []float64{float64(fwin.units) / elapsed.Seconds()}
	p50, tail := fwin.lat.summary(95)
	m.extra["ingest_ack_p50_ms"] = p50
	m.extra["ingest_ack_tail_ms"] = tail
	var hc healthCounters
	if err := s.cl.getJSON(s.edge.HTTP()+"/healthz", &hc); err != nil {
		m.fail(err)
	}
	hc.layer(m.layer)
	if hc.Federation.Edge.UpstreamErrors > 0 {
		m.fail(fmt.Errorf("the edge reports %v upstream errors", hc.Federation.Edge.UpstreamErrors))
	}
}

func (s *edgeSession) verify() (int, []error) {
	if err := mergeAcks(s.ref, s.feeder); err != nil {
		return 1, []error{err}
	}
	n, errs := s.ref.check(s.cl, s.edge.HTTP())
	n2, errs2 := s.ref.check(s.cl, s.core.HTTP()+"/studies/global")
	return n + n2, append(errs, errs2...)
}

func (s *edgeSession) peakRSSMB() float64 { return s.edge.PeakRSSMB() }
func (s *edgeSession) stderr() string     { return s.edge.Stderr() + s.core.Stderr() }

func (s *edgeSession) close() {
	for _, cl := range []*client{s.cl, s.pcl, s.fcl} {
		cl.close()
	}
	s.edge.Close() // first: an in-process edge's final push needs the core
	s.core.Close()
}
