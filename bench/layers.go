package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/notary"
	"tlsage/internal/service"
)

// stages times single calls into the layers' public functions on a shadow
// study that holds one full pass of the corpus, so months, fingerprints and
// frame width are at their steady size. The traced run uses it twice: in
// loops, for the per-layer metrics, and once per sampled operation, for the
// replayed child spans.
type stages struct {
	c     *corpus
	study *core.Study
	cache *analysis.QueryCache
	mix   *queryMix         // unique texts for miss-path timings
	small *notary.Aggregate // see smallShard
	recs  map[chunk][]*notary.Record
}

func newStages(c *corpus, seed int64) (*stages, error) {
	s := &stages{
		c:     c,
		study: core.NewLiveStudy(),
		cache: analysis.NewQueryCache(serveCacheEntries, serveCacheBytes),
		// Client index 2 of 3: a walk of the unique-text permutation the
		// two measured clients never take.
		mix:  newQueryMix(seed, 2, 3),
		recs: map[chunk][]*notary.Record{},
	}
	s.study.SetQueryCache(s.cache, "shadow")
	sh := s.study.NewShard()
	if _, _, err := notary.ReadBatches(bytes.NewReader(c.tlsb), sh); err != nil {
		return nil, err
	}
	if err := s.study.MergeShard(sh); err != nil {
		return nil, err
	}
	return s, nil
}

var nullSink = notary.SinkFunc(func(*notary.Record) error { return nil })

func (s *stages) tsvDecode(body []byte) (time.Duration, error) {
	t0 := time.Now()
	err := notary.ReadLog(bytes.NewReader(body), nullSink)
	return time.Since(t0), err
}

func (s *stages) tlsbDecode(body []byte) (time.Duration, error) {
	t0 := time.Now()
	_, _, err := notary.ReadBatches(bytes.NewReader(body), nullSink)
	return time.Since(t0), err
}

// records decodes part once, outside any timing.
func (s *stages) records(part chunk) ([]*notary.Record, error) {
	if recs, ok := s.recs[part]; ok {
		return recs, nil
	}
	recs, err := s.c.records(part)
	if err == nil {
		s.recs[part] = recs
	}
	return recs, err
}

// add folds part's records into a fresh shard of the shadow study.
func (s *stages) add(part chunk) (time.Duration, *notary.Aggregate, error) {
	recs, err := s.records(part)
	if err != nil {
		return 0, nil, err
	}
	sh := s.study.NewShard()
	t0 := time.Now()
	for _, r := range recs {
		sh.Add(r)
	}
	return time.Since(t0), sh, nil
}

func (s *stages) merge(sh *notary.Aggregate) (time.Duration, error) {
	t0 := time.Now()
	err := s.study.MergeShard(sh)
	return time.Since(t0), err
}

// tee re-serialises part the way the -out log sink does.
func (s *stages) tee(part chunk) (time.Duration, error) {
	recs, err := s.records(part)
	if err != nil {
		return 0, err
	}
	lw := notary.NewLogWriter(io.Discard)
	t0 := time.Now()
	for _, r := range recs {
		if err := lw.Observe(r); err != nil {
			return 0, err
		}
	}
	err = lw.Close()
	return time.Since(t0), err
}

// frameRebuild is Study.Frame after the generation moved.
func (s *stages) frameRebuild() (time.Duration, *analysis.Frame, error) {
	t0 := time.Now()
	f, err := s.study.Frame()
	return time.Since(t0), f, err
}

// queryStages are the miss path's steps, timed one by one.
type queryStages struct {
	parse, compile, eval, marshal, cachePut, cacheGet time.Duration
}

func (s *stages) query(text string, f *analysis.Frame) (queryStages, error) {
	var q queryStages
	t0 := time.Now()
	e, err := analysis.ParseQuery(text)
	q.parse = time.Since(t0)
	if err != nil {
		return q, err
	}
	t0 = time.Now()
	p, err := analysis.Compile(e, f)
	q.compile = time.Since(t0)
	if err != nil {
		return q, err
	}
	t0 = time.Now()
	res := p.Eval()
	q.eval = time.Since(t0)
	t0 = time.Now()
	body, err := res.EncodeJSONBody()
	q.marshal = time.Since(t0)
	if err != nil {
		return q, err
	}
	key := e.String()
	t0 = time.Now()
	s.cache.Put("stages", 0, f.Generation(), key, res, body)
	q.cachePut = time.Since(t0)
	t0 = time.Now()
	_, _, hit := s.cache.Get("stages", 0, f.Generation(), key)
	q.cacheGet = time.Since(t0)
	if !hit {
		return q, fmt.Errorf("query cache lost %q immediately after the put", key)
	}
	return q, nil
}

// --- per-layer metrics ---

// layerReps is how many times each micro-measurement repeats; the median is
// reported.
const layerReps = 15

func medianDur(n int, fn func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// allocsPer runs fn reps times and reports heap allocations and bytes per
// unit of work. Nothing else runs while the layers are measured, so the
// process-wide counters are this goroutine's.
func allocsPer(reps, units int, fn func() error) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(reps * units)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

func perRecordNS(d time.Duration, records int) float64 { return float64(d) / float64(records) }
func usOf(d time.Duration) float64                     { return float64(d) / 1e3 }
func msOf(d time.Duration) float64                     { return float64(d) / 1e6 }

// deltaRecords sizes the delta the federation metrics encode: about what an
// edge accumulates in one 100 ms push interval at its measured ingest rate.
func (sc scale) deltaRecords() int { return 8 * sc.Stream }

// sample picks the streams the layers are timed on: one collector-sized and
// one live-feeder-sized, both from three quarters of the way through the
// study window. The early months carry no fingerprints and few extensions,
// so a stream from the start of the corpus would flatter every layer.
func (s *stages) sample() (big, small chunk) {
	streams := s.c.streams(s.c.sc.Stream)
	big = streams[len(streams)*3/4]
	return big, chunk{big.lo, big.lo + s.c.sc.LiveStream}
}

// measureLayers times every layer's public entry points on the shadow study.
// The results do not depend on the workload; counters that do are added by
// the caller.
func (s *stages) measureLayers(tmp string) (map[string]metric, error) {
	m := map[string]metric{}
	big, small := s.sample()

	// notary: the two decoders, Add, the TSV tee, the snapshot codec.
	tsvBody, tlsbBody := s.c.tsvBody(big), s.c.tlsbBody(big)
	d, err := medianDur(layerReps, func() (time.Duration, error) { return s.tsvDecode(tsvBody) })
	if err != nil {
		return nil, err
	}
	tsvDecode := d
	m["notary.tsv_decode_ns_per_record"] = metric{Value: perRecordNS(d, big.len()), Unit: "ns", N: layerReps}
	a, b, err := allocsPer(layerReps, big.len(), func() error { _, err := s.tsvDecode(tsvBody); return err })
	if err != nil {
		return nil, err
	}
	m["notary.tsv_allocs_per_record"] = metric{Value: a, Unit: "count"}
	m["notary.tsv_bytes_per_record"] = metric{Value: b, Unit: "B"}
	if d, err = medianDur(layerReps, func() (time.Duration, error) { return s.tlsbDecode(tlsbBody) }); err != nil {
		return nil, err
	}
	m["notary.tlsb_decode_ns_per_record"] = metric{Value: perRecordNS(d, big.len()), Unit: "ns", N: layerReps}
	if a, b, err = allocsPer(layerReps, big.len(), func() error { _, err := s.tlsbDecode(tlsbBody); return err }); err != nil {
		return nil, err
	}
	m["notary.tlsb_allocs_per_record"] = metric{Value: a, Unit: "count"}
	m["notary.tlsb_bytes_per_record"] = metric{Value: b, Unit: "B"}
	var bigShard *notary.Aggregate
	if d, err = medianDur(layerReps, func() (d time.Duration, err error) {
		d, bigShard, err = s.add(big)
		return d, err
	}); err != nil {
		return nil, err
	}
	addDur := d
	m["notary.add_ns_per_record"] = metric{Value: perRecordNS(d, big.len()), Unit: "ns", N: layerReps}
	_, smallShard, err := s.add(small)
	if err != nil {
		return nil, err
	}
	if d, err = medianDur(layerReps, func() (time.Duration, error) { return s.tee(big) }); err != nil {
		return nil, err
	}
	m["notary.tsv_encode_ns_per_record"] = metric{Value: perRecordNS(d, big.len()), Unit: "ns", N: layerReps}
	var snap []byte
	d, _ = medianDur(layerReps, func() (time.Duration, error) {
		t0 := time.Now()
		snap = notary.EncodeSnapshot(snap[:0], s.study.Aggregate())
		return time.Since(t0), nil
	})
	m["notary.snapshot_encode_ms"] = metric{Value: msOf(d), Unit: "ms", N: layerReps}
	m["notary.snapshot_bytes"] = metric{Value: float64(len(snap)), Unit: "B"}
	if d, err = medianDur(layerReps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := notary.DecodeSnapshot(snap)
		return time.Since(t0), err
	}); err != nil {
		return nil, err
	}
	m["notary.snapshot_decode_ms"] = metric{Value: msOf(d), Unit: "ms", N: layerReps}

	// core: shard merges at both stream sizes, then the frame they invalidate.
	if d, err = medianDur(layerReps, func() (time.Duration, error) { return s.merge(bigShard) }); err != nil {
		return nil, err
	}
	mergeDur := d
	m["core.merge_shard_us.4096"] = metric{Value: usOf(d), Unit: "us", N: layerReps}
	if d, err = medianDur(layerReps, func() (time.Duration, error) { return s.merge(smallShard) }); err != nil {
		return nil, err
	}
	m["core.merge_shard_us.256"] = metric{Value: usOf(d), Unit: "us", N: layerReps}
	if d, err = medianDur(layerReps, func() (time.Duration, error) {
		if _, err := s.merge(smallShard); err != nil {
			return 0, err
		}
		d, _, err := s.frameRebuild()
		return d, err
	}); err != nil {
		return nil, err
	}
	m["core.frame_rebuild_us"] = metric{Value: usOf(d), Unit: "us", N: layerReps}
	d, _ = medianDur(layerReps, func() (time.Duration, error) {
		t0 := time.Now()
		analysis.NewFrame(s.study.Aggregate())
		return time.Since(t0), nil
	})
	m["analysis.new_frame_us"] = metric{Value: usOf(d), Unit: "us", N: layerReps}

	// analysis: the miss path step by step over the hot texts, on a frame
	// that does not move.
	frame, err := s.study.Frame()
	if err != nil {
		return nil, err
	}
	var parse, compile, eval, marshal, put, get []float64
	for _, text := range hotQueries {
		q, err := s.query(text, frame)
		if err != nil {
			return nil, err
		}
		parse = append(parse, float64(q.parse))
		compile = append(compile, float64(q.compile))
		eval = append(eval, float64(q.eval))
		marshal = append(marshal, float64(q.marshal))
		put = append(put, float64(q.cachePut))
		get = append(get, float64(q.cacheGet))
	}
	nq := len(hotQueries)
	m["analysis.parse_us"] = metric{Value: median(parse) / 1e3, Unit: "us", N: nq}
	m["analysis.compile_us"] = metric{Value: median(compile) / 1e3, Unit: "us", N: nq}
	m["analysis.eval_us"] = metric{Value: median(eval) / 1e3, Unit: "us", N: nq}
	m["analysis.marshal_us"] = metric{Value: median(marshal) / 1e3, Unit: "us", N: nq}
	m["analysis.cache_put_ns"] = metric{Value: median(put), Unit: "ns", N: nq}
	m["analysis.cache_get_ns"] = metric{Value: median(get), Unit: "ns", N: nq}

	// core: the whole query path through Study.QueryInfoJSON. Hits repeat
	// one hot text; misses walk unique texts; bumped misses follow a merge,
	// so they pay the frame rebuild as well.
	hot := hotQueries[0]
	if _, _, _, _, err := s.study.QueryInfoJSON(hot); err != nil {
		return nil, err
	}
	timeQuery := func(text string, wantHit bool) (time.Duration, error) {
		t0 := time.Now()
		_, _, _, hit, err := s.study.QueryInfoJSON(text)
		d := time.Since(t0)
		if err == nil && hit != wantHit {
			err = fmt.Errorf("shadow query %q: hit=%v, want %v", text, hit, wantHit)
		}
		return d, err
	}
	if d, err = medianDur(layerReps, func() (time.Duration, error) { return timeQuery(hot, true) }); err != nil {
		return nil, err
	}
	m["core.query_hit_us"] = metric{Value: usOf(d), Unit: "us", N: layerReps}
	compilesBefore := s.study.PlanCompiles()
	if d, err = medianDur(layerReps, func() (time.Duration, error) { return timeQuery(s.mix.unique(), false) }); err != nil {
		return nil, err
	}
	m["core.query_miss_us"] = metric{Value: usOf(d), Unit: "us", N: layerReps}
	m["core.plan_compiles_per_query"] = metric{
		Value: float64(s.study.PlanCompiles()-compilesBefore) / layerReps, Unit: "count"}
	if d, err = medianDur(layerReps, func() (time.Duration, error) {
		if _, err := s.merge(smallShard); err != nil {
			return 0, err
		}
		return timeQuery(hot, false)
	}); err != nil {
		return nil, err
	}
	m["core.query_miss_bump_us"] = metric{Value: usOf(d), Unit: "us", N: layerReps}

	if err := s.serviceLayers(m, tmp, tsvDecode, addDur, mergeDur); err != nil {
		return nil, err
	}
	if err := s.federationLayers(m); err != nil {
		return nil, err
	}
	return m, nil
}

// serve runs one request through a handler in memory.
func serve(h http.Handler, method, path, ctype string, body []byte) (time.Duration, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(t0), rec
}

// serviceLayers measures the service package from outside: the handlers in
// memory (no socket), a snapshot write with its fsync and rename, and a
// recovery of a directory shaped like a crashed collector's.
func (s *stages) serviceLayers(m map[string]metric, tmp string, tsvDecode, addDur, mergeDur time.Duration) error {
	big, _ := s.sample()
	srv := service.NewServer(s.study,
		service.WithQueueBound(service.DefaultQueueBound),
		service.WithMaxInFlight(serveMaxInFlight),
		service.WithQueryCache(s.cache, "shadow"))
	defer srv.Close()
	h := srv.Handler()
	ingest := func(ctype string, body []byte) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			d, rec := serve(h, http.MethodPost, "/ingest", ctype, body)
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("in-memory ingest: status %d: %s", rec.Code, truncate(rec.Body.Bytes()))
			}
			return d, nil
		}
	}
	d, err := medianDur(layerReps, ingest(service.ContentTypeTSV, s.c.tsvBody(big)))
	if err != nil {
		return err
	}
	m["service.ingest_handler_ns_per_record.tsv"] = metric{Value: perRecordNS(d, big.len()), Unit: "ns", N: layerReps}
	m["service.ingest_self_share"] = metric{
		Value: float64(d-tsvDecode-addDur-mergeDur) / float64(d), Unit: "ratio"}
	if d, err = medianDur(layerReps, ingest(service.ContentTypeBatch, s.c.tlsbBody(big))); err != nil {
		return err
	}
	m["service.ingest_handler_ns_per_record.tlsb"] = metric{Value: perRecordNS(d, big.len()), Unit: "ns", N: layerReps}

	// The ingests above moved the generation: the first query is the miss,
	// its repeats are hits.
	query := func(text string, want string) func() (time.Duration, error) {
		body := append(strconv.AppendQuote([]byte(`{"query":`), text), '}')
		return func() (time.Duration, error) {
			d, rec := serve(h, http.MethodPost, "/query", "application/json", body)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
				return 0, fmt.Errorf("in-memory query %q: status %d, X-Cache %q, want %s",
					text, rec.Code, rec.Header().Get("X-Cache"), want)
			}
			return d, nil
		}
	}
	if _, err := s.study.Frame(); err != nil { // settle the frame so misses pay no rebuild
		return err
	}
	if d, err = medianDur(layerReps, func() (time.Duration, error) { return query(s.mix.unique(), "miss")() }); err != nil {
		return err
	}
	missDur := d
	m["service.query_handler_us.miss"] = metric{Value: usOf(d), Unit: "us", N: layerReps}
	hot := hotQueries[1]
	if _, err := query(hot, "miss")(); err != nil {
		return err
	}
	if d, err = medianDur(layerReps, query(hot, "hit")); err != nil {
		return err
	}
	m["service.query_handler_us.hit"] = metric{Value: usOf(d), Unit: "us", N: layerReps}
	m["service.query_self_us"] = metric{
		Value: usOf(missDur) - m["core.query_miss_us"].Value, Unit: "us"}

	snapDir := filepath.Join(tmp, "layer-snaps")
	const writes = 5 // each pays an fsync
	if d, err = medianDur(writes, func() (time.Duration, error) {
		t0 := time.Now()
		_, _, err := service.WriteStudySnapshot(snapDir, s.study, service.DefaultSnapshotKeep)
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	m["service.snapshot_write_ms"] = metric{Value: msOf(d), Unit: "ms", N: writes}
	return s.recoveryLayers(m, tmp)
}

// recoveryLayers builds what a killed durable collector leaves behind — a
// snapshot two thirds of the way through the corpus and the whole corpus in
// the un-truncated log — and times service.RecoverStudy on it.
func (s *stages) recoveryLayers(m map[string]metric, tmp string) error {
	dir := filepath.Join(tmp, "layer-recover")
	logPath := filepath.Join(dir, "conn.log")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := s.c.n
	part := core.NewLiveStudy()
	sh := part.NewShard()
	if err := notary.ReadLog(bytes.NewReader(s.c.tsvBody(chunk{0, 2 * n / 3})), sh); err != nil {
		return err
	}
	if err := part.MergeShard(sh); err != nil {
		return err
	}
	if _, _, err := service.WriteStudySnapshot(filepath.Join(dir, "snaps"), part, 1); err != nil {
		return err
	}
	if err := os.WriteFile(logPath, append([]byte(notary.Header()), s.c.tsv...), 0o644); err != nil {
		return err
	}
	const recoveries = 3
	d, err := medianDur(recoveries, func() (time.Duration, error) {
		t0 := time.Now()
		_, info, err := service.RecoverStudy(filepath.Join(dir, "snaps"), logPath, func(string, ...any) {})
		if err == nil && info.Records() != uint64(n) {
			err = fmt.Errorf("recovery rebuilt %d of %d records", info.Records(), n)
		}
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	m["service.recover_study_ms"] = metric{Value: msOf(d), Unit: "ms", N: recoveries}
	m["service.recover_log_scan_records_per_s"] = metric{Value: float64(n) / d.Seconds(), Unit: "1/s"}
	return os.RemoveAll(dir)
}

// federationLayers measures the delta codec, the pusher's tee and the core's
// /merge, in memory and over one loopback round trip.
func (s *stages) federationLayers(m map[string]metric) error {
	big, _ := s.sample()
	_, agg, err := s.add(chunk{max(0, big.hi-s.c.sc.deltaRecords()), big.hi})
	if err != nil {
		return err
	}
	recs := agg.Generation()
	var frame []byte
	d, err := medianDur(layerReps, func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		frame, err = federation.AppendDelta(frame[:0], &federation.Delta{Source: "bench", Agg: agg})
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	m["federation.encode_delta_ms"] = metric{Value: msOf(d), Unit: "ms", N: layerReps}
	m["federation.delta_bytes_per_record"] = metric{Value: float64(len(frame)) / float64(recs), Unit: "B"}
	if d, err = medianDur(layerReps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := federation.DecodeDelta(frame)
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	m["federation.decode_delta_ms"] = metric{Value: msOf(d), Unit: "ms", N: layerReps}

	coreSrv := service.NewServer(core.NewLiveStudy(), service.WithQueueBound(service.DefaultQueueBound))
	defer coreSrv.Close()
	var base uint64
	nextFrame := func() ([]byte, error) {
		f, err := federation.EncodeDelta(&federation.Delta{Source: "bench", Base: base, Agg: agg})
		base += recs
		return f, err
	}
	if d, err = medianDur(layerReps, func() (time.Duration, error) {
		f, err := nextFrame()
		if err != nil {
			return 0, err
		}
		d, rec := serve(coreSrv.Handler(), http.MethodPost, "/merge", federation.ContentTypeDelta, f)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-memory merge: status %d: %s", rec.Code, truncate(rec.Body.Bytes()))
		}
		return d, nil
	}); err != nil {
		return err
	}
	m["federation.merge_handler_ms"] = metric{Value: msOf(d), Unit: "ms", N: layerReps}

	ts := httptest.NewServer(coreSrv.Handler())
	defer ts.Close()
	if d, err = medianDur(layerReps, func() (time.Duration, error) {
		delta := &federation.Delta{Source: "bench", Base: base, Agg: agg}
		base += recs
		t0 := time.Now()
		_, err := federation.PushDelta(ts.URL, delta, ts.Client())
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	m["federation.push_rtt_ms"] = metric{Value: msOf(d), Unit: "ms", N: layerReps}

	// The pusher only accumulates here: its interval never elapses, and the
	// upstream it is closed against is the in-memory core above.
	p, err := federation.NewPusher(federation.PusherOptions{
		Source: "bench-observe", Upstream: ts.URL, Interval: time.Hour, Client: ts.Client()})
	if err != nil {
		return err
	}
	_, shard, err := s.add(big)
	if err != nil {
		return err
	}
	d, _ = medianDur(layerReps, func() (time.Duration, error) {
		t0 := time.Now()
		p.Observe(shard)
		return time.Since(t0), nil
	})
	m["federation.pusher_observe_us"] = metric{Value: usOf(d), Unit: "us", N: layerReps}
	return p.Close()
}
