// Package core is the public entry point of the library: it wires the
// substrates (populations, simulator, notary, fingerprint database, scanner,
// serverfarm, analysis) into the two workflows of the paper —
//
//   - Study: the passive Notary measurement (Feb 2012 – Apr 2018), yielding
//     Figures 1–10, Tables 1–6 and the §4/§5/§6 scalar findings;
//   - ScanCampaign: the active Censys-style measurement over a real-TCP
//     server farm, yielding the §5.1–§5.6 server-side scalars.
//
// Both are deterministic for a given seed.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/clientdb"
	"tlsage/internal/fingerprint"
	"tlsage/internal/handshake"
	"tlsage/internal/notary"
	"tlsage/internal/population"
	"tlsage/internal/registry"
	"tlsage/internal/scanner"
	"tlsage/internal/serverfarm"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// ErrNotRun reports a study that has no aggregate yet: neither Run nor a
// live constructor (NewLiveStudy, NewStudyFromAggregate) has given it data.
// The service layer matches it with errors.Is to map "not ready" to 503
// instead of 400.
var ErrNotRun = errors.New("core: study has not been run")

// Study orchestrates the passive measurement.
type Study struct {
	Options simulate.Options

	// mu guards every field below. MergeShard and aggregate replacements
	// take it exclusively; readers share it while the cached frame is at the
	// aggregate's generation, and take it exclusively to bring the frame up
	// to date (see read). Batch callers that mutate the aggregate directly
	// through Aggregate() stay single-goroutine and never contend.
	mu  sync.RWMutex
	agg *notary.Aggregate
	db  *fingerprint.DB
	// frame caches the columnar snapshot of agg that all figure/scalar
	// queries evaluate against. It is brought up to date lazily whenever the
	// aggregate's generation moves: advanced over the months MergeShard
	// touched, or built anew (see refresh).
	frame *analysis.Frame
	// touched lists the months MergeShard wrote since frame was built, and
	// accounted is the generation the aggregate shows if those were the only
	// writes: a write this study did not see (through Aggregate()) leaves the
	// two generations apart, and the next frame is a full build.
	touched   []timeline.Month
	accounted uint64

	// queryCache, when set, fronts every Query* call with a shared
	// generation-keyed result cache; cacheID namespaces this study's keys
	// within it. cacheEpoch versions aggregate replacements (Run, LoadLog):
	// generations count records, so a rebuilt study can land on a colliding
	// generation, and the epoch — bumped in the same critical section as the
	// swap — keeps its cache keys disjoint from the old aggregate's.
	queryCache *analysis.QueryCache
	cacheID    string
	cacheEpoch uint64

	// compiles counts analysis.Compile calls on the query path: one per query
	// that was not a result-cache hit.
	compiles atomic.Uint64
}

// SetQueryCache attaches a (possibly shared) query result cache, with id
// namespacing this study's entries. A nil cache — the default — disables
// result caching; queries then compile and evaluate on every call.
func (s *Study) SetQueryCache(c *analysis.QueryCache, id string) {
	s.mu.Lock()
	s.queryCache, s.cacheID = c, id
	s.mu.Unlock()
}

// NewStudy creates a study at the given per-month sample size with the
// default seed and full window.
func NewStudy(connsPerMonth int) *Study {
	return &Study{Options: simulate.DefaultOptions(connsPerMonth)}
}

// NewLiveStudy creates an empty study ready for live ingestion: the
// aggregate exists (so Frame and every query answer immediately, over zero
// months) and records arrive through MergeShard instead of Run. This is the
// service-mode constructor — the same aggregate that answers queries keeps
// ingesting. The fingerprint database doubles as the aggregate's classifier,
// so client-class attribution (the agent: query family, Table 2) accumulates
// as records stream in.
func NewLiveStudy() *Study {
	db := fingerprint.BuildDefault()
	agg := notary.NewAggregate()
	agg.SetClassifier(db)
	return &Study{agg: agg, db: db}
}

// NewStudyFromAggregate wraps an already-built aggregate — typically one
// decoded from a durable snapshot — as a live study: queries answer off the
// recovered months immediately and further records arrive through
// MergeShard. This is the restart-recovery constructor. The default
// fingerprint database is (re)installed as the classifier — configuration is
// not serialized with snapshots — so attribution resumes for newly ingested
// records.
func NewStudyFromAggregate(agg *notary.Aggregate) *Study {
	db := fingerprint.BuildDefault()
	agg.SetClassifier(db)
	return &Study{agg: agg, db: db}
}

// NewShard returns a fresh private aggregate configured like the study's own
// (same classifier), for batched ingestion: parse into the shard without
// contention, then fold it in with MergeShard. Shards created any other way
// would silently skip client-class attribution — Merge transfers counters,
// and only counters.
func (s *Study) NewShard() *notary.Aggregate {
	shard := notary.NewAggregate()
	s.mu.RLock()
	if s.agg != nil {
		shard.SetClassifier(s.agg.Classifier())
	}
	s.mu.RUnlock()
	return shard
}

// WriteSnapshot serializes the study's aggregate to w in the versioned
// notary snapshot format, under the shared read lock so a concurrent merge
// never tears the encoding. It returns the generation the snapshot
// captured; because generations count ingested records, the value doubles
// as the record count a recovery must skip when replaying the log's tail.
func (s *Study) WriteSnapshot(w io.Writer) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.agg == nil {
		return 0, fmt.Errorf("core: study has no aggregate (use NewLiveStudy or Run first)")
	}
	if err := notary.WriteSnapshot(w, s.agg); err != nil {
		return 0, err
	}
	return s.agg.Generation(), nil
}

// Run executes the simulation and aggregation: every simulated record is
// folded into the study's aggregate through a ShardBuilder, the fold ingest
// uses. When w is non-nil every record is also written to it as a TLSB frame
// log (notary.DefaultBatchSize records a frame), the encoding serve -out
// writes. The log writer is closed, writing its last frame, on every exit
// path; a simulation or write error takes precedence over the close error,
// and a failed run installs no aggregate.
func (s *Study) Run(w io.Writer) error {
	sim := simulate.New(s.Options)
	db := fingerprint.BuildDefault()
	built := notary.NewShardBuilder(func() *notary.Aggregate {
		agg := notary.NewAggregate()
		agg.SetClassifier(db)
		return agg
	})
	var sink notary.Sink = built
	if w != nil {
		sink = notary.Tee(built, notary.NewBatchWriter(w, notary.DefaultBatchSize))
	}
	runErr := sim.Run(sink)
	closeErr := sink.Close()
	if runErr != nil {
		return runErr
	}
	if closeErr != nil {
		return closeErr
	}
	s.replaceAggregate(built.Flush(), db)
	return nil
}

// LoadLog rebuilds a study from a previously written record log — lines,
// frames or both (see notary.ReadLog) — instead of re-simulating: the
// post-hoc analysis path. The log is cut into runs of whole entries read by
// Options.Workers parse workers (0 = all cores; see notary.ReadLogParallel)
// and the per-worker aggregates are merged, so loading scales like Run does.
// Parsing runs classified, so the reloaded study carries the same agent:
// attribution a live run would.
func (s *Study) LoadLog(r io.Reader) error {
	db := fingerprint.BuildDefault()
	agg, err := notary.ReadLogParallel(r, s.Options.Workers, db)
	if err != nil {
		return err
	}
	s.replaceAggregate(agg, db)
	return nil
}

// replaceAggregate swaps in a rebuilt aggregate (Run, LoadLog). The cache
// epoch moves and the cached frame is dropped in the same critical section,
// so no reader can pair the old frame with the new aggregate even when both
// stand at the same generation.
func (s *Study) replaceAggregate(agg *notary.Aggregate, db *fingerprint.DB) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agg, s.db = agg, db
	s.cacheEpoch++
	s.frame = nil
}

// MergeShard folds a privately accumulated aggregate into the live study in
// one locked operation — the batched ingestion path: a network stream parses
// into its own shard (no contention) and merges every few thousand records,
// reusing Aggregate.Merge. The shard is not modified and may be reused.
func (s *Study) MergeShard(shard *notary.Aggregate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.agg == nil {
		return fmt.Errorf("core: study has no aggregate (use NewLiveStudy or Run first)")
	}
	before := s.agg.Generation()
	s.agg.Merge(shard)
	if before != s.accounted {
		return nil // an unseen write came first; refresh will notice
	}
	s.accounted = s.agg.Generation()
	for _, m := range shard.Months() {
		if !slices.Contains(s.touched, m) {
			s.touched = append(s.touched, m)
		}
	}
	return nil
}

// Counts reports the live aggregate's record count, observed month count and
// generation in one consistent read — the health-endpoint view. The
// generation is monotonic under MergeShard ingestion.
func (s *Study) Counts() (records, months int, generation uint64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.agg == nil {
		return 0, 0, 0, ErrNotRun
	}
	return s.agg.TotalRecords(), s.agg.NumMonths(), s.agg.Generation(), nil
}

// Aggregate exposes the raw monthly statistics; nil before Run. It returns
// the pointer without taking the study's lock. Direct mutation through this
// accessor is a batch-mode convenience — concurrent producers must deliver
// through MergeShard instead — and costs the next read of the frame a full
// build, since the study cannot know which months it wrote.
func (s *Study) Aggregate() *notary.Aggregate { return s.agg }

// Frame returns the columnar snapshot of the study's aggregate, building it
// on first use and bringing it up to date whenever the aggregate has mutated
// since the cached snapshot (generation check). Callers may hold the
// returned frame across further ingestion: it is immutable, and a later
// Frame call yields a fresh snapshot. Figures, the §7.4 impacts and the
// TLS 1.3 variant split are the frame's methods, or analysis's *Frame
// functions, applied to it.
//
// Frame is safe for concurrent readers, including while producers deliver
// through MergeShard (see read).
func (s *Study) Frame() (f *analysis.Frame, err error) {
	err = s.read(func(cur *analysis.Frame) { f = cur })
	return f, err
}

// read calls fn with the frame at the aggregate's current generation, with
// s.mu held so fn can read the study's other fields consistently with that
// frame. fn only reads: callers evaluate against the frame after read
// returns, outside the lock, and fn must not call back into the study. A
// current frame is read under the shared lock, released by hand after fn;
// a stale one is brought up to date under the exclusive lock, so no writer
// or other reader sees it half-built.
func (s *Study) read(fn func(*analysis.Frame)) error {
	s.mu.RLock()
	if s.agg != nil && s.frame != nil && s.frame.Generation() == s.agg.Generation() {
		fn(s.frame)
		s.mu.RUnlock()
		return nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.agg == nil {
		return ErrNotRun
	}
	s.refresh()
	fn(s.frame)
	return nil
}

// refresh brings the cached frame up to the aggregate's generation; the
// caller holds s.mu exclusively and has checked that agg is set. It is the
// one place that chooses between the two frame constructors: a stale frame
// advances when every write since it was built went through MergeShard (the
// aggregate stands at the accounted generation) and none of them opened a new
// month; a first build, a replaced aggregate, a new month or a write through
// Aggregate() gets NewFrame.
func (s *Study) refresh() {
	gen := s.agg.Generation()
	if s.frame != nil && s.frame.Generation() == gen {
		return // another reader refreshed it between read's two locks
	}
	if s.frame != nil && gen == s.accounted && s.agg.NumMonths() == s.frame.Len() {
		// Months are never removed, so an equal count means an equal axis.
		s.frame = s.frame.Advance(s.agg, s.touched)
	} else {
		s.frame = analysis.NewFrame(s.agg)
	}
	s.accounted, s.touched = gen, s.touched[:0]
}

// Query parses src with analysis.ParseQuery and evaluates it against the
// study's cached frame — the ad-hoc metric path beyond the figure catalog.
func (s *Study) Query(src string) (analysis.QueryResult, error) {
	res, _, _, _, err := s.QueryInfoJSON(src)
	return res, err
}

// QueryInfoJSON is Query plus what the service layer stamps onto a response:
// the serialized JSON body when the attached result cache holds one (nil
// otherwise, so a hit skips json.Marshal as well as evaluation), the
// aggregate generation the result belongs to, and whether it was served from
// the cache.
func (s *Study) QueryInfoJSON(src string) (analysis.QueryResult, []byte, uint64, bool, error) {
	e, err := analysis.ParseQuery(src)
	if err != nil {
		return analysis.QueryResult{}, nil, 0, false, err
	}
	return s.queryValidated(e)
}

// QueryExprInfoJSON is QueryInfoJSON for an already-built expression (e.g.
// decoded from JSON). The expression is validated before anything else: the
// cache is keyed by canonical text, and only a validated expression's
// String() is guaranteed to be canonical (a malformed column name could
// otherwise impersonate another query's key).
func (s *Study) QueryExprInfoJSON(e *analysis.Expr) (analysis.QueryResult, []byte, uint64, bool, error) {
	if err := e.Validate(); err != nil {
		return analysis.QueryResult{}, nil, 0, false, err
	}
	return s.queryValidated(e)
}

// queryValidated serves a validated expression: from the result cache when
// an entry exists for the study's current (epoch, generation), and otherwise
// by compiling a plan against the current frame, evaluating it, and caching
// the result (with its serialized body) under coordinates read in the same
// critical section as that frame. The lookup, compile and evaluation run
// outside the lock. Concurrent misses for one key each compile and evaluate
// (microseconds; the frame they share is brought up to date once) and
// QueryCache.Put keeps the last of their identical entries. Ad-hoc plans are
// not memoized: a plan's key would be the result cache's key. A nil cache
// degrades to plain compile-and-evaluate.
func (s *Study) queryValidated(e *analysis.Expr) (analysis.QueryResult, []byte, uint64, bool, error) {
	var (
		f          *analysis.Frame
		cache      *analysis.QueryCache
		id         string
		epoch, gen uint64
	)
	if err := s.read(func(cur *analysis.Frame) {
		f, cache, id, epoch, gen = cur, s.queryCache, s.cacheID, s.cacheEpoch, cur.Generation()
	}); err != nil {
		return analysis.QueryResult{}, nil, 0, false, err
	}
	var key string
	if cache != nil {
		key = e.String()
		if res, body, hit := cache.Get(id, epoch, gen, key); hit {
			return res, body, gen, true, nil
		}
	}
	p, err := analysis.Compile(e, f)
	if err != nil {
		return analysis.QueryResult{}, nil, 0, false, err
	}
	s.compiles.Add(1)
	res := p.Eval()
	var body []byte
	if cache != nil {
		// A marshal failure only costs this entry the serialized-body fast
		// path; the result itself still caches and serves.
		body, _ = res.EncodeJSONBody()
		cache.Put(id, epoch, gen, key, res, body)
	}
	return res, body, gen, false, nil
}

// PlanCompiles reports how many times the query path called
// analysis.Compile: once per query that was not a result-cache hit.
func (s *Study) PlanCompiles() uint64 { return s.compiles.Load() }

// Scalars returns the passive and fingerprint scalar findings. Both halves
// come from one read of the study, so a live report never mixes two
// generations.
func (s *Study) Scalars() ([]analysis.Scalar, error) {
	out, _, err := s.ScalarsWithGeneration()
	return out, err
}

// ScalarsWithGeneration is Scalars plus the aggregate generation the report
// was computed against, read atomically with the report itself — the
// service uses it to stamp staleness headers that match the body exactly.
func (s *Study) ScalarsWithGeneration() ([]analysis.Scalar, uint64, error) {
	var (
		f  *analysis.Frame
		fp []analysis.Scalar
	)
	if err := s.read(func(cur *analysis.Frame) { f, fp = cur, analysis.FingerprintScalars(s.agg) }); err != nil {
		return nil, 0, err
	}
	return append(analysis.PassiveScalarsFrame(f), fp...), f.Generation(), nil
}

// Table2 reproduces the fingerprint summary table through the query surface:
// every coverage number is an agent:-family expression evaluated against the
// study's cached frame (analysis.BuildTable2Frame), outside the study's lock.
// The coverage is the fingerprint database's own because the study installs
// that database as its aggregate's classifier. An aggregate recovered from a pre-attribution
// (v1) snapshot has no class attribution — fp-conns and the fp: family answer
// from the per-month fingerprint rows version 1 always carried, the agent:
// family is empty — so its Table 2 reports zero coverage until records are
// re-ingested or new ones arrive.
func (s *Study) Table2() (analysis.Table2Report, error) {
	var (
		f  *analysis.Frame
		db *fingerprint.DB
	)
	if err := s.read(func(cur *analysis.Frame) { f, db = cur, s.db }); err != nil {
		return analysis.Table2Report{}, err
	}
	return analysis.BuildTable2Frame(f, db), nil
}

// FingerprintDurations returns the §4.1 lifetime statistics.
func (s *Study) FingerprintDurations() (fingerprint.DurationStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.agg == nil {
		return fingerprint.DurationStats{}, ErrNotRun
	}
	return fingerprint.ComputeDurationStats(s.agg.FPDurations()), nil
}

// Static table reproductions (no simulation needed).

// Table1 returns the version release dates.
func Table1() []struct {
	Version registry.Version
	Name    string
	Date    registry.ReleaseDate
} {
	return registry.VersionReleases()
}

// Table3 returns the browser CBC-count change rows.
func Table3() []clientdb.TableRow { return clientdb.Table3CBC() }

// Table4 returns the browser RC4 change rows.
func Table4() []clientdb.TableRow { return clientdb.Table4RC4() }

// Table5 returns the browser 3DES change rows.
func Table5() []clientdb.TableRow { return clientdb.Table53DES() }

// Table6 returns the browser version-support rows.
func Table6() []clientdb.VersionSupportRow { return clientdb.Table6Versions() }

// ScanCampaign orchestrates an active Censys-style sweep: it samples a farm
// of server configurations from the host-census universe at a given date,
// binds them to loopback TCP listeners and runs every probe against them,
// one probe after another: one connection per (probe, host), the Heartbleed
// check riding the chrome2015 one.
type ScanCampaign struct {
	// Date selects the population snapshot (e.g. Sep 2015 vs May 2018).
	Date timeline.Date
	// Hosts is the farm size.
	Hosts int
	// Workers is the scanner pool width.
	Workers int
	// Seed drives the population sampling.
	Seed int64
	// Timeout bounds each probe connection.
	Timeout time.Duration
	// PopularityWeighted samples the farm from the traffic universe instead
	// of the host census — the Alexa-Top-1M flavour of the Censys scans
	// (§3.2): popular sites are more modern than the average IPv4 host.
	PopularityWeighted bool
}

// CampaignReport aggregates one campaign: a Summary per probe, keyed by
// probe name.
type CampaignReport struct {
	Date   timeline.Date
	Hosts  int
	Probes map[string]scanner.Summary
	// VulnerableHosts counts hosts the Heartbleed exploit check actually
	// over-read, and LeakedBytes totals the memory they leaked: on the
	// chrome2015 connection, after the server acks heartbeat, the scanner
	// sends a request whose claimed length exceeds its payload, exactly as
	// the §5.4 scans did. Both are copied from the chrome2015 summary.
	VulnerableHosts int
	LeakedBytes     int
	// GroundTruthVulnerable counts farm hosts configured as unpatched; the
	// exploit check must agree with it (cross-validated in tests).
	GroundTruthVulnerable int
}

// positiveOr returns v, or def when v is not positive: how the scan types
// resolve their unset fields to defaults.
func positiveOr[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// Run executes the campaign. Defaults for Hosts, Workers and Timeout are
// resolved into locals — the receiver is never written, so one campaign
// value can be reused across dates without its configuration silently
// pinning to the first run's defaults.
func (c *ScanCampaign) Run(ctx context.Context) (*CampaignReport, error) {
	hosts, workers, timeout := positiveOr(c.Hosts, 200), positiveOr(c.Workers, 16), positiveOr(c.Timeout, 3*time.Second)
	rnd := rand.New(rand.NewSource(c.Seed))
	servers := population.DefaultServers()
	universe := population.ByHosts
	if c.PopularityWeighted {
		universe = population.ByTraffic
	}

	configs := make([]*handshake.ServerConfig, hosts)
	cohorts := make([]string, hosts)
	groundTruth := 0
	census := servers.Day(c.Date)
	for i := 0; i < hosts; i++ {
		cohort, cfg := census.Sample(universe, rnd)
		configs[i] = cfg
		cohorts[i] = cohort.Name
		if cfg.HeartbleedVulnerable {
			groundTruth++
		}
	}
	farm, err := serverfarm.StartFarm(configs, cohorts, timeout)
	if err != nil {
		return nil, err
	}
	defer farm.Close()

	report := &CampaignReport{
		Date:                  c.Date,
		Hosts:                 hosts,
		Probes:                make(map[string]scanner.Summary),
		GroundTruthVulnerable: groundTruth,
	}
	sc := scanner.New(workers)
	sc.Timeout = timeout
	// The probes run in turn, each fanned out over the farm by the scanner's
	// pool; their hellos draw from rnd in AllProbes order, so the report is
	// deterministic. Only chrome2015 offers heartbeat, so its summary holds
	// the Heartbleed verdicts.
	for _, probe := range scanner.AllProbes() {
		results, err := sc.Scan(ctx, farm.Addrs(), probe.Build(rnd))
		if err != nil {
			return nil, fmt.Errorf("core: probe %s: %w", probe.Name, err)
		}
		report.Probes[probe.Name] = scanner.Summarize(results)
	}
	chrome := report.Probes["chrome2015"]
	report.VulnerableHosts, report.LeakedBytes = chrome.Vulnerable, chrome.LeakedBytes
	return report, nil
}
