// Package simulate synthesizes the study's passive dataset: month by month
// it draws (client, server) pairs from the population models, runs their
// handshakes through the real wire codec and negotiation engine, and emits
// Notary records. Every figure of the paper is then a query over the
// resulting aggregate.
//
// The simulator is fully deterministic for a given seed and performs the
// version-fallback dance real clients performed (the POODLE precondition):
// on a failed handshake a fallback-capable client retries with progressively
// lower versions, marking retries with TLS_FALLBACK_SCSV when it supports
// RFC 7507.
//
// The study window is sharded by month across a worker pool: every month
// draws from its own RNG stream derived from the seed, so the dataset is
// identical for every worker count — including the sequential path — and
// shards can be simulated concurrently and merged.
package simulate

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tlsage/internal/clientdb"
	"tlsage/internal/fingerprint"
	"tlsage/internal/handshake"
	"tlsage/internal/notary"
	"tlsage/internal/population"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
	"tlsage/internal/wire"
)

// Options configures a simulation run.
type Options struct {
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
	// ConnectionsPerMonth is the sample size per calendar month.
	ConnectionsPerMonth int
	// Start and End bound the simulated window (inclusive).
	Start, End timeline.Month
	// Workers bounds how many months are simulated concurrently. 0 means
	// GOMAXPROCS; 1 forces the sequential path. The generated dataset is
	// identical for every value: each month has its own seed-derived RNG
	// stream regardless of which worker runs it.
	Workers int
}

// DefaultOptions returns the study configuration at the given sampling rate.
func DefaultOptions(connsPerMonth int) Options {
	return Options{
		Seed:                1,
		ConnectionsPerMonth: connsPerMonth,
		Start:               timeline.StudyStart,
		End:                 timeline.StudyEnd,
	}
}

// Simulator generates the passive dataset.
type Simulator struct {
	Clients *population.ClientPopulation
	Servers *population.ServerPopulation
	opts    Options
}

// New builds a simulator over the default populations.
// A ConnectionsPerMonth of 0 or less means 1,000.
func New(opts Options) *Simulator {
	if opts.ConnectionsPerMonth <= 0 {
		opts.ConnectionsPerMonth = 1000
	}
	return &Simulator{
		Clients: population.DefaultClients(),
		Servers: population.DefaultServers(),
		opts:    opts,
	}
}

// workerCount resolves Options.Workers against the month count.
func (s *Simulator) workerCount(months int) int {
	w := s.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, months)
}

// splitmix64 is the SplitMix64 finalizer, used to spread correlated
// (seed, month) pairs into independent RNG stream seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// monthRNG returns month m's dedicated RNG stream. Every month draws from
// its own stream, so the records of a month do not depend on which worker —
// or how many — simulated the months before it.
func (s *Simulator) monthRNG(m timeline.Month) *rand.Rand {
	seed := splitmix64(uint64(s.opts.Seed)) ^ splitmix64(uint64(m.Index()))
	return rand.New(rand.NewSource(int64(seed)))
}

// scratch is the per-worker reusable state, reused across every connection
// the worker simulates: the wire encode buffers, the randomizer shuffle
// buffer, the offered side of the hello being built and the table that
// interns it, the hello memo, and the current month's day tables. A scratch
// must not be shared between goroutines.
type scratch struct {
	enc    wire.HelloEncoder
	raw    []byte
	suites []uint16
	hello  notary.Hello
	hellos notary.HelloTable

	// memo holds the hellos built so far, by what makes them.
	memo map[memoKey]*offer

	// The month's day tables, by day of the month, built on first use.
	clientDays [28]*population.ClientDay
	serverDays [28]*population.ServerDay
}

// memoKey is everything a hello — its parsed form and the record's client
// side — is a function of: the release's config (which also fixes the truth
// label, its profile's name), the legacy version and form of the attempt, the
// GREASE draws, and whether the month is fingerprinted. The Random bytes are
// the only other draws, and nothing reads them.
type memoKey struct {
	release       *clientdb.Config
	version       registry.Version
	fallback      bool
	fingerprinted bool
	grease        [4]uint16
}

// maxMemo bounds a worker's memo, as maxHelloRows bounds its row table: a
// memo that reaches it is emptied. The study at 2,000 connections a month
// makes about 2,600 distinct hellos.
const maxMemo = 1 << 12

// offer is one hello as a connection uses it: the parsed hello negotiation
// reads, which nothing writes, and a record holding only its client side —
// ClientVersion, OffersHeartbeat and the interned row.
type offer struct {
	hello  *wire.ClientHello
	client notary.Record
	// answers holds, for a memo's offer, what each server variant it has met
	// answered, without the ServerHello nothing reads; nil for an offer no
	// memo keeps.
	answers map[population.Variant]handshake.Result
}

// runMonth simulates one month's connections in order, invoking observe for
// each record. The record is refilled for the next connection once observe
// returns.
func (s *Simulator) runMonth(m timeline.Month, sc *scratch, observe func(*notary.Record) error) error {
	rnd := s.monthRNG(m)
	// The Notary gained fingerprinting fields in February 2014 (§4.0.1);
	// records before it carry no fingerprint.
	fingerprinted := !m.Before(timeline.M(2014, time.February))
	sc.clientDays, sc.serverDays = [28]*population.ClientDay{}, [28]*population.ServerDay{}
	var rec notary.Record
	for i := 0; i < s.opts.ConnectionsPerMonth; i++ {
		s.connection(&rec, m, fingerprinted, rnd, sc)
		if err := observe(&rec); err != nil {
			return err
		}
	}
	return nil
}

// Run generates the dataset, delivering every record to sink in
// chronological-month order. With Workers > 1 months are simulated
// concurrently and delivered in order; Observe is always called from a
// single goroutine. Each record is valid only for the duration of Observe
// (clone to retain). A sink error aborts the run. The sink is not closed —
// its owner is.
func (s *Simulator) Run(sink notary.Sink) error {
	months := timeline.MonthsBetween(s.opts.Start, s.opts.End)
	workers := s.workerCount(len(months))
	if workers <= 1 {
		var sc scratch
		for _, m := range months {
			if err := s.runMonth(m, &sc, sink.Observe); err != nil {
				return err
			}
		}
		return nil
	}

	outs := make([]chan []notary.Record, len(months))
	for i := range outs {
		outs[i] = make(chan []notary.Record, 1)
	}
	jobs := make(chan int)
	// sem bounds the months buffered ahead of the sink so a slow sink does
	// not force the whole dataset into memory.
	sem := make(chan struct{}, 2*workers)
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for idx := range jobs {
				if aborted.Load() {
					outs[idx] <- nil
					continue
				}
				// The collecting observe never fails, so neither does runMonth.
				recs := make([]notary.Record, 0, s.opts.ConnectionsPerMonth)
				s.runMonth(months[idx], &sc, func(r *notary.Record) error {
					recs = append(recs, *r)
					return nil
				})
				outs[idx] <- recs
			}
		}()
	}
	go func() {
		for i := range months {
			sem <- struct{}{}
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}()

	var firstErr error
	for i := range months {
		recs := <-outs[i]
		for j := range recs {
			if firstErr != nil {
				break
			}
			if err := sink.Observe(&recs[j]); err != nil {
				firstErr = err
				aborted.Store(true)
			}
		}
		<-sem
	}
	return firstErr
}

// connection simulates one observed connection in month m into rec.
func (s *Simulator) connection(rec *notary.Record, m timeline.Month, fingerprinted bool, rnd *rand.Rand, sc *scratch) {
	day := rnd.Intn(28)
	date := timeline.Date{Year: m.Year, Month: m.M, Day: 1 + day}
	if sc.clientDays[day] == nil {
		sc.clientDays[day] = s.Clients.Day(date)
		sc.serverDays[day] = s.Servers.Day(date)
	}
	profile, relIdx := sc.clientDays[day].Sample(rnd)
	cfg := &profile.Releases[relIdx].Config

	server := sc.serverDays[day].DrawForClient(profile.Name, rnd)

	*rec = notary.Record{Date: date, ServerCohort: s.Servers.Cohort(server).Base.Name}

	// The Nagios monitoring traffic opens with SSLv2-compatible hellos part
	// of the time (§5.1).
	if cfg.SSLv2Compat && rnd.Float64() < 0.3 {
		sslv2Connection(rec, cfg, profile.Name, s.Servers.Config(server), rnd, sc)
		return
	}

	first := s.attempt(cfg, cfg, false, profile.Name, fingerprinted, rnd, sc)
	rec.CopyClientSide(&first.client)
	res := s.negotiate(first, server)

	// Version fallback dance: real pre-2015 clients retried failed
	// handshakes at lower versions (and Firefox's RC4-fallback retried with
	// RC4 restored).
	if !res.OK && (cfg.SSL3Fallback || cfg.RC4FallbackOnly) {
		for _, v := range fallbackVersions(cfg) {
			fb := *cfg
			fb.LegacyVersion = v
			fb.SupportedVersions = nil
			retry := s.attempt(cfg, &fb, true, profile.Name, fingerprinted, rnd, sc)
			res = s.negotiate(retry, server)
			if res.OK {
				rec.UsedFallback = true
				// The Notary sees the successful exchange's hello.
				rec.CopyClientSide(&retry.client)
				break
			}
		}
	}

	s.finishRecord(rec, cfg, profile.Name, res)
}

// fallbackVersions lists the retry versions a fallback-capable client walks
// through, highest first. The slice is exactly sized up front — it is
// allocated on every failed handshake of a fallback-capable client.
func fallbackVersions(cfg *clientdb.Config) []registry.Version {
	max := cfg.LegacyVersion
	if max > registry.VersionTLS12 {
		max = registry.VersionTLS12
	}
	n := 0
	if max >= registry.VersionTLS10 {
		n = int(max-registry.VersionTLS10) + 1
	}
	ssl3 := cfg.SSL3Fallback && cfg.MinVersion <= registry.VersionSSL3
	if ssl3 {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]registry.Version, 0, n)
	for v := max; v >= registry.VersionTLS10; v -= 1 {
		out = append(out, v)
	}
	if ssl3 {
		out = append(out, registry.VersionSSL3)
	}
	return out
}

// attempt makes the draws of one hello of cfg, a form of release's config,
// and returns what the hello offers: the memo's offer for those draws, or,
// on a miss, the hello built, round-tripped through the wire codec as the
// Notary would see it, fingerprinted when the month is, and interned.
func (s *Simulator) attempt(release, cfg *clientdb.Config, fallback bool, profileName string, fingerprinted bool, rnd *rand.Rand, sc *scratch) *offer {
	var hello *wire.ClientHello
	var key memoKey
	randomizer := profileName == clientdb.RandomizerProfileName
	if randomizer {
		// The §4.1 randomizer: a fresh cipher order every connection, so no
		// two hellos are alike and none is remembered. BuildHello copies the
		// list it is given, so the shuffle buffer can be reused across
		// connections.
		shuffled := *cfg
		shuffled.Suites = append(sc.suites[:0], cfg.Suites...)
		sc.suites = shuffled.Suites
		rnd.Shuffle(len(shuffled.Suites), func(i, j int) {
			shuffled.Suites[i], shuffled.Suites[j] = shuffled.Suites[j], shuffled.Suites[i]
		})
		hello = shuffled.BuildHello(rnd, fallback)
	} else {
		var d clientdb.Draws
		cfg.Draw(rnd, &d)
		key = memoKey{release, cfg.LegacyVersion, fallback, fingerprinted, d.GREASE}
		if sc.memo == nil {
			sc.memo = make(map[memoKey]*offer)
		}
		if o := sc.memo[key]; o != nil {
			return o
		}
		hello = cfg.Assemble(&d, fallback)
	}
	o := &offer{hello: observable(hello, sc)}
	h := &sc.hello
	o.client.FromClientHello(o.hello, h)
	h.Fingerprint, h.Truth = "", profileName
	if fingerprinted && fingerprint.Usable(h.Suites) {
		h.Fingerprint = string(fingerprint.FromParts(h.Suites, h.Extensions, h.Curves, h.PointFmts))
	}
	sc.hellos.Intern(&o.client, h)
	if !randomizer {
		if len(sc.memo) >= maxMemo {
			clear(sc.memo)
		}
		o.answers = make(map[population.Variant]handshake.Result)
		sc.memo[key] = o
	}
	return o
}

// negotiate returns what server variant v answers o's hello: the answer o
// keeps for v, or Negotiate's, kept the first time a memo's offer meets v.
// Negotiate is a function of the hello and the config, and equal variants
// instantiate equal configs.
func (s *Simulator) negotiate(o *offer, v population.Variant) handshake.Result {
	res, ok := o.answers[v]
	if !ok {
		res = handshake.Negotiate(o.hello, s.Servers.Config(v))
		res.ServerHello = nil
		if o.answers != nil {
			o.answers[v] = res
		}
	}
	return res
}

// observable returns the hello as the Notary observes it: round-tripped
// through the wire codec, reusing sc's encode buffer.
func observable(hello *wire.ClientHello, sc *scratch) *wire.ClientHello {
	sc.raw = sc.enc.AppendRecord(hello, sc.raw[:0])
	rec, _, err := wire.DecodeRecord(sc.raw)
	mustDecode(err)
	_, body, _, err := wire.DecodeHandshake(rec.Payload)
	mustDecode(err)
	// The parsed hello copies everything out of the scratch buffer, so the
	// buffer is free for the next connection.
	var parsed wire.ClientHello
	mustDecode(parsed.DecodeFromBytes(body))
	return &parsed
}

// mustDecode panics on a decode error. The simulator decodes only bytes the
// wire codec's total encoder has just written, which its decoders accept: a
// refusal means the codec is broken, not that an input was bad.
func mustDecode(err error) {
	if err != nil {
		panic(fmt.Sprintf("simulate: the wire codec refused its own encoding: %v", err))
	}
}

// finishRecord applies the negotiation outcome.
func (s *Simulator) finishRecord(rec *notary.Record, cfg *clientdb.Config, profileName string, res handshake.Result) {
	if !res.OK {
		rec.Established = false
		rec.AlertDesc = res.Alert.Description
		return
	}
	rec.Version = res.Version
	rec.Suite = res.Suite
	rec.Curve = res.Curve
	rec.HeartbeatAck = res.HeartbeatAck
	rec.SuiteUnoffer = res.SuiteUnoffered
	// A spec-violating suite choice aborts the handshake for compliant
	// clients; the Interwise client of §5.5 completed it anyway.
	tolerant := profileName == "Interwise client"
	rec.Established = !res.SuiteUnoffered || tolerant
	// Version floor on the client side.
	if res.Version < cfg.MinVersion.Canonical() {
		rec.Established = false
		rec.AlertDesc = wire.AlertProtocolVersion
	}
	return
}

// sslv2Connection handles the legacy SSLv2-compatible opening. Its hello
// bypasses the memo.
func sslv2Connection(rec *notary.Record, cfg *clientdb.Config, truth string, serverCfg *handshake.ServerConfig, rnd *rand.Rand, sc *scratch) {
	v2 := &wire.SSLv2ClientHello{
		Version:     registry.VersionSSL2,
		CipherSpecs: []uint32{0x010080, 0x020080},
		Challenge:   make([]byte, 16),
	}
	for _, id := range cfg.Suites {
		v2.CipherSpecs = append(v2.CipherSpecs, uint32(id))
	}
	rnd.Read(v2.Challenge)
	h := &sc.hello
	sc.raw = v2.Append(sc.raw[:0])
	mustDecode(rec.ObserveWire(sc.raw, h))
	h.Fingerprint, h.Truth = "", truth
	sc.hellos.Intern(rec, h)
	res := handshake.NegotiateSSLv2(v2, serverCfg)
	if res.OK {
		rec.Established = true
		rec.Version = registry.VersionSSL2
		rec.Suite = res.Suite
	} else {
		rec.AlertDesc = res.Alert.Description
	}
}
