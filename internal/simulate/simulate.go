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
	// Start and End bound the simulated window (inclusive). Zero values
	// default to the study window (Feb 2012 – Apr 2018).
	Start, End timeline.Month
	// WireLevel round-trips every hello through the binary codec, exactly as
	// the Notary would observe it. Disabling it is the struct-only ablation.
	WireLevel bool
	// FingerprintFrom is the month fingerprinting fields become available
	// (the Notary gained them in February 2014, §4.0.1). Records before it
	// carry no fingerprint.
	FingerprintFrom timeline.Month
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
		WireLevel:           true,
		FingerprintFrom:     timeline.M(2014, time.February),
	}
}

// Simulator generates the passive dataset.
type Simulator struct {
	Clients *population.ClientPopulation
	Servers *population.ServerPopulation
	opts    Options
}

// New builds a simulator over the default populations.
func New(opts Options) *Simulator {
	if opts.Start == (timeline.Month{}) {
		opts.Start = timeline.StudyStart
	}
	if opts.End == (timeline.Month{}) {
		opts.End = timeline.StudyEnd
	}
	if opts.FingerprintFrom == (timeline.Month{}) {
		opts.FingerprintFrom = timeline.M(2014, time.February)
	}
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
	if w > months {
		w = months
	}
	if w < 1 {
		w = 1
	}
	return w
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

// scratch is the per-worker reusable state: wire encode buffers, the
// randomizer shuffle buffer and the offered side of the connection being
// simulated, reused across every connection the worker simulates, and the
// table that interns that offered side. A scratch must not be shared between
// goroutines.
type scratch struct {
	enc    wire.HelloEncoder
	raw    []byte
	suites []uint16
	hello  notary.Hello
	hellos notary.HelloTable
}

// runMonth simulates one month's connections in order, invoking observe for
// each record. The record is refilled for the next connection once observe
// returns.
func (s *Simulator) runMonth(m timeline.Month, sc *scratch, observe func(*notary.Record) error) error {
	rnd := s.monthRNG(m)
	var rec notary.Record
	for i := 0; i < s.opts.ConnectionsPerMonth; i++ {
		if err := s.connection(&rec, m, rnd, sc); err != nil {
			return err
		}
		sc.hellos.Intern(&rec, &sc.hello)
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

	type monthOut struct {
		recs []notary.Record
		err  error
	}
	outs := make([]chan monthOut, len(months))
	for i := range outs {
		outs[i] = make(chan monthOut, 1)
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
					outs[idx] <- monthOut{}
					continue
				}
				recs := make([]notary.Record, 0, s.opts.ConnectionsPerMonth)
				err := s.runMonth(months[idx], &sc, func(r *notary.Record) error {
					recs = append(recs, *r)
					return nil
				})
				if err != nil {
					aborted.Store(true)
				}
				outs[idx] <- monthOut{recs: recs, err: err}
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
		out := <-outs[i]
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
		for j := range out.recs {
			if firstErr != nil {
				break
			}
			if err := sink.Observe(&out.recs[j]); err != nil {
				firstErr = err
				aborted.Store(true)
			}
		}
		<-sem
	}
	return firstErr
}

// connection simulates one observed connection in month m into rec, and its
// offered side into sc.hello.
func (s *Simulator) connection(rec *notary.Record, m timeline.Month, rnd *rand.Rand, sc *scratch) error {
	date := timeline.Date{Year: m.Year, Month: m.M, Day: 1 + rnd.Intn(28)}
	profile, relIdx := s.Clients.Sample(date, rnd)
	rel := profile.Releases[relIdx]
	cfg := rel.Config

	_, serverCfg := s.Servers.SampleForClient(profile.Name, date, rnd)

	*rec = notary.Record{Date: date, ServerCohort: serverCfg.Name}
	h := &sc.hello
	h.Fingerprint, h.Truth = "", profile.Name

	// The Nagios monitoring traffic opens with SSLv2-compatible hellos part
	// of the time (§5.1).
	if cfg.SSLv2Compat && rnd.Float64() < 0.3 {
		return s.sslv2Connection(rec, h, &cfg, serverCfg, rnd)
	}

	hello, err := s.buildHello(&cfg, profile.Name, rnd, sc, false)
	if err != nil {
		return err
	}
	s.observe(rec, h, hello)

	res := handshake.Negotiate(hello, serverCfg)

	// Version fallback dance: real pre-2015 clients retried failed
	// handshakes at lower versions (and Firefox's RC4-fallback retried with
	// RC4 restored).
	if !res.OK && (cfg.SSL3Fallback || cfg.RC4FallbackOnly) {
		for _, v := range fallbackVersions(&cfg) {
			fb := cfg
			fb.LegacyVersion = v
			fb.SupportedVersions = nil
			retryHello, err := s.buildHello(&fb, profile.Name, rnd, sc, true)
			if err != nil {
				return err
			}
			res = handshake.Negotiate(retryHello, serverCfg)
			if res.OK {
				rec.UsedFallback = true
				// The Notary sees the successful exchange's hello.
				s.observe(rec, h, retryHello)
				break
			}
		}
	}

	s.finishRecord(rec, &cfg, profile.Name, res)
	return nil
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

// buildHello constructs (and optionally wire-round-trips) a hello, reusing
// sc's buffers for the shuffle copy and the encoded bytes.
func (s *Simulator) buildHello(cfg *clientdb.Config, profileName string, rnd *rand.Rand, sc *scratch, fallback bool) (*wire.ClientHello, error) {
	working := cfg
	if profileName == clientdb.RandomizerProfileName {
		// The §4.1 randomizer: a fresh cipher order every connection.
		// BuildHello copies the list it is given, so the shuffle buffer can
		// be reused across connections.
		shuffled := *cfg
		shuffled.Suites = append(sc.suites[:0], cfg.Suites...)
		sc.suites = shuffled.Suites
		rnd.Shuffle(len(shuffled.Suites), func(i, j int) {
			shuffled.Suites[i], shuffled.Suites[j] = shuffled.Suites[j], shuffled.Suites[i]
		})
		working = &shuffled
	}
	hello := working.BuildHello(rnd, fallback)
	if !s.opts.WireLevel {
		return hello, nil
	}
	raw, err := sc.enc.AppendRecord(hello, sc.raw[:0])
	if err != nil {
		return nil, fmt.Errorf("simulate: encoding hello for %s: %w", profileName, err)
	}
	sc.raw = raw
	recBytes, _, err := wire.DecodeRecord(raw)
	if err != nil {
		return nil, err
	}
	_, body, _, err := wire.DecodeHandshake(recBytes.Payload)
	if err != nil {
		return nil, err
	}
	// The parsed hello copies everything out of the scratch buffer, so the
	// buffer is free for the next connection.
	var parsed wire.ClientHello
	if err := parsed.DecodeFromBytes(body); err != nil {
		return nil, fmt.Errorf("simulate: reparsing hello for %s: %w", profileName, err)
	}
	return &parsed, nil
}

// observe fills the record's client side, the lists into h, and fingerprints
// the lists it has just copied out of the hello.
func (s *Simulator) observe(rec *notary.Record, h *notary.Hello, hello *wire.ClientHello) {
	rec.FromClientHello(hello, h)
	h.Fingerprint = ""
	if !timeline.MonthOf(rec.Date).Before(s.opts.FingerprintFrom) && fingerprint.Usable(h.Suites) {
		h.Fingerprint = string(fingerprint.FromParts(h.Suites, h.Extensions, h.Curves, h.PointFmts))
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

// sslv2Connection handles the legacy SSLv2-compatible opening, its lists into
// h.
func (s *Simulator) sslv2Connection(rec *notary.Record, h *notary.Hello, cfg *clientdb.Config, serverCfg *handshake.ServerConfig, rnd *rand.Rand) error {
	v2 := &wire.SSLv2ClientHello{
		Version:     registry.VersionSSL2,
		CipherSpecs: []uint32{0x010080, 0x020080},
		Challenge:   make([]byte, 16),
	}
	for _, id := range cfg.Suites {
		v2.CipherSpecs = append(v2.CipherSpecs, uint32(id))
	}
	rnd.Read(v2.Challenge)
	if s.opts.WireLevel {
		raw, err := v2.MarshalBinary()
		if err != nil {
			return err
		}
		if err := rec.ObserveWire(raw, h); err != nil {
			return err
		}
	} else {
		rec.FromSSLv2Hello(v2, h)
	}
	res := handshake.NegotiateSSLv2(v2, serverCfg)
	if res.OK {
		rec.Established = true
		rec.Version = registry.VersionSSL2
		rec.Suite = res.Suite
	} else {
		rec.AlertDesc = res.Alert.Description
	}
	return nil
}
