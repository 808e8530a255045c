package core

import (
	"sync"
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/notary"
	"tlsage/internal/timeline"
)

// flightWaiters counts callers currently parked on in-flight computations —
// test-only visibility into the singleflight rendezvous.
func (s *Study) flightWaiters() int32 {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	var n int32
	for _, f := range s.flights {
		n += f.waiters.Load()
	}
	return n
}

func singleflightStudy(t *testing.T) *Study {
	t.Helper()
	s := NewStudy(20)
	s.Options.End = timeline.M(2012, time.June)
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	s.SetQueryCache(analysis.NewQueryCache(64, 1<<20), "sf")
	return s
}

// TestQuerySingleflight pins the dedup property deterministically: a hook
// gates the leader inside its computation, the test waits until every other
// caller is parked on the flight, then releases — exactly one compilation
// must have served all of them, with followers reporting cache hits.
func TestQuerySingleflight(t *testing.T) {
	s := singleflightStudy(t)
	const query = "pct(version:tls12 / established)"
	const callers = 8

	entered := make(chan struct{}, callers)
	release := make(chan struct{})
	s.testComputeHook = func() {
		entered <- struct{}{}
		<-release
	}
	s.compiles.Store(0)

	type outcome struct {
		res analysis.QueryResult
		gen uint64
		hit bool
		err error
	}
	outs := make([]outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, gen, hit, err := s.QueryInfoJSON(query)
			outs[i] = outcome{res, gen, hit, err}
		}(i)
	}

	// The leader is inside the gated computation; everyone else must end up
	// parked on its flight, not in computations of their own.
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for s.flightWaiters() != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers parked on the flight", s.flightWaiters(), callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-entered:
		t.Fatal("a second caller entered computation while the flight was open")
	default:
	}
	close(release)
	wg.Wait()

	if n := s.compiles.Load(); n != 1 {
		t.Fatalf("%d compilations for %d concurrent identical queries, want 1", n, callers)
	}
	misses := 0
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("caller %d: %v", i, o.err)
		}
		if !o.hit {
			misses++
		}
		if o.gen != outs[0].gen || o.res.Query != outs[0].res.Query ||
			len(o.res.Series.Points) != len(outs[0].res.Series.Points) {
			t.Fatalf("caller %d diverged: %+v vs %+v", i, o, outs[0])
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers reported a miss, want exactly the leader", misses)
	}

	// The flight table drains once the flight lands.
	s.flightMu.Lock()
	open := len(s.flights)
	s.flightMu.Unlock()
	if open != 0 {
		t.Fatalf("%d flights still registered after completion", open)
	}
}

// TestQuerySingleflightDistinctQueries checks that different queries never
// rendezvous on each other: two gated computations must be in progress at
// once.
func TestQuerySingleflightDistinctQueries(t *testing.T) {
	s := singleflightStudy(t)
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.testComputeHook = func() {
		entered <- struct{}{}
		<-release
	}
	s.compiles.Store(0)

	var wg sync.WaitGroup
	for _, q := range []string{"count(total)", "count(established)"} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			if _, err := s.Query(q); err != nil {
				t.Error(err)
			}
		}(q)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("distinct queries serialized behind one flight")
		}
	}
	close(release)
	wg.Wait()
	if n := s.compiles.Load(); n != 2 {
		t.Fatalf("%d compilations for 2 distinct queries, want 2", n)
	}
}

// TestQuerySingleflightAcrossGenerations ensures a flight's key includes the
// generation: after ingestion advances the study, the same query text misses
// the cache and compiles again rather than reusing the stale flight result.
func TestQuerySingleflightAcrossGenerations(t *testing.T) {
	s := singleflightStudy(t)
	const query = "count(total)"
	if _, err := s.Query(query); err != nil {
		t.Fatal(err)
	}
	before := s.compiles.Load()

	donor := notary.NewAggregate()
	donor.Add(&notary.Record{Date: timeline.D(2012, time.March, 3)})
	if err := s.MergeShard(donor); err != nil {
		t.Fatal(err)
	}
	res, _, _, hit, err := s.QueryInfoJSON(query)
	if err != nil || hit {
		t.Fatalf("post-ingest query: err=%v hit=%v, want a fresh miss", err, hit)
	}
	if got := s.compiles.Load(); got != before+1 {
		t.Fatalf("compiles %d → %d across a generation, want one more", before, got)
	}
	if res.Kind != "scalar" {
		t.Fatalf("unexpected result kind %q", res.Kind)
	}
}

// TestPlanCompilesCountsMisses pins PlanCompiles as the number of queries
// that were neither a result-cache hit nor a flight follower: every query
// without a cache, and with one only the first per (generation, canonical
// text) — a whitespace variant of a cached query does not compile.
func TestPlanCompilesCountsMisses(t *testing.T) {
	s := NewStudy(20)
	s.Options.End = timeline.M(2012, time.June)
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	const q = "pct(version:tls12 / established)"
	queries := []string{q, q, "pct( version:tls12 / established )", "count(established)", q}

	// run issues the queries and returns how many reported a miss.
	run := func() (misses uint64) {
		t.Helper()
		for _, src := range queries {
			_, _, _, hit, err := s.QueryInfoJSON(src)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				misses++
			}
		}
		return misses
	}

	if misses := run(); misses != uint64(len(queries)) || s.PlanCompiles() != misses {
		t.Fatalf("no cache: %d misses, %d compiles, want %d each", misses, s.PlanCompiles(), len(queries))
	}

	s.SetQueryCache(analysis.NewQueryCache(64, 1<<20), "compiles")
	before := s.PlanCompiles()
	if misses := run(); misses != 2 || s.PlanCompiles()-before != misses {
		t.Fatalf("cached: %d misses, %d compiles, want 2 each (two canonical texts)",
			misses, s.PlanCompiles()-before)
	}

	// Ingest moves the generation: each canonical text compiles once more.
	donor := notary.NewAggregate()
	donor.Add(&notary.Record{Date: timeline.D(2012, time.March, 3)})
	if err := s.MergeShard(donor); err != nil {
		t.Fatal(err)
	}
	before = s.PlanCompiles()
	if misses := run(); misses != 2 || s.PlanCompiles()-before != misses {
		t.Fatalf("after ingest: %d misses, %d compiles, want 2 each", misses, s.PlanCompiles()-before)
	}
}
