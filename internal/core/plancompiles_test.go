package core

import (
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/notary"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// TestPlanCompilesCountsMisses pins PlanCompiles as the number of queries
// that were not a result-cache hit: every query without a cache, and with
// one only the first per (generation, canonical text) — a whitespace variant
// of a cached query does not compile.
func TestPlanCompilesCountsMisses(t *testing.T) {
	opts := simulate.DefaultOptions(20)
	opts.End = timeline.M(2012, time.June)
	s, err := Simulate(opts, nil)
	if err != nil {
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
