//go:build !race

package core

import (
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// TestStudyReadAllocs pins what a read of a settled study allocates (the
// race detector changes the counts, so this file builds without it): Frame
// on a current frame allocates nothing, and neither does a QueryInfoJSON hit
// on a repeated canonical text, which the cache answers before any parse.
func TestStudyReadAllocs(t *testing.T) {
	opts := simulate.DefaultOptions(20)
	opts.End = timeline.M(2012, time.June)
	s, err := Simulate(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetQueryCache(analysis.NewQueryCache(64, 1<<20), "allocs")
	const src = "pct(version:tls12 / established)"
	if _, _, _, hit, err := s.QueryInfoJSON(src); err != nil || hit {
		t.Fatalf("first query: hit=%v err=%v, want a miss", hit, err)
	}

	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Frame(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Frame on a current frame: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, hit, err := s.QueryInfoJSON(src); err != nil || !hit {
			t.Fatalf("repeat query: hit=%v err=%v, want a hit", hit, err)
		}
	}); n != 0 {
		t.Errorf("cached QueryInfoJSON hit: %v allocations, want 0", n)
	}
}
