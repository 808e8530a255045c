//go:build !race

package core

import (
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/timeline"
)

// TestStudyReadAllocs pins what a read of a settled study allocates (the
// race detector changes the counts, so this file builds without it): Frame
// on a current frame allocates nothing, and a cached QueryExprInfoJSON hit
// allocates only the three that build its cache key, the expression's
// canonical text.
func TestStudyReadAllocs(t *testing.T) {
	s := NewStudy(20)
	s.Options.End = timeline.M(2012, time.June)
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	s.SetQueryCache(analysis.NewQueryCache(64, 1<<20), "allocs")
	e, err := analysis.ParseQuery("pct(version:tls12 / established)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, hit, err := s.QueryExprInfoJSON(e); err != nil || hit {
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
		if _, _, _, hit, err := s.QueryExprInfoJSON(e); err != nil || !hit {
			t.Fatalf("repeat query: hit=%v err=%v, want a hit", hit, err)
		}
	}); n > 3 {
		t.Errorf("cached QueryExprInfoJSON hit: %v allocations, want at most 3", n)
	}
}
