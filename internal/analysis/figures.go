// Package analysis turns aggregated Notary data into the paper's figures
// and summary statistics: monthly percentage series (Figures 1–10), the
// §4.1 fingerprint lifetime report and the §5/§6 scalar findings. All
// queries evaluate against a columnar Frame snapshot (frame.go) through the
// declarative figure catalog (catalog.go); renderers produce aligned text
// tables and ASCII charts, one per artifact.
package analysis

import (
	"sort"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Point is one monthly value of a series.
type Point struct {
	Month timeline.Month
	Value float64 // percentage 0..100 (NaN-free; missing months are skipped)
}

// Series is a named monthly percentage series.
type Series struct {
	Name   string
	Points []Point
	// index maps a month to its offset in Points. Frame-built series share
	// the frame's month index, so Value is O(1); hand-built series leave it
	// nil and fall back to a linear scan.
	index map[timeline.Month]int
}

// Value returns the series value at m, ok=false when absent.
func (s *Series) Value(m timeline.Month) (float64, bool) {
	if s.index != nil {
		if i, ok := s.index[m]; ok && i < len(s.Points) && s.Points[i].Month == m {
			return s.Points[i].Value, true
		}
		return 0, false
	}
	for _, p := range s.Points {
		if p.Month == m {
			return p.Value, true
		}
	}
	return 0, false
}

// Figure is a reproduced figure: an identifier, its series and the attack
// events drawn as vertical markers.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Events []timeline.Event
}

func attackEvents(names ...string) []timeline.Event {
	var out []timeline.Event
	for _, e := range timeline.Events() {
		for _, n := range names {
			if e.Name == n {
				out = append(out, e)
			}
		}
	}
	return out
}

// TLS13VariantShare is one advertised TLS 1.3 variant's share of
// variant-bearing hellos (§6.4: 0x7e02 at 82.3%, draft-18 at 13.4%).
type TLS13VariantShare struct {
	Variant registry.Version
	Share   float64
}

// TLS13VariantSharesFrame computes the advertised-variant split over all
// months of the frame.
func TLS13VariantSharesFrame(f *Frame) []TLS13VariantShare {
	grand := 0
	totals := make(map[registry.Version]int)
	for _, k := range f.cells.keys {
		if k.fam == famTLS13 {
			n := sumCol(f.keyed(k))
			totals[registry.Version(k.num)] = n
			grand += n
		}
	}
	out := make([]TLS13VariantShare, 0, len(totals))
	for v, n := range totals {
		out = append(out, TLS13VariantShare{Variant: v, Share: 100 * float64(n) / float64(grand)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Variant < out[j].Variant
	})
	return out
}
