package main

import (
	"math"
	"sort"
	"strconv"
)

// metric is one reported number. N is the sample count behind a timing
// (zero for counts and ratios); Note carries the percentile a tail metric
// actually used. Raw is the value as measured when Value has been scaled to
// the reference pace (see pace), 0 otherwise.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
	Raw   float64 `json:"raw,omitempty"`
}

// tailCandidates are the percentiles a tail metric may report, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples. It works in whole permille so 99.9% of 10000 is 9990, not 9991.
func rank(n int, p float64) int {
	permille := int(math.Round(p * 10))
	return min(max((n*permille+999)/1000, 1), n)
}

// pickTail returns the highest candidate percentile, no higher than want,
// that still has at least minBeyond of n samples beyond it. ok is false when
// even the lowest candidate does not qualify; callers then report the median
// alone.
func pickTail(n int, want float64) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if c <= want && n > 0 && n-rank(n, c) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the acceptance rule for this benchmark is written
// in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// latencies collects per-operation durations in milliseconds.
type latencies []float64

// summary reports the median and the tail percentile of the samples; the
// tail is the highest percentile up to want that has minBeyond samples
// beyond it, and falls back to the median when none does.
func (l latencies) summary(want float64) (p50, tail metric) {
	s := sortedCopy(l)
	p50 = metric{Value: percentile(s, 50), Unit: "ms", N: len(s), Note: "p50"}
	tail = p50
	if p, ok := pickTail(len(s), want); ok {
		tail = metric{Value: percentile(s, p), Unit: "ms", N: len(s), Note: "p" + trimFloat(p)}
	}
	return p50, tail
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }
