package fingerprint

import (
	"math"
	"sort"

	"tlsage/internal/notary"
)

// DurationStats summarizes fingerprint lifetimes the way §4.1 reports them.
type DurationStats struct {
	Total          int
	SingleDay      int // fingerprints seen on one day only
	LongLived      int // fingerprints seen for more than LongLivedDays
	MedianDays     float64
	MeanDays       float64
	Q3Days         float64
	StdDevDays     float64
	MaxDays        int
	SingleDayConns int64 // connections attributable to single-day fingerprints
	LongLivedConns int64
	TotalConns     int64
}

// LongLivedDays is the §4.1 threshold: fingerprints seen for more than
// 1,200 days.
const LongLivedDays = 1200

// ComputeDurationStats derives §4.1's statistics from per-fingerprint
// lifetimes.
func ComputeDurationStats(durations []notary.FPDuration) DurationStats {
	var st DurationStats
	st.Total = len(durations)
	if st.Total == 0 {
		return st
	}
	days := make([]float64, len(durations))
	sum := 0.0
	for i, d := range durations {
		days[i] = float64(d.Days)
		sum += days[i]
		st.TotalConns += d.Connections
		if d.Days <= 1 {
			st.SingleDay++
			st.SingleDayConns += d.Connections
		}
		if d.Days > LongLivedDays {
			st.LongLived++
			st.LongLivedConns += d.Connections
		}
		if d.Days > st.MaxDays {
			st.MaxDays = d.Days
		}
	}
	sort.Float64s(days)
	st.MedianDays = quantile(days, 0.5)
	st.Q3Days = quantile(days, 0.75)
	st.MeanDays = sum / float64(len(days))
	varSum := 0.0
	for _, v := range days {
		varSum += (v - st.MeanDays) * (v - st.MeanDays)
	}
	st.StdDevDays = math.Sqrt(varSum / float64(len(days)))
	return st
}

// quantile returns the q-quantile of sorted values using linear
// interpolation between order statistics. sorted is not empty:
// ComputeDurationStats returns before it for no durations.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
