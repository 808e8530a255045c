// Package adoption models how populations take up (or abandon) software
// versions and configurations over time. It is the quantitative heart of the
// reproduction: every "slow to drop support" long-tail effect the paper
// reports (§4.1, §7.2) emerges from the lag distributions defined here
// rather than from hand-drawn curves.
//
// Three primitives cover everything the population models need:
//
//   - Curve: a deterministic share-over-time function in [0,1], with
//     constant, piecewise-linear and exponential-decay implementations.
//   - LagDistribution: the CDF of "time from release to user upgrade",
//     mixing fast updaters (browsers with auto-update), slow updaters
//     (OS-bundled libraries) and a never-updating remnant (abandoned
//     devices).
//   - VersionMix: given a product's release history and a LagDistribution,
//     the share of the installed base on each version at any date.
package adoption

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"tlsage/internal/timeline"
)

// Curve is a deterministic time-varying share in [0,1].
type Curve interface {
	// Value returns the share at date d, always within [0,1].
	Value(d timeline.Date) float64
}

// Constant is a Curve pinned at a fixed share.
type Constant float64

// Value implements Curve.
func (c Constant) Value(timeline.Date) float64 { return clamp01(float64(c)) }

// Point is one knot of a piecewise-linear curve.
type Point struct {
	Date  timeline.Date
	Value float64
}

// Piecewise interpolates linearly between knots, holding the first and last
// values outside the knot range. Construct with NewPiecewise, which sorts
// and validates the knots and numbers their days once (timeline's
// DayNumber), so Value numbers one date and searches integers.
type Piecewise struct {
	points []Point
	days   []int // days[i] is points[i].Date's day number, strictly ascending
}

// NewPiecewise builds a piecewise-linear curve from at least one knot.
func NewPiecewise(points ...Point) (*Piecewise, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("adoption: piecewise curve needs at least one point")
	}
	sorted := slices.Clone(points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Date.DayNumber() < sorted[j].Date.DayNumber() })
	days := make([]int, len(sorted))
	for i, p := range sorted {
		days[i] = p.Date.DayNumber()
		if i > 0 && days[i] == days[i-1] {
			return nil, fmt.Errorf("adoption: duplicate knot date %v", p.Date)
		}
	}
	return &Piecewise{points: sorted, days: days}, nil
}

// MustPiecewise is NewPiecewise panicking on error, for static tables.
func MustPiecewise(points ...Point) *Piecewise {
	p, err := NewPiecewise(points...)
	if err != nil {
		panic(err)
	}
	return p
}

// Value implements Curve.
func (p *Piecewise) Value(d timeline.Date) float64 {
	x, days := d.DayNumber(), p.days
	last := len(days) - 1
	if x < days[0] {
		return clamp01(p.points[0].Value)
	}
	if x >= days[last] {
		return clamp01(p.points[last].Value)
	}
	// Invariant: days[i] ≤ x < days[i+1] for the i found.
	i, found := slices.BinarySearch(days, x)
	if !found {
		i--
	}
	a, b := p.points[i], p.points[i+1]
	frac := float64(x-days[i]) / float64(days[i+1]-days[i])
	return clamp01(a.Value + frac*(b.Value-a.Value))
}

// Decay is an exponential decline from From toward To starting at Start,
// with the given half-life. Before Start it holds From. This models
// post-attack patch rollouts (fast half-life, e.g. Heartbleed) and long-tail
// abandonment (multi-year half-life, e.g. SSL 3 server support).
type Decay struct {
	Start        timeline.Date
	From, To     float64
	HalfLifeDays float64
}

// Value implements Curve.
func (c Decay) Value(d timeline.Date) float64 {
	if d.Before(c.Start) || c.HalfLifeDays <= 0 {
		return clamp01(c.From)
	}
	elapsed := float64(d.DaysSince(c.Start))
	rem := math.Exp2(-elapsed / c.HalfLifeDays)
	return clamp01(c.To + (c.From-c.To)*rem)
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}
