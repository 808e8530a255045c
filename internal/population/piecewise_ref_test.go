package population

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"tlsage/internal/adoption"
	"tlsage/internal/timeline"
)

// refPiecewiseValue is the body adoption.Piecewise.Value had before it
// numbered its knots' days: a sort.Search over the dated knots, then the
// elapsed and span days through two time.Time values each.
func refPiecewiseValue(pts []adoption.Point, d timeline.Date) float64 {
	clamp01 := func(v float64) float64 {
		switch {
		case v < 0:
			return 0
		case v > 1:
			return 1
		}
		return v
	}
	daysSince := func(d, o timeline.Date) int {
		t := func(d timeline.Date) time.Time { return time.Date(d.Year, d.Month, d.Day, 0, 0, 0, 0, time.UTC) }
		return int(t(d).Sub(t(o)) / (24 * time.Hour))
	}
	if d.Before(pts[0].Date) {
		return clamp01(pts[0].Value)
	}
	last := pts[len(pts)-1]
	if !d.Before(last.Date) {
		return clamp01(last.Value)
	}
	i := sort.Search(len(pts), func(i int) bool { return d.Before(pts[i].Date) }) - 1
	a, b := pts[i], pts[i+1]
	span := daysSince(b.Date, a.Date)
	frac := float64(daysSince(d, a.Date)) / float64(span)
	return clamp01(a.Value + frac*(b.Value-a.Value))
}

// knots reads a Piecewise's sorted knots, which adoption keeps unexported.
func knots(t *testing.T, p *adoption.Piecewise) []adoption.Point {
	t.Helper()
	v := reflect.ValueOf(p).Elem().FieldByName("points")
	if !v.IsValid() || v.Len() == 0 {
		t.Fatal("adoption.Piecewise keeps no points field: update knots")
	}
	out := make([]adoption.Point, v.Len())
	for i := range out {
		k := v.Index(i)
		date := k.FieldByName("Date")
		out[i] = adoption.Point{
			Date: timeline.D(int(date.FieldByName("Year").Int()), time.Month(date.FieldByName("Month").Int()),
				int(date.FieldByName("Day").Int())),
			Value: k.FieldByName("Value").Float(),
		}
	}
	return out
}

// Every piecewise curve of the default client and server populations — the
// curves the simulator evaluates on every connection — gives the reference
// body's float64, bit for bit, on every day from 2011 through 2019.
func TestPiecewiseMatchesReferenceOnDefaults(t *testing.T) {
	curves := map[string]adoption.Curve{}
	for name, c := range defaultClientWeights {
		curves["client "+name] = c
	}
	sp := DefaultServers()
	for _, c := range sp.cohorts {
		for attr, curve := range map[string]adoption.Curve{"Traffic": c.Traffic, "Hosts": c.Hosts,
			"HeartbeatProb": c.HeartbeatProb, "SSL3Prob": c.SSL3Prob, "IntolerantProb": c.IntolerantProb, "RC4Prob": c.RC4Prob} {
			curves[c.Name+" "+attr] = curve
		}
	}
	checked := 0
	for name, c := range curves {
		p, ok := c.(*adoption.Piecewise)
		if !ok {
			continue
		}
		checked++
		pts := knots(t, p)
		for day := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC); day.Year() < 2020; day = day.AddDate(0, 0, 1) {
			d := timeline.D(day.Year(), day.Month(), day.Day())
			if got, want := p.Value(d), refPiecewiseValue(pts, d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s on %s: Value = %v, reference %v", name, d, got, want)
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d piecewise curves found in the default populations", checked)
	}
}
