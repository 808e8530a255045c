package adoption

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"tlsage/internal/timeline"
)

func d(y int, m time.Month, day int) timeline.Date { return timeline.D(y, m, day) }

// plusDays is the calendar date n days after y-m-day.
func plusDays(y int, m time.Month, day, n int) timeline.Date {
	t := time.Date(y, m, day+n, 0, 0, 0, 0, time.UTC)
	return timeline.D(t.Year(), t.Month(), t.Day())
}

func TestConstant(t *testing.T) {
	if Constant(0.4).Value(d(2015, 1, 1)) != 0.4 {
		t.Error("constant broken")
	}
	if Constant(1.7).Value(d(2015, 1, 1)) != 1 || Constant(-3).Value(d(2015, 1, 1)) != 0 {
		t.Error("constant clamping broken")
	}
}

func TestPiecewise(t *testing.T) {
	p := MustPiecewise(
		Point{d(2012, 1, 1), 0.9},
		Point{d(2014, 1, 1), 0.5},
		Point{d(2016, 1, 1), 0.1},
	)
	if got := p.Value(d(2011, 1, 1)); got != 0.9 {
		t.Errorf("before first knot: %v", got)
	}
	if got := p.Value(d(2017, 1, 1)); got != 0.1 {
		t.Errorf("after last knot: %v", got)
	}
	if got := p.Value(d(2013, 1, 1)); math.Abs(got-0.7) > 0.01 {
		t.Errorf("interpolation: %v", got)
	}
	if got := p.Value(d(2014, 1, 1)); got != 0.5 {
		t.Errorf("exact knot: %v", got)
	}
}

func TestPiecewiseValidation(t *testing.T) {
	if _, err := NewPiecewise(); err == nil {
		t.Error("empty piecewise accepted")
	}
	if _, err := NewPiecewise(Point{d(2012, 1, 1), 0.5}, Point{d(2012, 1, 1), 0.7}); err == nil {
		t.Error("duplicate knots accepted")
	}
	// Unsorted input is sorted.
	p := MustPiecewise(Point{d(2014, 1, 1), 1}, Point{d(2012, 1, 1), 0})
	if p.Value(d(2012, 1, 1)) != 0 {
		t.Error("unsorted knots not handled")
	}
	// A static table with duplicate knots panics at MustPiecewise.
	defer func() {
		if recover() == nil {
			t.Error("MustPiecewise accepted duplicate knots")
		}
	}()
	MustPiecewise(Point{d(2012, 1, 1), 0.5}, Point{d(2012, 1, 1), 0.7})
}

// Value numbers one date and searches the knots' day numbers in place.
func TestPiecewiseValueAllocs(t *testing.T) {
	p := MustPiecewise(Point{d(2012, 1, 1), 0.9}, Point{d(2014, 1, 1), 0.5}, Point{d(2016, 1, 1), 0.1})
	probe := d(2015, 3, 14)
	if got := testing.AllocsPerRun(100, func() { _ = p.Value(probe) }); got != 0 {
		t.Errorf("Piecewise.Value: %v allocs/run, want 0", got)
	}
}

func TestDecay(t *testing.T) {
	c := Decay{Start: d(2014, 4, 7), From: 0.24, To: 0.003, HalfLifeDays: 30}
	if got := c.Value(d(2014, 1, 1)); got != 0.24 {
		t.Errorf("before start = %v", got)
	}
	// One half-life later the excess over the floor halves.
	got := c.Value(d(2014, 5, 7))
	want := 0.003 + (0.24-0.003)*0.5
	if math.Abs(got-want) > 0.01 {
		t.Errorf("one half-life = %v, want ≈%v", got, want)
	}
	// Far future approaches the floor.
	if got := c.Value(d(2018, 1, 1)); math.Abs(got-0.003) > 1e-6 {
		t.Errorf("far future = %v", got)
	}
}

func TestCurvesBounded(t *testing.T) {
	curves := []Curve{
		Constant(0.5),
		MustPiecewise(Point{d(2013, 1, 1), 0.2}, Point{d(2015, 1, 1), 0.9}),
		Decay{Start: d(2014, 1, 1), From: 0.9, To: 0.05, HalfLifeDays: 200},
	}
	f := func(dayOffset uint16) bool {
		probe := plusDays(2012, time.January, 1, int(dayOffset)%3000)
		for _, c := range curves {
			v := c.Value(probe)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// validLag reports whether l's shares and time constants are in range: the
// check every static lag table (these, and clientdb's profiles) passes.
func validLag(l LagDistribution) bool {
	return l.FastShare >= 0 && l.NeverShare >= 0 && l.FastShare+l.NeverShare <= 1 &&
		l.FastTauDays > 0 && l.SlowTauDays > 0
}

func TestLagAdoptedMonotone(t *testing.T) {
	for _, lag := range []LagDistribution{BrowserLag, LibraryLag, DeviceLag} {
		if !validLag(lag) {
			t.Fatalf("invalid lag %+v", lag)
		}
		prev := -1.0
		for days := -10; days < 4000; days += 7 {
			v := lag.Adopted(days)
			if v < prev {
				t.Fatalf("Adopted not monotone at %d days", days)
			}
			if v < 0 || v > 1 {
				t.Fatalf("Adopted out of range at %d days: %v", days, v)
			}
			prev = v
		}
		// Asymptote bounded by 1 - NeverShare.
		if v := lag.Adopted(100000); v > 1-lag.NeverShare+1e-9 {
			t.Errorf("asymptote %v exceeds 1-NeverShare", v)
		}
	}
}

func TestLagValidate(t *testing.T) {
	bad := []LagDistribution{
		{FastShare: -0.1, FastTauDays: 10, SlowTauDays: 100},
		{FastShare: 0.8, NeverShare: 0.3, FastTauDays: 10, SlowTauDays: 100},
		{FastShare: 0.5, FastTauDays: 0, SlowTauDays: 100},
	}
	for i, l := range bad {
		if validLag(l) {
			t.Errorf("case %d: invalid lag accepted", i)
		}
	}
}

func TestVersionMixSumsToOne(t *testing.T) {
	releases := []Release{
		{"27", d(2014, 2, 4)},
		{"33", d(2014, 10, 14)},
		{"37", d(2015, 3, 31)},
		{"44", d(2016, 1, 26)},
	}
	f := func(dayOffset uint16) bool {
		probe := plusDays(2012, time.January, 1, int(dayOffset)%2500)
		mix := VersionMix(releases, probe, BrowserLag)
		if len(mix) != len(releases)+1 {
			return false
		}
		sum := 0.0
		for _, v := range mix {
			if v < -1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestVersionMixOutOfOrderReleases: a release listed after one it predates
// cannot be adopted by more of the base than its predecessor, so no share
// goes negative: the base that adopted the first release counts as on the
// second, and the first holds nothing.
func TestVersionMixOutOfOrderReleases(t *testing.T) {
	at := d(2018, 1, 1)
	alone := VersionMix([]Release{{"2016", d(2016, 1, 1)}}, at, BrowserLag)
	mix := VersionMix([]Release{{"2016", d(2016, 1, 1)}, {"2013", d(2013, 1, 1)}}, at, BrowserLag)
	if want := []float64{alone[0], 0, alone[1]}; !slices.Equal(mix, want) {
		t.Errorf("out-of-order mix = %v, want %v", mix, want)
	}
}

func TestVersionMixShape(t *testing.T) {
	releases := []Release{
		{"v1", d(2013, 1, 1)},
		{"v2", d(2015, 1, 1)},
	}
	// Before any release: everyone on pre-history.
	mix := VersionMix(releases, d(2012, 1, 1), BrowserLag)
	if mix[0] != 1 || mix[1] != 0 || mix[2] != 0 {
		t.Errorf("pre-release mix = %v", mix)
	}
	// Long after v1, before v2: most on v1.
	mix = VersionMix(releases, d(2014, 12, 1), BrowserLag)
	if mix[1] < 0.8 {
		t.Errorf("v1 share after 2 years = %v", mix[1])
	}
	// Long after v2: most on v2, but a long tail remains on v1 —
	// the paper's central long-tail observation.
	mix = VersionMix(releases, d(2018, 1, 1), BrowserLag)
	if mix[2] < 0.85 {
		t.Errorf("v2 share = %v", mix[2])
	}
	if tail := mix[0] + mix[1]; tail <= 0.005 {
		t.Errorf("long tail on old software vanished: %v", tail)
	}
	// Device-lag populations retain far more of the old versions.
	devMix := VersionMix(releases, d(2018, 1, 1), DeviceLag)
	if devMix[0]+devMix[1] < mix[0]+mix[1] {
		t.Errorf("device tail (%v) should exceed browser tail (%v)", devMix[0]+devMix[1], mix[0]+mix[1])
	}
	// Empty release history.
	empty := VersionMix(nil, d(2015, 1, 1), BrowserLag)
	if len(empty) != 1 || empty[0] != 1 {
		t.Errorf("empty mix = %v", empty)
	}
}
