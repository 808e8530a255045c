package timeline

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDateOrdering(t *testing.T) {
	a := D(2014, time.April, 7)
	b := D(2014, time.October, 14)
	if !a.Before(b) || b.Before(a) || !b.After(a) {
		t.Error("date ordering broken")
	}
	if a.Before(a) || a.After(a) {
		t.Error("date self-comparison broken")
	}
	if got := b.DaysSince(a); got != 190 {
		t.Errorf("DaysSince = %d, want 190", got)
	}
	if got := D(1970, time.January, 1).DayNumber(); got != 0 {
		t.Errorf("DayNumber(1970-01-01) = %d, want 0", got)
	}
}

// refDaysSince is the time.Time formula DaysSince replaced: two time.Date
// values, their Duration, whole days truncated toward zero.
func refDaysSince(d, other Date) int {
	t := func(d Date) time.Time { return time.Date(d.Year, d.Month, d.Day, 0, 0, 0, 0, time.UTC) }
	return int(t(d).Sub(t(other)) / (24 * time.Hour))
}

// DaysSince equals the time.Time formula on calendar dates, on days past
// their month's end (which a record decoder accepts and time.Date rolls
// over), on months outside 1–12, and where the formula saturates because the
// span overflows a time.Duration.
func TestDaysSinceMatchesTimeFormula(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	check := func(d, o Date) {
		t.Helper()
		if got, want := d.DaysSince(o), refDaysSince(d, o); got != want {
			t.Fatalf("%+v.DaysSince(%+v) = %d, time formula %d", d, o, got, want)
		}
	}
	year := func() int { return 1 + rnd.Intn(9999) }
	// near is a year less than 292 years from y, so a pair spanning it is
	// exact, not saturated.
	near := func(y int) int { return y - 290 + rnd.Intn(581) }
	for y := 1; y <= 9999; y += 1 + rnd.Intn(7) {
		for m := time.January; m <= time.December; m++ {
			for day := 28; day <= 32; day++ {
				d := D(y, m, day)
				check(d, D(y, time.January, 1))
				check(D(1970, time.January, 1), d)
				check(d, D(near(y), time.Month(1+rnd.Intn(12)), 1+rnd.Intn(31)))
			}
		}
	}
	// Months and days anywhere time.Date normalises them, down to the years
	// before year 1 that early months and days carry into.
	for y := 1; y <= 3; y++ {
		for m := time.Month(-40); m <= 15; m++ {
			for day := -40; day <= 40; day += 3 {
				check(D(y, m, day), D(1, time.January, 1))
			}
		}
	}
	wild := func(y int) Date { return D(y, time.Month(rnd.Intn(61)-30), rnd.Intn(101)-35) }
	for i := 0; i < 20000; i++ {
		d := wild(year())
		o := wild(near(d.Year))
		check(d, o)
		check(o, d)
	}
	// Saturation: time.Duration spans about 292 years, so these pairs pin the
	// formula's clamp at ±106,751 days, and the spans either side of it.
	for i := 0; i < 20000; i++ {
		y := 1 + rnd.Intn(9000)
		d := D(y, time.Month(1+rnd.Intn(12)), 1+rnd.Intn(31))
		o := D(y+285+rnd.Intn(700), time.Month(1+rnd.Intn(12)), 1+rnd.Intn(31))
		check(d, o)
		check(o, d)
	}
	edge := D(2000, time.January, 1)
	for span := maxDays - 3; span <= maxDays+3; span++ {
		check(D(2000, time.January, 1+span), edge)
		check(edge, D(2000, time.January, 1+span))
	}
}

// DaysSince and DayNumber are plain integer arithmetic.
func TestDaysSinceAllocs(t *testing.T) {
	a, b := D(2014, time.April, 7), D(2018, time.February, 31)
	if got := testing.AllocsPerRun(100, func() { _ = b.DaysSince(a) + a.DayNumber() }); got != 0 {
		t.Errorf("DaysSince: %v allocs/run, want 0", got)
	}
}

func TestMonthArithmetic(t *testing.T) {
	m := M(2012, time.December)
	if m.Next() != M(2013, time.January) {
		t.Error("Next across year boundary")
	}
	if m.AddMonths(14) != M(2014, time.February) {
		t.Errorf("AddMonths(14) = %v", m.AddMonths(14))
	}
	if m.AddMonths(-12) != M(2011, time.December) {
		t.Errorf("AddMonths(-12) = %v", m.AddMonths(-12))
	}
	if M(2018, time.April).Sub(M(2012, time.February)) != 74 {
		t.Error("study window should span 74 month-steps")
	}
}

func TestMonthAddSubProperty(t *testing.T) {
	f := func(y uint8, mo uint8, n int16) bool {
		m := M(2000+int(y%30), time.Month(mo%12)+1)
		shifted := m.AddMonths(int(n))
		return shifted.Sub(m) == int(n) && shifted.AddMonths(-int(n)) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStudyMonths(t *testing.T) {
	months := MonthsBetween(StudyStart, StudyEnd)
	if len(months) != 75 {
		t.Fatalf("study window = %d months, want 75 (Feb 2012 .. Apr 2018)", len(months))
	}
	if months[0] != StudyStart || months[len(months)-1] != StudyEnd {
		t.Error("study window endpoints wrong")
	}
	for i := 1; i < len(months); i++ {
		if months[i].Sub(months[i-1]) != 1 {
			t.Fatal("non-contiguous study months")
		}
	}
}

func TestMonthsBetweenEmpty(t *testing.T) {
	if got := MonthsBetween(M(2018, time.April), M(2012, time.February)); got != nil {
		t.Error("reversed range should be empty")
	}
}

func TestMonthOfAndStrings(t *testing.T) {
	d := D(2015, time.March, 3)
	if MonthOf(d) != M(2015, time.March) {
		t.Error("MonthOf broken")
	}
	if d.String() != "2015-03-03" {
		t.Errorf("Date.String = %s", d)
	}
	if MonthOf(d).String() != "2015-03" {
		t.Errorf("Month.String = %s", MonthOf(d))
	}
	if MonthOf(d).Mid().Day != 15 {
		t.Error("Mid day wrong")
	}
}

func TestEventCatalogue(t *testing.T) {
	evs := Events()
	if len(evs) < 10 {
		t.Fatalf("expected ≥10 events, got %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Date.Before(evs[i-1].Date) {
			t.Errorf("events out of order: %s before %s", evs[i].Name, evs[i-1].Name)
		}
	}
	// Disclosure dates from §2.2.
	checks := map[string]Date{
		EventBEAST:      D(2011, time.September, 6),
		EventLucky13:    D(2012, time.December, 6),
		EventRC4:        D(2013, time.March, 12),
		EventPOODLE:     D(2014, time.October, 14),
		EventFREAK:      D(2015, time.March, 3),
		EventLogjam:     D(2015, time.May, 20),
		EventSweet32:    D(2016, time.August, 31),
		EventHeartbleed: D(2014, time.April, 7),
	}
	for _, e := range evs {
		if want, ok := checks[e.Name]; ok && e.Date != want {
			t.Errorf("%s dated %v, want %v", e.Name, e.Date, want)
		}
		delete(checks, e.Name)
	}
	for name := range checks {
		t.Errorf("%s is not in Events()", name)
	}
}

func TestEventsBefore(t *testing.T) {
	pre2014 := 0
	for _, e := range Events() {
		if e.Date.Before(D(2014, time.January, 1)) {
			pre2014++
		}
	}
	if pre2014 != 4 { // BEAST, Lucky13, RC4, Snowden
		t.Errorf("%d events before 2014, want 4", pre2014)
	}
}
