// Package timeline provides the study's notion of time: civil dates and
// months with no wall-clock dependence, the Feb 2012 – Apr 2018 observation
// window, and the catalogue of TLS attack disclosures and ecosystem events
// (§2.2 of the paper) that drive the population models.
package timeline

import (
	"fmt"
	"math"
	"time"
)

// Date is a civil calendar date. The zero value is invalid.
type Date struct {
	Year  int
	Month time.Month
	Day   int
}

// D is shorthand for constructing a Date.
func D(year int, month time.Month, day int) Date { return Date{year, month, day} }

// String renders the date as YYYY-MM-DD.
func (d Date) String() string { return fmt.Sprintf("%04d-%02d-%02d", d.Year, d.Month, d.Day) }

// Before reports whether d is strictly before other.
func (d Date) Before(other Date) bool {
	if d.Year != other.Year {
		return d.Year < other.Year
	}
	if d.Month != other.Month {
		return d.Month < other.Month
	}
	return d.Day < other.Day
}

// After reports whether d is strictly after other.
func (d Date) After(other Date) bool { return other.Before(d) }

// DayNumber returns d's civil day number, the days from 1970-01-01 to d. A
// month outside 1–12 carries into the year and a day outside its month into
// the neighbouring months, as time.Date normalises them: 2015-02-31 is
// 2015-03-03's number.
func (d Date) DayNumber() int {
	y, m := d.Year, int(d.Month)-1
	y, m = y+m/12, m%12
	if m < 0 {
		y, m = y-1, m+12
	}
	// Count years from March (days-from-civil), so a leap day ends its year.
	if m < 2 {
		y, m = y-1, m+10
	} else {
		m -= 2
	}
	era := y / 400
	if y < 0 {
		era = (y - 399) / 400
	}
	yoe := y - era*400
	return era*146097 + yoe*365 + yoe/4 - yoe/100 + (153*m+2)/5 + d.Day - 1 - 719468
}

// maxDays is the longest span a time.Duration holds, in whole days: 106,751
// (about 292 years).
const maxDays = int(math.MaxInt64 / int64(24*time.Hour))

// DaysSince returns the (possibly negative) number of days from other to d.
// It is exact integer arithmetic on the two day numbers, so it normalises an
// out-of-range month or day as time.Date does, and it saturates at ±106,751
// days as time.Duration does: for every pair it equals the time.Time formula
// int(t(d).Sub(t(other)) / 24h) it replaced, without building either time.
func (d Date) DaysSince(other Date) int {
	return min(max(d.DayNumber()-other.DayNumber(), -maxDays), maxDays)
}

// Month identifies one calendar month, the aggregation granularity of every
// figure in the paper.
type Month struct {
	Year int
	M    time.Month
}

// M is shorthand for constructing a Month.
func M(year int, month time.Month) Month { return Month{year, month} }

// MonthOf returns the month containing d.
func MonthOf(d Date) Month { return Month{d.Year, d.Month} }

// String renders the month as YYYY-MM.
func (m Month) String() string { return fmt.Sprintf("%04d-%02d", m.Year, m.M) }

// Mid returns the 15th, used as the representative sampling date of a month.
func (m Month) Mid() Date { return Date{m.Year, m.M, 15} }

// Next returns the following month.
func (m Month) Next() Month {
	if m.M == time.December {
		return Month{m.Year + 1, time.January}
	}
	return Month{m.Year, m.M + 1}
}

// Index returns the number of months from Jan 0001, giving Months a total
// order usable as a slice index offset.
func (m Month) Index() int { return m.Year*12 + int(m.M) - 1 }

// Before reports whether m is strictly before other.
func (m Month) Before(other Month) bool { return m.Index() < other.Index() }

// Sub returns the number of months from other to m.
func (m Month) Sub(other Month) int { return m.Index() - other.Index() }

// AddMonths returns the month n months after m (n may be negative).
func (m Month) AddMonths(n int) Month {
	idx := m.Index() + n
	return Month{idx / 12, time.Month(idx%12 + 1)}
}

// Study window bounds: the Notary collection runs February 2012 through
// April 2018 in the paper's figures.
var (
	StudyStart = M(2012, time.February)
	StudyEnd   = M(2018, time.April)
)

// MonthsBetween returns every month from first to last inclusive.
func MonthsBetween(first, last Month) []Month {
	if last.Before(first) {
		return nil
	}
	out := make([]Month, 0, last.Sub(first)+1)
	for m := first; !last.Before(m); m = m.Next() {
		out = append(out, m)
	}
	return out
}
