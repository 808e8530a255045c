// Package timeline provides the study's notion of time: civil dates and
// months with no wall-clock dependence, the Feb 2012 – Apr 2018 observation
// window, and the catalogue of TLS attack disclosures and ecosystem events
// (§2.2 of the paper) that drive the population models.
package timeline

import (
	"fmt"
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

// Time converts to a time.Time at midnight UTC.
func (d Date) Time() time.Time {
	return time.Date(d.Year, d.Month, d.Day, 0, 0, 0, 0, time.UTC)
}

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

// AtOrAfter reports whether d is on or after other.
func (d Date) AtOrAfter(other Date) bool { return !d.Before(other) }

// DaysSince returns the (possibly negative) number of days from other to d.
func (d Date) DaysSince(other Date) int {
	return int(d.Time().Sub(other.Time()) / (24 * time.Hour))
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
