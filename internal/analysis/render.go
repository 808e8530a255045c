package analysis

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"tlsage/internal/timeline"
)

// RenderTable writes the figure as an aligned text table: one row per month,
// one column per series, with attack-event annotations inline.
func (f *Figure) RenderTable(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n%-8s", f.ID, f.Title, "month")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	b.WriteString("\n")
	eventsByMonth := map[timeline.Month][]string{}
	for _, e := range f.Events {
		m := timeline.MonthOf(e.Date)
		eventsByMonth[m] = append(eventsByMonth[m], e.Name)
	}
	for _, m := range f.months() {
		fmt.Fprintf(&b, "%-8s", m)
		for _, s := range f.Series {
			if v, ok := s.Value(m); ok {
				fmt.Fprintf(&b, " %17.2f%%", v)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		if names := eventsByMonth[m]; len(names) > 0 {
			b.WriteString("   ← " + strings.Join(names, ", "))
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderChart writes a compact ASCII chart of the figure (one glyph per
// series) sized width×height, plus a legend.
func (f *Figure) RenderChart(w io.Writer, width, height int) error {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 16
	}
	months := f.months()
	if len(months) == 0 {
		_, err := fmt.Fprintf(w, "%s: no data\n", f.ID)
		return err
	}
	glyphs := []byte{'A', 'C', 'R', 'D', 'T', 'E', 'N', 'x', 'o', '+'}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	maxVal := 0.0
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Value > maxVal {
				maxVal = p.Value
			}
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}
	span := months[len(months)-1].Sub(months[0])
	if span == 0 {
		span = 1
	}
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Points {
			x := (p.Month.Sub(months[0]) * (width - 1)) / span
			yf := p.Value / maxVal
			y := height - 1 - int(math.Round(yf*float64(height-1)))
			grid[min(max(y, 0), height-1)][x] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s  (max %.1f%%)\n", f.ID, f.Title, maxVal)
	for _, row := range grid {
		fmt.Fprintf(&b, "|%s|\n", row)
	}
	fmt.Fprintf(&b, "%s%s%s\n", months[0], strings.Repeat(" ", max(1, width-14)), months[len(months)-1])
	legend := make([]string, 0, len(f.Series))
	for si, s := range f.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Name))
	}
	b.WriteString(strings.Join(legend, "  ") + "\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// months returns the distinct months of the figure's points, in order.
func (f *Figure) months() []timeline.Month {
	seen := map[timeline.Month]bool{}
	var out []timeline.Month
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.Month] {
				seen[p.Month] = true
				out = append(out, p.Month)
			}
		}
	}
	slices.SortFunc(out, func(a, b timeline.Month) int { return a.Sub(b) })
	return out
}
