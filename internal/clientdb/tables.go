package clientdb

import (
	"fmt"
	"strings"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// TableRow is one change row of Tables 3, 4 or 5: a browser release that
// altered the count of some suite class.
type TableRow struct {
	Browser string
	Version string
	Date    timeline.Date
	Before  int
	After   int
	// Note carries qualitative states ("fallback only", "removed
	// completely") for Table 4.
	Note string
}

// String renders the row the way the paper's tables do.
func (r TableRow) String() string {
	change := fmt.Sprintf("%d → %d", r.Before, r.After)
	if r.Note != "" {
		change += " (" + r.Note + ")"
	}
	return fmt.Sprintf("%-8s %-6s %s  %s", r.Browser, r.Version, r.Date, change)
}

// suiteCountRows walks browser release histories and emits one row per
// release that changed the count of suites matching pred. RC4 fallback-only
// transitions are annotated when trackFallback is set (Table 4 semantics).
func suiteCountRows(pred func(registry.Suite) bool, trackFallback bool) []TableRow {
	var rows []TableRow
	for _, p := range BrowserProfiles() {
		prev := -1
		prevFallback := false
		for i, rel := range p.Releases {
			n := rel.Config.CountWhere(pred)
			fb := trackFallback && rel.Config.RC4FallbackOnly
			if i == 0 {
				prev, prevFallback = n, fb
				continue
			}
			if n != prev || fb != prevFallback {
				row := TableRow{Browser: p.Name, Version: rel.Version, Date: rel.Date, Before: prev, After: n}
				if trackFallback {
					switch {
					case fb && !prevFallback:
						row.Note = "fallback only"
					case n == 0 && !fb && (prev > 0 || prevFallback):
						row.Note = "removed completely"
					}
				}
				rows = append(rows, row)
				prev, prevFallback = n, fb
			}
		}
	}
	return rows
}

// Table3CBC reproduces Table 3: changes in the number of CBC cipher suites
// offered by major browsers. The count includes 3DES-CBC suites, as the
// paper's does.
func Table3CBC() []TableRow {
	return suiteCountRows(registry.Suite.IsCBC, false)
}

// Table4RC4 reproduces Table 4: changes in browser RC4 support, including
// the Firefox fallback-only phase.
func Table4RC4() []TableRow {
	return suiteCountRows(registry.Suite.IsRC4, true)
}

// Table53DES reproduces Table 5: changes in browser 3DES support.
func Table53DES() []TableRow {
	return suiteCountRows(registry.Suite.Is3DES, false)
}

// VersionSupportRow is one row of Table 6: a browser release that changed
// protocol-version support.
type VersionSupportRow struct {
	Browser string
	Version string
	Date    timeline.Date
	Support string
}

// String renders the row.
func (r VersionSupportRow) String() string {
	return fmt.Sprintf("%-8s %-6s %s  %s", r.Browser, r.Version, r.Date, r.Support)
}

// Table6Versions reproduces Table 6: browser TLS version support changes —
// new maximum versions and SSL3-fallback removals.
func Table6Versions() []VersionSupportRow {
	var rows []VersionSupportRow
	for _, p := range BrowserProfiles() {
		prevMax := registry.Version(0)
		prevFallback := false
		for i, rel := range p.Releases {
			max := rel.Config.MaxVersion()
			fb := rel.Config.SSL3Fallback
			if i == 0 {
				prevMax, prevFallback = max, fb
				continue
			}
			var notes []string
			if max > prevMax {
				notes = append(notes, max.String()+" supported")
			}
			if prevFallback && !fb {
				notes = append(notes, "SSL 3 fallback removed")
			}
			if len(notes) > 0 {
				rows = append(rows, VersionSupportRow{
					Browser: p.Name, Version: rel.Version, Date: rel.Date,
					Support: strings.Join(notes, "; "),
				})
			}
			prevMax, prevFallback = max, fb
		}
	}
	return rows
}
