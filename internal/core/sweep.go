package core

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// ScanSweep runs a sequence of scan campaigns across the Censys observation
// window (Aug 2015 – May 2018, §3.2), producing the temporal view of server
// behaviour the paper draws its §5 server-side conclusions from. Snapshots
// run concurrently on a pool of min(GOMAXPROCS, 4); each snapshot seeds its
// own RNG from the month index, so the output is identical for every pool
// width.
type ScanSweep struct {
	// Start and End bound the sweep (inclusive); defaults: Aug 2015 and
	// May 2018.
	Start, End timeline.Month
	// StepMonths is the snapshot spacing; default 3.
	StepMonths int
	// HostsPerSnapshot is the farm size per snapshot; default 150.
	HostsPerSnapshot int
	// Seed as in ScanCampaign; each snapshot adds its month index.
	Seed int64
	// PopularityWeighted selects the Alexa-style universe.
	PopularityWeighted bool
}

// RunReports executes the sweep — all snapshots on a bounded worker pool —
// and returns the raw per-month campaign reports in chronological order
// regardless of completion order: the input ScanAggregate folds for
// RenderSweep and for a delta pushed to /merge. On failure the reports stop
// before the (chronologically) first failing snapshot, and the error is the
// first failure's in time: a snapshot cancelled by another's failure is a
// knock-on effect and fails after it. As in ScanCampaign.Run, defaults are
// resolved into locals and the receiver is never written, so concurrent runs
// of one sweep value do not race.
func (s *ScanSweep) RunReports(ctx context.Context) ([]*CampaignReport, error) {
	start, end := cmp.Or(s.Start, timeline.M(2015, time.August)), cmp.Or(s.End, timeline.M(2018, time.May))
	step, hosts := positiveOr(s.StepMonths, 3), positiveOr(s.HostsPerSnapshot, 150)
	var months []timeline.Month
	for m := start; !end.Before(m); m = m.AddMonths(step) {
		months = append(months, m)
	}

	// Each snapshot already fans its probes out over scanWorkers scanner
	// goroutines and binds HostsPerSnapshot TCP listeners, so the pool stays
	// deliberately narrow.
	pool := min(runtime.GOMAXPROCS(0), 4, len(months))

	// A failed snapshot cancels the derived context so queued and in-flight
	// campaigns bail out instead of scanning to completion behind the error.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	reports := make([]*CampaignReport, len(months))
	var (
		fail  sync.Once
		first error
	)
	sem := make(chan struct{}, pool)
	var wg sync.WaitGroup
	for i, m := range months {
		wg.Add(1)
		go func(i int, m timeline.Month) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			campaign := &ScanCampaign{
				Date:               m.Mid(),
				Hosts:              hosts,
				Seed:               s.Seed + int64(m.Index()),
				PopularityWeighted: s.PopularityWeighted,
			}
			rep, err := campaign.Run(ctx)
			if err != nil {
				fail.Do(func() {
					first = fmt.Errorf("core: sweep at %v: %w", m, err)
					cancel()
				})
				return
			}
			reports[i] = rep
		}(i, m)
	}
	wg.Wait()
	if first != nil {
		return reports[:slices.Index(reports, nil)], first
	}
	return reports, nil
}

// ScanAggregate folds scan campaign reports into an aggregate, each report
// landing in the counters of its date's month as pre-aggregated volume —
// the one mapping from campaigns to counters:
//
//	total             farm hosts probed
//	established       hosts answering the Chrome-2015 probe
//	version:ssl3      hosts answering the SSL3-only probe (§5.1)
//	class:rc4/cbc/3des  suites chosen against the Chrome-2015 list (§5.2–§5.6;
//	                  cbc counts 3DES, a CBC suite, too)
//	adv-rc4           hosts answering the RC4-only probe (SSL-Pulse style)
//	adv-export        hosts choosing an export suite (§5.5)
//	offers-heartbeat  hosts acking the heartbeat extension (§5.4)
//	heartbeat-ack     hosts the live Heartbleed check actually over-read
//
// so each ScanMetrics query, e.g. pct(version:ssl3 / total), answers month by
// month what RenderSweep prints. A campaign is hosted by encoding the
// aggregate into a delta frame and POSTing it to a serving study's /merge
// endpoint (tlstrend scansweep -push), which then answers those queries
// without re-running the sweep.
func ScanAggregate(reports []*CampaignReport) *notary.Aggregate {
	agg := notary.NewAggregate()
	for _, rep := range reports {
		agg.UpdateMonth(timeline.MonthOf(rep.Date), uint64(rep.Hosts), func(ms *notary.MonthStats) {
			chrome := rep.Probes["chrome2015"]
			ms.N[notary.Total] += rep.Hosts
			ms.N[notary.Established] += chrome.Answered
			ms.ByVersion.Add(registry.VersionSSL3, rep.Probes["ssl3only"].Answered)
			ms.ByClass["RC4"] += chrome.ChoseRC4
			ms.ByClass["CBC"] += chrome.ChoseCBC + chrome.Chose3DES // 3DES is CBC too
			ms.ByClass["3DES"] += chrome.Chose3DES
			ms.N[notary.AdvRC4] += rep.Probes["rc4only"].Answered
			ms.N[notary.AdvExport] += rep.Probes["exportonly"].ChoseExport
			ms.N[notary.OffersHeartbeatN] += chrome.HeartbeatAck
			ms.N[notary.HeartbeatAckN] += rep.VulnerableHosts
		})
	}
	return agg
}

// ScanMetrics declares the paper's §5 server-side percentages once, each a
// series query over a frame of ScanAggregate. Key heads the metric's
// RenderSweep column and names it in ScanScalars; Label names its
// RenderCampaign row, and RenderCampaign prints the rows in this order.
var ScanMetrics = []struct{ Key, Label, Query string }{
	{"ssl3", "SSL3 support", "pct(version:ssl3 / total)"},        // §5.1
	{"rc4sel", "chose RC4", "pct(class:rc4 / total)"},            // §5.3
	{"cbc", "chose CBC", "pct(class:cbc / total)"},               // §5.2
	{"3des", "chose 3DES", "pct(class:3des / total)"},            // §5.6
	{"hb", "heartbeat support", "pct(offers-heartbeat / total)"}, // §5.4
	{"bleed", "Heartbleed vuln.", "pct(heartbeat-ack / total)"},  // §5.4
	{"export", "export support", "pct(adv-export / total)"},      // §5.5
	{"rc4sup", "RC4 supported", "pct(adv-rc4 / total)"},          // §5.3, SSL Pulse
}

// sweepColumns orders RenderSweep's columns by ScanMetrics key: the sweep
// puts RC4 supported beside RC4 chosen, where RenderCampaign lists it last.
var sweepColumns = []string{"ssl3", "rc4sel", "rc4sup", "cbc", "3des", "hb", "bleed", "export"}

// scanFigure is ScanMetrics as a figure spec, one metric per Key, its
// queries parsed once: ScanMetrics is static, so a query that fails to parse
// is a programming error.
var scanFigure = func() analysis.FigureSpec {
	spec := analysis.FigureSpec{ID: "scan"}
	for _, m := range ScanMetrics {
		e, err := analysis.ParseQuery(m.Query)
		if err != nil {
			panic(fmt.Sprintf("core: scan metric %s: %v", m.Key, err))
		}
		spec.Metrics = append(spec.Metrics, analysis.MetricSpec{Name: m.Key, Expr: e})
	}
	return spec
}()

// scanSeries evaluates every ScanMetrics series, keyed by Key, over a frame
// of agg, and returns the frame's month axis with them.
func scanSeries(agg *notary.Aggregate) ([]timeline.Month, map[string][]float64) {
	f := analysis.NewFrame(agg)
	series := make(map[string][]float64, len(ScanMetrics))
	for _, s := range f.EvalFigure(scanFigure).Series {
		vals := make([]float64, len(s.Points))
		for i, p := range s.Points {
			vals[i] = p.Value
		}
		series[s.Name] = vals
	}
	return f.Months, series
}

// campaignMetrics is scanSeries over one report's one-month ScanAggregate:
// its value of every ScanMetrics entry, keyed by Key.
func campaignMetrics(rep *CampaignReport) map[string]float64 {
	_, series := scanSeries(ScanAggregate([]*CampaignReport{rep}))
	vals := make(map[string]float64, len(series))
	for key, s := range series {
		vals[key] = s[0]
	}
	return vals
}

// RenderCampaign writes one campaign's ScanMetrics, one row each.
func RenderCampaign(w io.Writer, rep *CampaignReport) error {
	vals := campaignMetrics(rep)
	var b strings.Builder
	for _, m := range ScanMetrics {
		fmt.Fprintf(&b, "  %-21s%6.2f%%\n", m.Label+":", vals[m.Key])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderSweep writes a sweep's ScanAggregate as an aligned table, one row
// per month.
func RenderSweep(w io.Writer, agg *notary.Aggregate) error {
	months, series := scanSeries(agg)
	var b strings.Builder
	b.WriteString("month   ")
	for _, key := range sweepColumns {
		fmt.Fprintf(&b, " %8s", key)
	}
	for i, m := range months {
		fmt.Fprintf(&b, "\n%-8s", m)
		for _, key := range sweepColumns {
			fmt.Fprintf(&b, " %7.2f%%", series[key][i])
		}
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshots a ScanScalars row reads.
const (
	sep2015 = iota
	may2018
)

// scanScalarSpecs declares the paper's Censys numbers (experiments S1–S4) as
// a ScanMetrics key read at one of two snapshots, in experiment-ID order.
var scanScalarSpecs = []struct {
	ID, Name string
	Paper    float64
	snapshot int
	metric   string
}{
	{"S1a", "SSL3 server support, Sep 2015", 45, sep2015, "ssl3"},
	{"S1b", "SSL3 server support, May 2018", 25, may2018, "ssl3"},
	{"S2a", "servers choosing RC4, Sep 2015", 11.2, sep2015, "rc4sel"},
	{"S2b", "servers choosing RC4, May 2018", 3.4, may2018, "rc4sel"},
	{"S2c", "servers choosing CBC, Sep 2015", 54, sep2015, "cbc"},
	{"S2d", "servers choosing CBC, May 2018", 35, may2018, "cbc"},
	{"S2e", "RC4 supported (SSL Pulse), May 2018", 19.1, may2018, "rc4sup"},
	{"S3a", "heartbeat support, May 2018", 34, may2018, "hb"},
	{"S3b", "Heartbleed vulnerable, May 2018", 0.32, may2018, "bleed"},
	{"S4a", "servers choosing 3DES, Sep 2015", 0.54, sep2015, "3des"},
	{"S4b", "servers choosing 3DES, May 2018", 0.25, may2018, "3des"},
}

// ScanScalars compares two campaign snapshots against the paper's Censys
// numbers (experiments S1–S4). Rows are emitted in experiment-ID order.
func ScanScalars(sep, may *CampaignReport) []analysis.Scalar {
	snapshots := [...]map[string]float64{sep2015: campaignMetrics(sep), may2018: campaignMetrics(may)}
	out := make([]analysis.Scalar, len(scanScalarSpecs))
	for i, s := range scanScalarSpecs {
		out[i] = analysis.Scalar{ID: s.ID, Name: s.Name, Paper: s.Paper, Measured: snapshots[s.snapshot][s.metric], Unit: "%"}
	}
	return out
}
