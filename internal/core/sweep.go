package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"tlsage/internal/fingerprint"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// ScanSweep runs a sequence of scan campaigns across the Censys observation
// window (Aug 2015 – May 2018, §3.2), producing the temporal view of server
// behaviour the paper draws its §5 server-side conclusions from. Snapshots
// run concurrently on a bounded pool; each snapshot seeds its own RNG from
// the month index, so the output is identical for every pool width.
type ScanSweep struct {
	// Start and End bound the sweep (inclusive); defaults: Aug 2015 and
	// May 2018.
	Start, End timeline.Month
	// StepMonths is the snapshot spacing; default 3.
	StepMonths int
	// HostsPerSnapshot is the farm size per snapshot; default 150.
	HostsPerSnapshot int
	// Workers, Seed, Timeout as in ScanCampaign.
	Workers int
	Seed    int64
	Timeout time.Duration
	// PopularityWeighted selects the Alexa-style universe.
	PopularityWeighted bool
	// SnapshotWorkers bounds how many snapshots run concurrently; default
	// min(4, GOMAXPROCS). Each snapshot already fans its probes out over
	// Workers scanner goroutines and binds HostsPerSnapshot TCP listeners,
	// so the default stays deliberately narrow.
	SnapshotWorkers int
}

// SweepPoint is one snapshot's server-side metrics.
type SweepPoint struct {
	Month            timeline.Month
	SSL3Support      float64
	RC4Chosen        float64
	RC4Supported     float64
	CBCChosen        float64
	TDESChosen       float64
	HeartbeatSupport float64
	Heartbleed       float64
	ExportSupport    float64
}

// SweepPoints derives the rendered per-month metrics from the raw campaign
// reports RunReports returns, so callers holding the reports (e.g. to host
// them via NewScanStudy) can still print the table.
func SweepPoints(months []timeline.Month, reports []*CampaignReport) []SweepPoint {
	points := make([]SweepPoint, len(reports))
	for i, rep := range reports {
		points[i] = SweepPoint{
			Month:            months[i],
			SSL3Support:      rep.SSL3SupportPct(),
			RC4Chosen:        rep.RC4ChosenPct(),
			RC4Supported:     rep.RC4SupportPct(),
			CBCChosen:        rep.CBCChosenPct(),
			TDESChosen:       rep.TDESChosenPct(),
			HeartbeatSupport: rep.HeartbeatSupportPct(),
			Heartbleed:       rep.HeartbleedVulnerablePct(),
			ExportSupport:    rep.ExportSupportPct(),
		}
	}
	return points
}

// RunReports executes the sweep — all snapshots on a bounded worker pool —
// and returns the raw per-month campaign reports in chronological order
// regardless of completion order: the input NewScanStudy hosts on the query
// surface and SweepPoints renders. On failure both slices stop before the
// (chronologically) first failing snapshot, and that snapshot's error is
// returned.
func (s *ScanSweep) RunReports(ctx context.Context) ([]timeline.Month, []*CampaignReport, error) {
	if s.Start == (timeline.Month{}) {
		s.Start = timeline.M(2015, time.August)
	}
	if s.End == (timeline.Month{}) {
		s.End = timeline.M(2018, time.May)
	}
	if s.StepMonths <= 0 {
		s.StepMonths = 3
	}
	if s.HostsPerSnapshot <= 0 {
		s.HostsPerSnapshot = 150
	}
	var months []timeline.Month
	for m := s.Start; !s.End.Before(m); m = m.AddMonths(s.StepMonths) {
		months = append(months, m)
	}

	pool := s.SnapshotWorkers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
		if pool > 4 {
			pool = 4
		}
	}
	if pool > len(months) {
		pool = len(months)
	}

	// A failed snapshot cancels the derived context so queued and in-flight
	// campaigns bail out instead of scanning to completion behind the error.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	reports := make([]*CampaignReport, len(months))
	errs := make([]error, len(months))
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
				Hosts:              s.HostsPerSnapshot,
				Workers:            s.Workers,
				Seed:               s.Seed + int64(m.Index()),
				Timeout:            s.Timeout,
				PopularityWeighted: s.PopularityWeighted,
			}
			rep, err := campaign.Run(ctx)
			if err != nil {
				errs[i] = fmt.Errorf("core: sweep at %v: %w", m, err)
				cancel()
				return
			}
			reports[i] = rep
		}(i, m)
	}
	wg.Wait()
	for i := range months {
		if errs[i] == nil {
			continue
		}
		err := errs[i]
		// A snapshot cancelled by another's failure is a knock-on effect;
		// surface the root failure instead.
		if errors.Is(err, context.Canceled) {
			for _, e := range errs[i:] {
				if e != nil && !errors.Is(e, context.Canceled) {
					err = e
					break
				}
			}
		}
		return months[:i], reports[:i], err
	}
	return months, reports, nil
}

// NewScanStudy folds per-month scan campaign reports into a hostable Study,
// putting the active measurement on the same Frame/Expr query surface (and
// Router mount) as the passive notary data. Each report lands in its month's
// counters as pre-aggregated volume:
//
//	total             farm hosts probed
//	established       hosts answering the Chrome-2015 probe
//	version:ssl3      hosts answering the SSL3-only probe (§5.1)
//	class:rc4/cbc/3des  suites chosen against the Chrome-2015 list (§5.2–§5.6;
//	                  cbc counts CBCTotal, matching CBCChosenPct)
//	adv-rc4           hosts answering the RC4-only probe (SSL-Pulse style)
//	adv-export        hosts choosing an export suite (§5.5)
//	offers-heartbeat  hosts acking the heartbeat extension (§5.4)
//	heartbeat-ack     hosts the live Heartbleed check actually over-read
//
// so e.g. pct(version:ssl3 / total) reproduces SSL3SupportPct month by month.
func NewScanStudy(months []timeline.Month, reports []*CampaignReport) (*Study, error) {
	agg, err := ScanAggregate(months, reports)
	if err != nil {
		return nil, err
	}
	return &Study{agg: agg, db: fingerprint.BuildDefault()}, nil
}

// ScanAggregate folds per-month scan campaign reports into a bare aggregate
// — the NewScanStudy counter mapping without the study wrapper. This is the
// federation form: an externally-run campaign encodes the aggregate into a
// delta frame and POSTs it to a core's /merge endpoint, which hosts the
// months without rebuilding the sweep locally.
func ScanAggregate(months []timeline.Month, reports []*CampaignReport) (*notary.Aggregate, error) {
	if len(months) != len(reports) {
		return nil, fmt.Errorf("core: %d months but %d reports", len(months), len(reports))
	}
	agg := notary.NewAggregate()
	for i, rep := range reports {
		rep := rep
		agg.UpdateMonth(months[i], uint64(rep.Hosts), func(ms *notary.MonthStats) {
			chrome := rep.Probes["chrome2015"]
			ms.N[notary.Total] += rep.Hosts
			ms.N[notary.Established] += chrome.Answered
			ms.ByVersion.Add(registry.VersionSSL3, rep.Probes["ssl3only"].Answered)
			ms.ByClass["RC4"] += chrome.ChoseRC4
			ms.ByClass["CBC"] += chrome.CBCTotal()
			ms.ByClass["3DES"] += chrome.Chose3DES
			ms.N[notary.AdvRC4] += rep.Probes["rc4only"].Answered
			ms.N[notary.AdvExport] += rep.Probes["exportonly"].ChoseExport
			ms.N[notary.OffersHeartbeatN] += chrome.HeartbeatAck
			ms.N[notary.HeartbeatAckN] += rep.VulnerableHosts
		})
	}
	return agg, nil
}

// RenderSweep writes the sweep as an aligned table.
func RenderSweep(w io.Writer, points []SweepPoint) error {
	if _, err := fmt.Fprintf(w, "%-8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"month", "ssl3", "rc4sel", "rc4sup", "cbc", "3des", "hb", "bleed", "export"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-8s %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n",
			p.Month, p.SSL3Support, p.RC4Chosen, p.RC4Supported, p.CBCChosen,
			p.TDESChosen, p.HeartbeatSupport, p.Heartbleed, p.ExportSupport); err != nil {
			return err
		}
	}
	return nil
}
