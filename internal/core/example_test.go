package core_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/scanner"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// check ends an example on an error: an example that called log.Fatal would
// exit the whole test binary instead of failing.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Simulate the passive study at a small sample size and print Figure 2 (RC4
// / CBC / AEAD negotiation over time) as a chart: the paper's headline
// ecosystem shift.
func ExampleSimulate() {
	// 400 connections per month, Feb 2012 – Apr 2018.
	study, err := core.Simulate(simulate.DefaultOptions(400), nil)
	check(err)

	// Figures come from the declarative catalog, evaluated against the
	// study's frame; "negotiated-classes" is Figure 2 (f.FigureByNum(2)
	// resolves the same entry by number).
	f, _ := study.Frame() // err is always nil
	fig, _ := f.FigureByName("negotiated-classes")
	check(fig.RenderChart(os.Stdout, 96, 18))

	fmt.Printf("\nsimulated %d connections across %d months\n",
		study.Aggregate().TotalRecords(), len(study.Aggregate().Months()))
	// Output:
	// Figure 2 — Negotiated connections using RC4, CBC or AEAD (%)  (max 87.9%)
	// |                                                                                           AAA A|
	// |                                                                               A  AAA  AAA      |
	// |                                                                             AA A     A         |
	// |                                                                      A   A                     |
	// |                                                                     A A A A                    |
	// |                R  RRR                                          AA  A                           |
	// |     R RR   R R  R     R  R                                       A                             |
	// | R C  R   RR   R        RR    C    C C C  CC   C  C  C C    AAA                                 |
	// |RCRR  C   C                 RR  CCC   C  C  C C C  CC   CC C                                    |
	// |     C C   C   C        C     R RR                      AA  CCC   C                             |
	// |        C   C C CC  CC C CC       R                  A A        C                               |
	// |                   C               R RRR R    A A AAA            C  C  C C                      |
	// |                                          RRR  A                     CC   CC                    |
	// |                                      A  AAA  RR   R                         CC C     C         |
	// |                                   A A A        R R RR                         C  CCC  CCC      |
	// |                              A AAA                    RR                                  CCC C|
	// |                        AAA AA                           R RRRR RRR RR                          |
	// |AAAA AAAA AAA AAAA AAA A                                              RR RRR RRRR RRR RRRR RRR R|
	// 2012-02                                                                                  2018-04
	// A=AEAD  C=CBC  R=RC4
	//
	// simulated 30000 connections across 75 months
}

// Reproduce the Notary-side measurement through its post-hoc path: simulate
// the Feb 2012 – Apr 2018 window while teeing every record into a TLSB frame
// log, rebuild a second study from that log on all cores (LoadLog cuts the
// frames across its parse workers), check that both hold the same records,
// and print the paper-vs-measured report.
func ExampleLoadLog() {
	var frames bytes.Buffer
	study, err := core.Simulate(simulate.DefaultOptions(800), &frames)
	check(err)

	fromLog, err := core.LoadLog(&frames, 0) // 0 workers = GOMAXPROCS
	check(err)
	fmt.Printf("streamed %d records, reloaded %d from the frame log\n\n",
		study.Aggregate().TotalRecords(), fromLog.Aggregate().TotalRecords())

	scalars, _ := fromLog.Scalars() // err is always nil
	check(analysis.RenderScalars(os.Stdout, "Paper vs measured", scalars))
	// Output:
	// streamed 60000 records, reloaded 60000 from the frame log
	//
	// Paper vs measured
	// id       metric                                          paper   measured   unit
	// S-61     NULL negotiated, whole dataset                   2.84       2.52      %
	// S-62     anonymous negotiated, whole dataset              0.17       0.22      %
	// S-F1a    TLS 1.0 negotiated, Feb 2018                     2.80       6.68      %
	// S-F1b    TLS 1.2 negotiated, Feb 2018                    90.00      93.32      %
	// S-F3a    3DES advertised, Mar 2018                       69.00      72.62      %
	// S-F7a    export advertised, 2012                         28.19      22.25      %
	// S-F7b    export advertised, 2018                          1.03       1.00      %
	// S3c      heartbeat negotiated, 2018                       3.00       2.62      %
	// S5a      median fingerprint duration                      1.00       1.00   days
	// S5b      single-day fingerprints                         60.38      62.80      %
	// S5c      fingerprints seen >1200 days                     1.72      18.40      %
	// S6a      secp256r1 share, whole dataset                  84.40      85.43      %
	// S6b      secp384r1 share, whole dataset                   8.60       5.91      %
	// S6c      x25519 share, whole dataset                      6.70       8.66      %
	// S6d      x25519 share, Feb 2018                          22.20      23.57      %
	// S7a      TLS 1.3 client support, Feb 2018                 0.50       0.00      %
	// S7b      TLS 1.3 client support, Mar 2018                 9.80       5.00      %
	// S7c      TLS 1.3 client support, Apr 2018                23.60      17.75      %
	// S7d      TLS 1.3 negotiated, Apr 2018                     1.30       1.55      %
}

// Reproduce the Censys-side measurement over real TCP: sample a server farm
// from the host-census population at two snapshot dates (September 2015 and
// May 2018), bind every host to a loopback listener, run the five scan
// probes against the farm and print the §5.1–§5.6 server-side scalars.
func ExampleScanCampaign() {
	run := func(date timeline.Date) *core.CampaignReport {
		campaign := &core.ScanCampaign{Date: date, Hosts: 40, Seed: 7}
		rep, err := campaign.Run(context.Background())
		check(err)
		return rep
	}
	sep15 := run(timeline.D(2015, time.September, 15))
	may18 := run(timeline.D(2018, time.May, 13))

	for _, snap := range []struct {
		label string
		rep   *core.CampaignReport
	}{{"September 2015", sep15}, {"May 2018", may18}} {
		fmt.Printf("\n%s (%d hosts):\n", snap.label, snap.rep.Hosts)
		check(core.RenderCampaign(os.Stdout, snap.rep))
		for _, probe := range scanner.AllProbes() {
			sum := snap.rep.Probes[probe.Name]
			fmt.Printf("  probe %-12s answered %4d, alerted %4d, errors %d\n",
				probe.Name, sum.Answered, sum.Alerted, sum.Errors)
		}
	}

	fmt.Println()
	check(analysis.RenderScalars(os.Stdout, "Paper vs measured (active scans)",
		core.ScanScalars(sep15, may18)))
	// Output:
	//
	// September 2015 (40 hosts):
	//   SSL3 support:         37.50%
	//   chose RC4:            12.50%
	//   chose CBC:            37.50%
	//   chose 3DES:            2.50%
	//   heartbeat support:    25.00%
	//   Heartbleed vuln.:      0.00%
	//   export support:        2.50%
	//   RC4 supported:        57.50%
	//   probe chrome2015   answered   38, alerted    2, errors 0
	//   probe ssl3only     answered   15, alerted   25, errors 0
	//   probe exportonly   answered    1, alerted   39, errors 0
	//   probe dheonly      answered   21, alerted   19, errors 0
	//   probe rc4only      answered   23, alerted   17, errors 0
	//
	// May 2018 (40 hosts):
	//   SSL3 support:         27.50%
	//   chose RC4:             7.50%
	//   chose CBC:            45.00%
	//   chose 3DES:            0.00%
	//   heartbeat support:    42.50%
	//   Heartbleed vuln.:      0.00%
	//   export support:       12.50%
	//   RC4 supported:        25.00%
	//   probe chrome2015   answered   40, alerted    0, errors 0
	//   probe ssl3only     answered   11, alerted   29, errors 0
	//   probe exportonly   answered    5, alerted   35, errors 0
	//   probe dheonly      answered   20, alerted   20, errors 0
	//   probe rc4only      answered   10, alerted   30, errors 0
	//
	// Paper vs measured (active scans)
	// id       metric                                          paper   measured   unit
	// S1a      SSL3 server support, Sep 2015                   45.00      37.50      %
	// S1b      SSL3 server support, May 2018                   25.00      27.50      %
	// S2a      servers choosing RC4, Sep 2015                  11.20      12.50      %
	// S2b      servers choosing RC4, May 2018                   3.40       7.50      %
	// S2c      servers choosing CBC, Sep 2015                  54.00      37.50      %
	// S2d      servers choosing CBC, May 2018                  35.00      45.00      %
	// S2e      RC4 supported (SSL Pulse), May 2018             19.10      25.00      %
	// S3a      heartbeat support, May 2018                     34.00      42.50      %
	// S3b      Heartbleed vulnerable, May 2018                  0.32       0.00      %
	// S4a      servers choosing 3DES, Sep 2015                  0.54       2.50      %
	// S4b      servers choosing 3DES, May 2018                  0.25       0.00      %
}
