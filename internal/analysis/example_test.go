package analysis_test

import (
	"fmt"
	"os"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/simulate"
)

// Quantify §7.4 of the paper, "Impact of Security Research": for each
// high-profile event, the metric it targeted just before disclosure and 6
// and 12 months after. The paper's observations show as deltas: the Snowden
// correlation with forward secrecy, the slow grind of RC4 retirement, no
// immediate CBC reaction to Lucky 13, and the post-Sweet32 3DES decline.
func ExampleAttackImpactsFrame() {
	study, err := core.Simulate(simulate.DefaultOptions(800), nil)
	if err != nil {
		panic(err)
	}
	f, _ := study.Frame() // err is always nil
	impacts := analysis.AttackImpactsFrame(f)
	if err := analysis.RenderImpacts(os.Stdout, impacts); err != nil {
		panic(err)
	}

	fmt.Println("\nReadings (cf. §7.4):")
	for _, im := range impacts {
		verdict := "slow or indirect response"
		d := im.Delta12()
		switch {
		case d <= -10:
			verdict = "strong decline within a year"
		case d >= 10:
			verdict = "strong rise within a year"
		case d <= -3 || d >= 3:
			verdict = "visible shift within a year"
		}
		fmt.Printf("  %-14s %-28s %s\n", im.Event.Name, im.Metric, verdict)
	}
	// Output:
	// event          date         metric                         before     +6mo    +12mo      Δ12
	// RC4            2013-03-12   RC4 negotiated %                55.4%    55.0%    40.1%   -15.3
	// RC4 no more    2015-07-15   RC4 advertised %                88.5%    70.2%    64.1%   -24.4
	// Snowden        2013-06-06   forward-secret negotiated %     20.5%    29.8%    44.9%   +24.4
	// Lucky13        2012-12-06   CBC negotiated %                42.5%    35.2%    42.9%    +0.4
	// POODLE         2014-10-14   SSL3 negotiated %                0.3%     0.3%     0.0%    -0.3
	// Sweet32        2016-08-31   3DES advertised %               98.1%    82.8%    73.9%   -24.2
	// FREAK          2015-03-03   export advertised %              5.8%     3.2%     2.9%    -2.9
	// Heartbleed     2014-04-07   heartbeat offered %             18.2%    25.8%    25.5%    +7.2
	//
	// Readings (cf. §7.4):
	//   RC4            RC4 negotiated %             strong decline within a year
	//   RC4 no more    RC4 advertised %             strong decline within a year
	//   Snowden        forward-secret negotiated %  strong rise within a year
	//   Lucky13        CBC negotiated %             slow or indirect response
	//   POODLE         SSL3 negotiated %            slow or indirect response
	//   Sweet32        3DES advertised %            strong decline within a year
	//   FREAK          export advertised %          slow or indirect response
	//   Heartbleed     heartbeat offered %          visible shift within a year
}
