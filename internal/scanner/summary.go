package scanner

import "tlsage/internal/registry"

// Summary aggregates a scan sweep into the fractions the paper reports from
// Censys data.
type Summary struct {
	Answered     int // ServerHello received
	Alerted      int
	Errors       int
	ChoseRC4     int
	ChoseCBC     int
	Chose3DES    int
	ChoseExport  int
	HeartbeatAck int
	// Vulnerable counts hosts the Heartbleed check over-read; LeakedBytes
	// totals what they leaked.
	Vulnerable  int
	LeakedBytes int
}

// Summarize folds scan results. A suite the registry does not know counts
// toward no suite class; its result still counts in Answered, HeartbeatAck
// and Vulnerable.
func Summarize(results []Result) Summary {
	var s Summary
	for _, r := range results {
		switch {
		case r.Err != nil:
			s.Errors++
			continue
		case r.Alerted:
			s.Alerted++
			continue
		}
		s.Answered++
		if r.HeartbeatAck {
			s.HeartbeatAck++
		}
		if r.Vulnerable {
			s.Vulnerable++
			s.LeakedBytes += r.LeakedBytes
		}
		suite, ok := registry.SuiteByID(r.Suite)
		if !ok {
			continue
		}
		switch {
		case suite.IsRC4():
			s.ChoseRC4++
		case suite.Is3DES():
			s.Chose3DES++
		case suite.IsCBC():
			s.ChoseCBC++
		}
		if suite.IsExport() {
			s.ChoseExport++
		}
	}
	return s
}
