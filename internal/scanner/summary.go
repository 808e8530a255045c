package scanner

import "tlsage/internal/registry"

// Summary aggregates a scan sweep into the fractions the paper reports from
// Censys data.
type Summary struct {
	Targets      int
	Answered     int // ServerHello received
	Alerted      int
	Errors       int
	ChoseRC4     int
	ChoseCBC     int
	Chose3DES    int
	ChoseAEAD    int
	ChoseNULL    int
	ChoseExport  int
	HeartbeatAck int
	// Vulnerable counts hosts the Heartbleed check over-read; LeakedBytes
	// totals what they leaked.
	Vulnerable  int
	LeakedBytes int
	ByVersion   map[registry.Version]int
}

// Summarize folds scan results.
func Summarize(results []Result) Summary {
	s := Summary{ByVersion: make(map[registry.Version]int)}
	s.Targets = len(results)
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
		s.ByVersion[r.Version]++
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
		case suite.IsAEAD():
			s.ChoseAEAD++
		}
		if suite.IsNULLCipher() {
			s.ChoseNULL++
		}
		if suite.IsExport() {
			s.ChoseExport++
		}
		if r.HeartbeatAck {
			s.HeartbeatAck++
		}
	}
	return s
}
