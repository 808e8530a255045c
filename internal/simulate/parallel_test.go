package simulate

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"tlsage/internal/clientdb"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Run must fill an identical aggregate for every worker count: each month
// has its own seed-derived RNG stream and months are delivered in order, so
// sharding the window cannot change the dataset.
func TestParallelRunAggregateIdentical(t *testing.T) {
	opts := DefaultOptions(60)
	opts.End = timeline.M(2015, time.June) // 41 months, keeps the test quick
	opts.Workers = 1
	want := runAggregate(t, opts)
	if want.TotalRecords() != 41*60 {
		t.Fatalf("unexpected record count %d", want.TotalRecords())
	}
	for _, workers := range []int{0, 2, 3, 8, 64} {
		opts.Workers = workers
		if got := runAggregate(t, opts); !reflect.DeepEqual(want, got) {
			t.Errorf("Workers=%d aggregate differs from Workers=1", workers)
		}
	}
}

// Run with Workers > 1 must deliver the identical record stream in the
// identical chronological order as the sequential path.
func TestParallelRunStreamOrder(t *testing.T) {
	opts := DefaultOptions(40)
	opts.End = timeline.M(2013, time.June)
	collect := func(workers int) []string {
		opts.Workers = workers
		var lines []string
		runEach(t, opts, func(r *notary.Record) {
			lines = append(lines, string(r.AppendTSV(nil)))
		})
		return lines
	}
	want := collect(1)
	got := collect(6)
	if len(want) != len(got) {
		t.Fatalf("record counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("record %d differs between Workers=1 and Workers=6:\n%s\n%s", i, want[i], got[i])
		}
	}
	// Chronological-month order must hold.
	last := ""
	for i, line := range got {
		month := line[:7]
		if month < last {
			t.Fatalf("record %d out of order: month %s after %s", i, month, last)
		}
		last = month
	}
}

// An error in one shard must abort the run and be reported.
func TestParallelRunAggregatePropagatesSinkCoverage(t *testing.T) {
	opts := DefaultOptions(30)
	opts.End = timeline.M(2012, time.December)
	opts.Workers = 4
	agg := runAggregate(t, opts)
	months := agg.Months()
	if len(months) != 11 {
		t.Fatalf("got %d months, want 11", len(months))
	}
	for _, m := range months {
		if agg.Stats(m).N[notary.Total] != 30 {
			t.Errorf("month %v has %d records, want 30", m, agg.Stats(m).N[notary.Total])
		}
	}
}

// fallbackVersions: the SSL3-floor walk (a POODLE-era browser falls through
// TLS 1.2 → 1.1 → 1.0 → SSL3) and the RC4-fallback-only walk (TLS versions
// only, no SSL3 step).
func TestFallbackVersionsWalks(t *testing.T) {
	cases := []struct {
		name string
		cfg  clientdb.Config
		want []registry.Version
	}{
		{
			name: "ssl3 floor from TLS 1.2",
			cfg: clientdb.Config{
				LegacyVersion: registry.VersionTLS12,
				MinVersion:    registry.VersionSSL3,
				SSL3Fallback:  true,
			},
			want: []registry.Version{
				registry.VersionTLS12, registry.VersionTLS11,
				registry.VersionTLS10, registry.VersionSSL3,
			},
		},
		{
			name: "ssl3 fallback blocked by min version",
			cfg: clientdb.Config{
				LegacyVersion: registry.VersionTLS12,
				MinVersion:    registry.VersionTLS10,
				SSL3Fallback:  true,
			},
			want: []registry.Version{
				registry.VersionTLS12, registry.VersionTLS11, registry.VersionTLS10,
			},
		},
		{
			name: "rc4 fallback only walks TLS versions",
			cfg: clientdb.Config{
				LegacyVersion:   registry.VersionTLS12,
				MinVersion:      registry.VersionTLS10,
				RC4FallbackOnly: true,
			},
			want: []registry.Version{
				registry.VersionTLS12, registry.VersionTLS11, registry.VersionTLS10,
			},
		},
		{
			name: "legacy version above TLS 1.2 is clamped",
			cfg: clientdb.Config{
				LegacyVersion: registry.VersionTLS13,
				MinVersion:    registry.VersionTLS10,
				SSL3Fallback:  true,
			},
			want: []registry.Version{
				registry.VersionTLS12, registry.VersionTLS11, registry.VersionTLS10,
			},
		},
		{
			name: "ssl3-only client has nothing to walk",
			cfg: clientdb.Config{
				LegacyVersion: registry.VersionSSL3,
				MinVersion:    registry.VersionSSL3,
			},
			want: nil,
		},
	}
	for _, tc := range cases {
		got := fallbackVersions(&tc.cfg)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		if tc.want != nil && cap(got) != len(tc.want) {
			t.Errorf("%s: capacity %d, want exactly %d (pre-sized)", tc.name, cap(got), len(tc.want))
		}
	}
}

// The walk the simulator performs with an SSL3-floor config must actually
// end at SSL3 and set the fallback SCSV on retries when the client sends it.
func TestFallbackVersionsUsedInDance(t *testing.T) {
	opts := DefaultOptions(600)
	opts.Start = timeline.M(2014, time.March)
	opts.End = timeline.M(2014, time.March)
	sawFallback := false
	runEach(t, opts, func(r *notary.Record) {
		if r.UsedFallback {
			sawFallback = true
			if !strings.HasPrefix(r.Date.String(), "2014-03") {
				t.Errorf("fallback record outside the simulated month: %s", r.Date)
			}
		}
	})
	if !sawFallback {
		t.Error("no fallback dance observed in March 2014")
	}
}
