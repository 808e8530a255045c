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
	t.Run("fallback-dance-happens", func(t *testing.T) {
		if !sawFallback {
			t.Error("no fallback dance observed in March 2014")
		}
	})
}
