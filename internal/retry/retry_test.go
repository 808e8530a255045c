package retry

import (
	"math"
	"testing"
	"time"
)

func noJitter() float64 { return 0 }

// TestBackoffDoubles: with no jitter and no floor the delays are Base,
// 2·Base, 4·Base, … held at Max, and Reset starts the streak over.
func TestBackoffDoubles(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Rand: noJitter}
	for round := 0; round < 2; round++ {
		for i, want := range []time.Duration{100, 200, 400, 800, 1000, 1000} {
			if got := b.Next(0); got != want*time.Millisecond {
				t.Fatalf("round %d failure %d: delay %v, want %v", round, i, got, want*time.Millisecond)
			}
		}
		b.Reset()
	}
}

// TestBackoffDefaults: the zero value is the documented 250ms → 10s policy.
func TestBackoffDefaults(t *testing.T) {
	const base, limit = 250 * time.Millisecond, 10 * time.Second
	var b Backoff
	for i := 0; i < 12; i++ {
		step := min(base<<i, limit)
		if got := b.Next(0); got < step || got > min(2*step, limit) {
			t.Fatalf("failure %d: delay %v outside [%v, min(2×, %v)]", i, got, step, limit)
		}
	}
}

// TestBackoffFloorAndCap is the one cap rule: a floor above the step raises
// the delay, jitter spreads it over [d, 2d), and nothing — not the floor,
// not the jitter — takes it past Max.
func TestBackoffFloorAndCap(t *testing.T) {
	const base, limit = 10 * time.Millisecond, time.Second
	for _, c := range []struct {
		name   string
		floor  time.Duration
		jitter float64
		want   time.Duration
	}{
		{"floor below the step", time.Millisecond, 0, base},
		{"floor raises the delay", 300 * time.Millisecond, 0, 300 * time.Millisecond},
		{"jitter on top of the floor", 300 * time.Millisecond, 0.5, 450 * time.Millisecond},
		{"jitter capped", 800 * time.Millisecond, 0.999, limit},
		{"floor at the cap", limit, 0.5, limit},
		{"floor past the cap", 11 * 24 * time.Hour, 0, limit},
		{"saturated floor", math.MaxInt64, 0.999, limit},
	} {
		b := Backoff{Base: base, Max: limit, Rand: func() float64 { return c.jitter }}
		if got := b.Next(c.floor); got != c.want {
			t.Errorf("%s: delay %v, want %v", c.name, got, c.want)
		}
	}
	// Even an uncapped policy cannot overflow into a negative delay.
	b := Backoff{Base: time.Hour, Max: math.MaxInt64, Rand: func() float64 { return 0.999 }}
	for i := 0; i < 80; i++ {
		if got := b.Next(math.MaxInt64); got <= 0 {
			t.Fatalf("failure %d: delay %v wrapped", i, got)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	const saturated = time.Duration(math.MaxInt64)
	for in, want := range map[string]time.Duration{
		"3":                             3 * time.Second,
		" 7\n":                          7 * time.Second,
		"0":                             0,
		"":                              0,
		"-1":                            0,
		"soon":                          0,
		"1.5":                           0,
		"Wed, 21 Oct 2026 07:28:00 GMT": 0,
		"1000000":                       1000000 * time.Second,
		"9223372036":                    9223372036 * time.Second, // the last value that fits
		"9223372037":                    saturated,
		"999999999999":                  saturated,
		"9223372036854775807":           saturated,
		"99999999999999999999999":       saturated, // past int: Atoi's range error still saturates
		"-99999999999999999999999":      0,
	} {
		if got := ParseRetryAfter(in); got != want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}
