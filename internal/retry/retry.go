// Package retry is the one backoff rule tlsage's clients share — the record
// feeders (service.FeedHTTP/FeedTCP) and the edge→core delta pusher
// (federation.Pusher): the step doubles from Base per consecutive failure up
// to Max; a server-supplied floor (HTTP Retry-After, the TCP busy line's
// seconds) raises it; full jitter spreads the result over [d, 2d) so clients
// shed together do not come back together; and the delay never exceeds Max,
// whatever the server asked for — one reply must not be able to park a
// collector for days.
package retry

import (
	"cmp"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Backoff computes the delays of one retry loop. The zero value is the
// default policy; it is not safe for concurrent use.
type Backoff struct {
	Base time.Duration  // seeds the doubling; <= 0 means 250ms
	Max  time.Duration  // caps the doubling and every delay; <= 0 means 10s
	Rand func() float64 // jitter in [0,1); nil uses math/rand

	step time.Duration // the last failure's step; 0 = no failure since Reset
}

// Next returns how long to wait after one more consecutive failure. floor is
// the server's hint for this failure, 0 when it gave none.
func (b *Backoff) Next(floor time.Duration) time.Duration {
	base := cmp.Or(max(b.Base, 0), 250*time.Millisecond)
	limit := cmp.Or(max(b.Max, 0), 10*time.Second)
	rnd := b.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	switch {
	case b.step == 0:
		b.step = min(base, limit)
	case b.step > limit/2:
		b.step = limit
	default:
		b.step *= 2
	}
	// The floor is clamped before the jitter is added, and the jitter only
	// added where it fits under the cap, so no floor can overflow the sum.
	delay := min(max(b.step, floor), limit)
	if jitter := time.Duration(rnd() * float64(delay)); jitter < limit-delay {
		return delay + jitter
	}
	return limit
}

// Reset forgets the failure streak: the next failure starts again at Base.
func (b *Backoff) Reset() { b.step = 0 }

// ParseRetryAfter reads a retry hint in delta-seconds form — an HTTP
// Retry-After value or the tail of a TCP "busy <seconds>" line. Anything
// else (absolute dates, garbage, negative, absent) yields 0, leaving pure
// exponential backoff; a value too large for a Duration saturates instead of
// wrapping.
func ParseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if secs < 0 || (err != nil && !errors.Is(err, strconv.ErrRange)) {
		return 0
	}
	if int64(secs) > int64(math.MaxInt64/time.Second) {
		return math.MaxInt64
	}
	return time.Duration(secs) * time.Second
}
