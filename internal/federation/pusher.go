package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlsage/internal/framing"
	"tlsage/internal/notary"
	"tlsage/internal/retry"
)

// DefaultPushInterval is how often a Pusher ships its accumulated delta
// when PusherOptions.Interval is unset.
const DefaultPushInterval = 5 * time.Second

// MergeAck is the JSON body POST /merge answers with (and the 409/429 error
// shape). AppliedThrough is the receiver's per-source cursor after the
// request — on a conflict it tells the sender where to rebase from.
type MergeAck struct {
	Records        uint64 `json:"records"`
	AppliedThrough uint64 `json:"applied_through"`
	Generation     uint64 `json:"generation"`
	Duplicate      bool   `json:"duplicate,omitempty"`
	Error          string `json:"error,omitempty"`
}

// PusherOptions configures an edge Pusher.
type PusherOptions struct {
	// Source names this collector on the wire, at most MaxDeltaSource bytes;
	// the upstream sequences deltas per source. serve sets it to -push-source
	// or else the default study id.
	Source string
	// Upstream is the base URL of the target study (e.g.
	// "http://core:8080/studies/eu"); "/merge" is appended.
	Upstream string
	// Interval is the push cadence; <= 0 means DefaultPushInterval.
	Interval time.Duration
	// Shipped seeds the shipped-through generation — on restart, the value
	// recovered via LoadShippedState, so already-acked records are never
	// re-shipped.
	Shipped uint64
	// Initial seeds the unshipped delta — on restart, the log tail past
	// Shipped replayed into a fresh shard. Nil starts empty.
	Initial *notary.Aggregate
	// StatePath, when set, persists the shipped-through generation there
	// after every acknowledged push, in place in a file of two checksummed
	// slots the pusher keeps open (SaveShippedState). Empty keeps the cursor
	// in memory only.
	StatePath string
	// Rebase, when set, rebuilds the unshipped delta after an upstream
	// overlap conflict (409): it must return the merged contributions of
	// every local record past generation `from` — typically a replay of the
	// durable record log's tail — as a non-nil aggregate. It runs under the
	// pusher's lock with no other pusher activity; callers must only rely on
	// it when no ingest is in flight (the restart-recovery scenario), because
	// records parsed but not yet flushed into the pusher would otherwise be
	// counted twice.
	Rebase func(from uint64) (*notary.Aggregate, error)
	// Client is the HTTP client to push with; nil uses http.DefaultClient.
	Client *http.Client
	// Logf receives push-failure and rebase warnings; nil discards them.
	Logf func(format string, args ...any)

	// backoff spaces timer pushes after a failed one (its zero value: 250ms
	// doubling to 10s, math/rand jitter); the upstream's Retry-After is its
	// floor. The feeders share the rule. Set by this package's tests only.
	backoff retry.Backoff
}

// Pusher is the edge half of the federation tier: shards merged into the
// local study are teed into its pending aggregate (Observe), and on a timer
// the accumulated-but-unshipped delta is swapped out and POSTed upstream as
// one frame. Each record's contribution ships exactly once: the
// shipped-through generation only advances on an upstream ack, and a failed
// push re-merges the unacked delta into pending (Merge is commutative, so
// retries never double-count and never lose).
type Pusher struct {
	opts PusherOptions
	url  string

	mu          sync.Mutex
	pending     *notary.Aggregate // accumulated but not yet acked upstream
	shipped     uint64            // source generation acked through
	backoff     retry.Backoff     // failure streak; Reset on every ack
	nextAllowed time.Time         // timer pushes wait for this after a failure
	lastErr     error
	deltas      uint64 // deltas acked upstream
	errs        uint64 // failed push attempts
	stateErrs   uint64 // shipped-state persist failures
	lastPush    time.Time
	state       *os.File // StatePath open for in-place writes; nil until a persist rewrites it whole
	stateSlot   int      // the slot of state the next persist writes: the one not holding the newest cursor

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// PusherStats is the /healthz edge gauge snapshot.
type PusherStats struct {
	Source          string
	Upstream        string
	ShippedDeltas   uint64
	ShippedThrough  uint64        // source generation acked upstream
	RetainedRecords uint64        // records accumulated but not yet acked
	RetainedBytes   int           // encoded size of the retained delta
	LastPushAge     time.Duration // -1 when nothing has shipped yet
	UpstreamErrors  uint64
	StateErrors     uint64 // failed persists of the shipped-through cursor
	LastError       string
}

// NewPusher checks opts.Source's length, which no delta could carry past
// MaxDeltaSource, and starts the push timer. Close stops it and flushes one
// final time.
func NewPusher(opts PusherOptions) (*Pusher, error) {
	if len(opts.Source) > MaxDeltaSource {
		return nil, fmt.Errorf("federation: source name %d bytes long, max %d", len(opts.Source), MaxDeltaSource)
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultPushInterval
	}
	pending := opts.Initial
	if pending == nil {
		pending = notary.NewAggregate()
	}
	p := &Pusher{
		opts:    opts,
		url:     mergeURL(opts.Upstream),
		pending: pending,
		shipped: opts.Shipped,
		backoff: opts.backoff,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go p.run()
	return p, nil
}

func mergeURL(upstream string) string {
	return strings.TrimSuffix(upstream, "/") + "/merge"
}

func (p *Pusher) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// Observe tees one merged shard into the pending delta. It is the shard
// observer the service layer calls after every merge into the local study,
// so the pusher accumulates exactly the records the study accepted; the
// service merges, and so observes, only shards that hold records.
func (p *Pusher) Observe(shard *notary.Aggregate) {
	p.mu.Lock()
	p.pending.Merge(shard)
	p.mu.Unlock()
}

// Stats snapshots the healthz gauges. RetainedBytes encodes the pending
// delta on demand — healthz polls are rare and the encoding is
// O(months×counters).
func (p *Pusher) Stats() PusherStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PusherStats{
		Source:          p.opts.Source,
		Upstream:        p.opts.Upstream,
		ShippedDeltas:   p.deltas,
		ShippedThrough:  p.shipped,
		RetainedRecords: p.pending.Generation(),
		LastPushAge:     -1,
		UpstreamErrors:  p.errs,
		StateErrors:     p.stateErrs,
	}
	if buf, err := AppendDelta(nil, &Delta{Source: p.opts.Source, Base: p.shipped, Agg: p.pending}); err == nil {
		st.RetainedBytes = len(buf)
	}
	if !p.lastPush.IsZero() {
		st.LastPushAge = time.Since(p.lastPush)
	}
	if p.lastErr != nil {
		st.LastError = p.lastErr.Error()
	}
	return st
}

// run is the timer loop. Failed pushes are retried on later ticks once the
// backoff window (nextAllowed) has passed.
func (p *Pusher) run() {
	defer close(p.done)
	t := time.NewTicker(p.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			_ = p.push(false)
		}
	}
}

// Flush pushes the pending delta now, ignoring the failure-backoff window.
// A failure leaves the delta retained for the next attempt.
func (p *Pusher) Flush() error { return p.push(true) }

// Close stops the timer, ships the pending delta one final time and closes
// the cursor file. The flush error is returned, else the file's: a delta the
// upstream never acked survives only in the edge's durable record log, and
// the caller should know that.
func (p *Pusher) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	err := p.drain()
	p.mu.Lock()
	if cerr := p.dropStateLocked(); err == nil {
		err = cerr
	}
	p.mu.Unlock()
	return err
}

// drain pushes until nothing is pending or an attempt fails.
func (p *Pusher) drain() error {
	// A push can succeed and still leave work behind: resolving a 409
	// replaces the pending delta with the tail rebuilt past the upstream's
	// cursor. Keep pushing until nothing is pending or an attempt fails —
	// each successful round either drains the delta or advances the shipped
	// cursor, so the loop terminates.
	for {
		if err := p.push(true); err != nil {
			return err
		}
		p.mu.Lock()
		drained := p.pending.Generation() == 0
		p.mu.Unlock()
		if drained {
			return nil
		}
	}
}

// push swaps the pending delta for a fresh aggregate and POSTs it. On any
// failure the taken delta is re-merged with whatever accumulated meanwhile,
// so no record's contribution is ever dropped or sent twice.
func (p *Pusher) push(force bool) error {
	p.mu.Lock()
	if p.pending.Generation() == 0 {
		p.mu.Unlock()
		return nil
	}
	if !force && time.Now().Before(p.nextAllowed) {
		p.mu.Unlock()
		return nil
	}
	take := p.pending
	base := p.shipped
	p.pending = notary.NewAggregate()
	p.mu.Unlock()

	buf, err := EncodeDelta(&Delta{Source: p.opts.Source, Base: base, Agg: take})
	if err != nil {
		return p.fail(take, err, 0)
	}
	status, retryAfter, ack, err := postDelta(p.opts.Client, p.url, buf)
	if err != nil {
		return p.fail(take, fmt.Errorf("federation: pushing to %s: %w", p.url, err), 0)
	}
	switch {
	case status == http.StatusOK:
		p.mu.Lock()
		p.shipped = base + take.Generation()
		p.deltas++
		p.lastPush = time.Now()
		p.backoff.Reset()
		p.nextAllowed = time.Time{}
		p.lastErr = nil
		p.persistLocked()
		p.mu.Unlock()
		return nil
	case status == http.StatusTooManyRequests:
		return p.fail(take, fmt.Errorf("federation: upstream %s is busy (429)", p.url), retryAfter)
	case status == http.StatusConflict:
		return p.rebase(take, ack)
	default:
		return p.fail(take, fmt.Errorf("federation: upstream %s replied %d: %s", p.url, status, ack.Error), retryAfter)
	}
}

// fail retains the taken delta (re-merged with anything accumulated since
// the swap) and arms the backoff window. Merge commutes, so the retained
// content equals what serial accumulation would have produced.
func (p *Pusher) fail(take *notary.Aggregate, err error, floor time.Duration) error {
	p.mu.Lock()
	take.Merge(p.pending)
	p.pending = take
	p.errs++
	p.lastErr = err
	delay := p.backoff.Next(floor)
	p.nextAllowed = time.Now().Add(delay)
	p.mu.Unlock()
	p.logf("federation: push failed, retrying in %v: %v", delay.Round(time.Millisecond), err)
	return err
}

// rebase resolves an upstream overlap conflict (409): the upstream already
// applied part of the taken delta — an ack this edge lost, e.g. a crash
// between the server applying and the client persisting. Re-sending would
// double-count and dropping would lose the unapplied tail, so the unshipped
// delta is rebuilt from the record log past the upstream's applied-through
// cursor via the Rebase hook.
func (p *Pusher) rebase(take *notary.Aggregate, ack MergeAck) error {
	conflict := fmt.Errorf("federation: upstream %s already applied through generation %d", p.url, ack.AppliedThrough)
	if p.opts.Rebase == nil {
		return p.fail(take, fmt.Errorf("%w and no rebase source is configured", conflict), 0)
	}
	p.mu.Lock()
	rebuilt, err := p.opts.Rebase(ack.AppliedThrough)
	if err != nil {
		p.mu.Unlock()
		return p.fail(take, fmt.Errorf("%w; rebase failed: %v", conflict, err), 0)
	}
	defer p.mu.Unlock()
	// The rebuilt delta replaces both the taken delta and anything observed
	// since the swap: the rebase source (the durable record log) already
	// contains every record that has reached Observe.
	p.logf("federation: rebased on upstream cursor %d: retrying %d records (had %d unacked)",
		ack.AppliedThrough, rebuilt.Generation(), take.Generation())
	p.pending = rebuilt
	p.shipped = ack.AppliedThrough
	p.backoff.Reset()
	p.nextAllowed = time.Time{}
	p.lastErr = nil
	p.persistLocked()
	return nil
}

// persistLocked writes the shipped-through cursor to StatePath (callers
// hold p.mu) and returns once it is synced. The first persist after start-up
// or after a failure rewrites the file whole (SaveShippedState) and keeps it
// open; every later one overwrites the slot not holding the newest cursor —
// one write and one sync, the file's size and inode unchanged. Failures are
// counted and logged, never fatal: the cursor is a restart optimization, and
// a stale one only costs a duplicate push the upstream recognizes.
func (p *Pusher) persistLocked() {
	if p.opts.StatePath == "" {
		return
	}
	if err := p.writeStateLocked(); err != nil {
		p.stateErrs++
		p.logf("federation: persisting shipped state: %v", err)
	}
}

// writeStateLocked is persistLocked's write: whole on a first persist, one
// slot in place on every later one.
func (p *Pusher) writeStateLocked() error {
	if p.state == nil {
		if err := SaveShippedState(p.opts.StatePath, p.shipped); err != nil {
			return err
		}
		f, err := os.OpenFile(p.opts.StatePath, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		p.state, p.stateSlot = f, 0
		return nil
	}
	_, err := p.state.WriteAt(appendSlot(nil, p.shipped), int64(p.stateSlot*slotLen))
	if err == nil {
		err = p.state.Sync()
	}
	if err != nil {
		_ = p.dropStateLocked() // the next persist rewrites the file
		return err
	}
	p.stateSlot ^= 1
	return nil
}

// dropStateLocked closes the cursor file, so the next persist rewrites it.
func (p *Pusher) dropStateLocked() error {
	if p.state == nil {
		return nil
	}
	err := p.state.Close()
	p.state = nil
	return err
}

// --- shipped-state persistence ---
//
// The cursor file is two slots of one line each, a cursor in 20 zero-padded
// decimal digits and the CRC32 of those digits in hex:
//
//	00000000000000012345 45ac2cca
//	00000000000000012301 26ad2dd7
//
// A persist overwrites the slot not holding the newest cursor, so a torn
// write damages only that slot and the other still holds the cursor before
// it. A reader takes the larger cursor of the slots whose checksum holds:
// the cursor never decreases (a push moves it to base+records, a rebase to
// an upstream cursor past base), so a damaged slot can only send the edge
// back to an older cursor — a duplicate push, or a 409 rebased from the log
// — never past records the upstream has not acked.

const (
	slotDigits = 20                     // the widest uint64 in decimal
	slotLen    = slotDigits + 1 + 8 + 1 // digits, space, CRC32 in hex, newline
)

// appendSlot appends the slot holding gen to dst.
func appendSlot(dst []byte, gen uint64) []byte {
	digits := fmt.Appendf(nil, "%0*d", slotDigits, gen)
	return fmt.Appendf(dst, "%s %08x\n", digits, framing.Checksum(digits))
}

// LoadShippedState reads the shipped-through generation persisted at path.
// A missing file is generation 0 (nothing acked yet), not an error.
func LoadShippedState(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	gen, err := parseShippedState(b)
	if err != nil {
		return 0, fmt.Errorf("federation: shipped state %s: %w", path, err)
	}
	return gen, nil
}

// parseShippedState reads a cursor file: two slots, or any other shape as
// the single decimal line older builds wrote.
func parseShippedState(b []byte) (uint64, error) {
	if len(b) != 2*slotLen {
		return strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	}
	var gen uint64
	held := false
	for s := 0; s < 2; s++ {
		slot := b[s*slotLen : (s+1)*slotLen]
		g, err := strconv.ParseUint(string(slot[:slotDigits]), 10, 64)
		if err == nil && bytes.Equal(slot, appendSlot(nil, g)) && (!held || g > gen) {
			gen, held = g, true
		}
	}
	if !held {
		return 0, errors.New("neither cursor slot's checksum holds")
	}
	return gen, nil
}

// SaveShippedState writes the cursor file whole, gen in both slots, through
// notary.ReplaceFile (temp file in the same directory, fsync, rename, fsync
// the directory), so a crash leaves the old file or the new one. A Pusher
// does this on its first persist, which also converts a single-line file,
// and after a failed one; it then overwrites slots in place.
func SaveShippedState(path string, gen uint64) error {
	return notary.ReplaceFile(filepath.Dir(path), ".shipped-*", func(w io.Writer) (string, error) {
		_, err := w.Write(appendSlot(appendSlot(nil, gen), gen))
		return filepath.Base(path), err
	})
}

// --- one-shot push ---

// PushDelta frames d and POSTs it to the study at upstream ("/merge" is
// appended), returning the server's ack. One shot, no retries — the Pusher
// adds the timer/backoff discipline; this is the fire-and-forget path for
// pre-aggregated payloads like externally-run scan campaigns. A nil client
// uses http.DefaultClient.
func PushDelta(upstream string, d *Delta, client *http.Client) (MergeAck, error) {
	buf, err := EncodeDelta(d)
	if err != nil {
		return MergeAck{}, err
	}
	status, _, ack, err := postDelta(client, mergeURL(upstream), buf)
	if err != nil {
		return ack, err
	}
	if status != http.StatusOK {
		return ack, fmt.Errorf("federation: upstream replied %d: %s", status, ack.Error)
	}
	return ack, nil
}

// postDelta POSTs one encoded frame and parses the MergeAck reply. On a
// non-200 status ack.Error is never empty: a reply that names no cause gets
// the status text.
func postDelta(client *http.Client, url string, frame []byte) (status int, retryAfter time.Duration, ack MergeAck, err error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Post(url, ContentTypeDelta, bytes.NewReader(frame))
	if err != nil {
		return 0, 0, MergeAck{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return resp.StatusCode, 0, MergeAck{}, fmt.Errorf("reading upstream reply: %w", err)
	}
	// Tolerate a non-JSON body (proxy error page, wrong port): the caller
	// still gets the status code; the ack just stays zero.
	_ = json.Unmarshal(raw, &ack)
	if ack.Error == "" && resp.StatusCode != http.StatusOK {
		ack.Error = http.StatusText(resp.StatusCode)
	}
	return resp.StatusCode, retry.ParseRetryAfter(resp.Header.Get("Retry-After")), ack, nil
}
