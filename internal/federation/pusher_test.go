package federation

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/retry"
)

// mergeSink is a minimal upstream for pusher tests: it folds accepted
// deltas into one aggregate and keeps a per-source applied-through cursor
// with the same duplicate/conflict rules the service's /merge endpoint
// implements. fail, when set, intercepts a request before anything applies.
type mergeSink struct {
	mu      sync.Mutex
	agg     *notary.Aggregate
	applied map[string]uint64
	deltas  int
	fail    func(n int, w http.ResponseWriter) bool // n is the 1-based request number
	reqs    int
}

func newMergeSink() *mergeSink {
	return &mergeSink{agg: notary.NewAggregate(), applied: make(map[string]uint64)}
}

func (s *mergeSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs++
	if s.fail != nil && s.fail(s.reqs, w) {
		return
	}
	d, err := ReadDelta(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	applied := s.applied[d.Source]
	ack := MergeAck{AppliedThrough: applied}
	switch {
	case d.Base+d.Records() <= applied:
		ack.Duplicate = true
	case d.Base < applied:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		writeAck(w, ack)
		return
	default:
		s.agg.Merge(d.Agg)
		s.deltas++
		applied = d.Base + d.Records()
		s.applied[d.Source] = applied
		ack.Records = d.Records()
		ack.AppliedThrough = applied
	}
	ack.Generation = s.agg.Generation()
	writeAck(w, ack)
}

func writeAck(w http.ResponseWriter, ack MergeAck) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"records":` + uitoa(ack.Records) +
		`,"applied_through":` + uitoa(ack.AppliedThrough) +
		`,"generation":` + uitoa(ack.Generation) + `}`))
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// testPusher builds a pusher against srv with an hour-long timer so the
// tests drive every push deterministically through Flush, and a 1ms backoff
// without jitter.
func testPusher(t *testing.T, url string, opts PusherOptions) *Pusher {
	t.Helper()
	opts.Source = "edge-test"
	opts.Upstream = url
	opts.Interval = time.Hour
	opts.backoff = retry.Backoff{Base: time.Millisecond, Rand: func() float64 { return 0 }}
	p, err := NewPusher(opts)
	if err != nil {
		t.Fatalf("NewPusher: %v", err)
	}
	return p
}

// TestPusherShipsExactlyOnce: three observed shards over two flushes land
// upstream exactly once each, the cursor tracking the summed generations.
func TestPusherShipsExactlyOnce(t *testing.T) {
	sink := newMergeSink()
	srv := httptest.NewServer(sink)
	defer srv.Close()
	p := testPusher(t, srv.URL, PusherOptions{})

	want := notary.NewAggregate()
	for seed := uint64(1); seed <= 2; seed++ {
		shard := buildAggregate(seed, 6)
		want.Merge(shard)
		p.Observe(shard)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("first flush: %v", err)
	}
	third := buildAggregate(3, 4)
	want.Merge(third)
	p.Observe(third)
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := p.Stats().ShippedThrough; got != want.Generation() {
		t.Fatalf("shipped through %d, want %d", got, want.Generation())
	}
	if !reflect.DeepEqual(sink.agg, want) {
		t.Fatal("upstream aggregate differs from the merged shards")
	}
	if sink.deltas != 2 {
		t.Fatalf("upstream applied %d deltas, want 2", sink.deltas)
	}
	st := p.Stats()
	if st.ShippedDeltas != 2 || st.RetainedRecords != 0 || st.UpstreamErrors != 0 {
		t.Fatalf("stats %+v: want 2 shipped, 0 retained, 0 errors", st)
	}
	if st.LastPushAge < 0 {
		t.Fatal("LastPushAge still -1 after successful pushes")
	}
}

// TestPusherRetainsAcross429: a busy upstream sheds the push; the delta is
// retained (merged with later arrivals) and the retry applies everything
// exactly once.
func TestPusherRetainsAcross429(t *testing.T) {
	sink := newMergeSink()
	sink.fail = func(n int, w http.ResponseWriter) bool {
		if n == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return true
		}
		return false
	}
	srv := httptest.NewServer(sink)
	defer srv.Close()
	p := testPusher(t, srv.URL, PusherOptions{})

	first := buildAggregate(1, 5)
	p.Observe(first)
	if err := p.Flush(); err == nil {
		t.Fatal("flush against a 429 upstream reported success")
	}
	if st := p.Stats(); st.RetainedRecords != first.Generation() || st.UpstreamErrors != 1 {
		t.Fatalf("after 429: stats %+v, want %d retained and 1 error", st, first.Generation())
	}
	second := buildAggregate(2, 3)
	p.Observe(second)
	if err := p.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	want := notary.NewAggregate()
	want.Merge(first)
	want.Merge(second)
	if !reflect.DeepEqual(sink.agg, want) {
		t.Fatal("upstream aggregate differs after retry (lost or doubled records)")
	}
	if p.Stats().ShippedThrough != want.Generation() {
		t.Fatalf("shipped through %d, want %d", p.Stats().ShippedThrough, want.Generation())
	}
	_ = p.Close()
}

// TestPusherRetryAfterCannotParkTimerPushes: the upstream's Retry-After is a
// floor under the backoff, never a way past MaxDelay. One 429 asking for
// eleven days — or for more seconds than a Duration holds — must see the
// next timer push within 2×MaxDelay, and the delta still lands exactly once.
func TestPusherRetryAfterCannotParkTimerPushes(t *testing.T) {
	const maxDelay = 150 * time.Millisecond
	for _, retryAfter := range []string{"1000000", "999999999999"} {
		sink := newMergeSink()
		arrived := make(chan time.Time, 16)
		sink.fail = func(n int, w http.ResponseWriter) bool {
			arrived <- time.Now()
			if n == 1 {
				w.Header().Set("Retry-After", retryAfter)
				w.WriteHeader(http.StatusTooManyRequests)
				return true
			}
			return false
		}
		srv := httptest.NewServer(sink)
		p, err := NewPusher(PusherOptions{
			Source: "edge-test", Upstream: srv.URL, Interval: 5 * time.Millisecond,
			backoff: retry.Backoff{Base: time.Millisecond, Max: maxDelay},
		})
		if err != nil {
			t.Fatal(err)
		}
		shard := buildAggregate(1, 5)
		p.Observe(shard)
		shed := <-arrived
		select {
		case retried := <-arrived:
			if gap := retried.Sub(shed); gap > 2*maxDelay {
				t.Errorf("Retry-After %s: timer push retried after %v, want within %v", retryAfter, gap, 2*maxDelay)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("Retry-After %s parked the pusher's timer pushes", retryAfter)
		}
		if err := p.Close(); err != nil {
			t.Errorf("Retry-After %s: close: %v", retryAfter, err)
		}
		if p.Stats().ShippedThrough != shard.Generation() || sink.deltas != 1 {
			t.Errorf("Retry-After %s: shipped through %d in %d deltas, want %d in 1",
				retryAfter, p.Stats().ShippedThrough, sink.deltas, shard.Generation())
		}
		srv.Close()
	}
}

// TestPusherRetainsAcrossTransportError: a dead upstream (connection
// refused) keeps the delta retained; once the upstream exists the retry
// ships everything exactly once.
func TestPusherRetainsAcrossTransportError(t *testing.T) {
	sink := newMergeSink()
	srv := httptest.NewServer(sink)
	url := srv.URL
	srv.Close() // now refuses connections

	p := testPusher(t, url, PusherOptions{})
	shard := buildAggregate(1, 8)
	p.Observe(shard)
	if err := p.Flush(); err == nil {
		t.Fatal("flush against a dead upstream reported success")
	}
	if st := p.Stats(); st.RetainedRecords != shard.Generation() {
		t.Fatalf("retained %d records, want %d", st.RetainedRecords, shard.Generation())
	}
	// Revive the upstream on a fresh port and point a new pusher at it with
	// the retained state — the restart shape, minus the durable log.
	srv2 := httptest.NewServer(sink)
	defer srv2.Close()
	p2 := testPusher(t, srv2.URL, PusherOptions{Initial: retained(p), Shipped: p.Stats().ShippedThrough})
	if err := p2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !reflect.DeepEqual(sink.agg, shard) {
		t.Fatal("upstream aggregate differs from the observed shard")
	}
	_ = p.Close() // the dead-upstream pusher still holds its delta; expected to fail
}

// retained extracts the pending delta from a pusher for handoff in tests.
func retained(p *Pusher) *notary.Aggregate {
	p.mu.Lock()
	defer p.mu.Unlock()
	take := p.pending
	p.pending = notary.NewAggregate()
	return take
}

// TestPusherDuplicateAck: when the upstream already applied the delta (an
// ack lost in transit), the re-push is acked as a duplicate and the cursor
// advances without double-counting.
func TestPusherDuplicateAck(t *testing.T) {
	// Apply request 1 but kill its response: the client sees a transport
	// error after the server applied — the classic lost ack.
	sink := newMergeSink()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sink.mu.Lock()
		n := sink.reqs + 1
		sink.mu.Unlock()
		if n == 1 {
			// Apply, then cut the connection instead of replying.
			sink.ServeHTTP(&discardResponse{}, r)
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer is not a hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		sink.ServeHTTP(w, r)
	}))
	defer srv.Close()

	p := testPusher(t, srv.URL, PusherOptions{})
	shard := buildAggregate(1, 5)
	p.Observe(shard)
	if err := p.Flush(); err == nil {
		t.Fatal("flush with a killed response reported success")
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("duplicate re-push: %v", err)
	}
	if sink.deltas != 1 {
		t.Fatalf("upstream applied %d deltas, want 1 (duplicate must not re-apply)", sink.deltas)
	}
	if !reflect.DeepEqual(sink.agg, shard) {
		t.Fatal("upstream aggregate differs (duplicate double-counted)")
	}
	if p.Stats().ShippedThrough != shard.Generation() {
		t.Fatalf("shipped through %d, want %d", p.Stats().ShippedThrough, shard.Generation())
	}
	_ = p.Close()
}

// discardResponse satisfies http.ResponseWriter for the apply-then-kill
// path.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestPusherRebase: a partial overlap (409) rebuilds pending from the
// Rebase hook past the upstream cursor and the follow-up push carries only
// the unapplied tail.
func TestPusherRebase(t *testing.T) {
	sink := newMergeSink()
	srv := httptest.NewServer(sink)
	defer srv.Close()

	// The upstream has already applied the first 7 records from this source
	// (a previous life of the edge whose ack never persisted).
	already := buildAggregate(1, 4)
	sink.agg.Merge(already)
	sink.applied["edge-test"] = already.Generation()

	tail := buildAggregate(2, 3)
	var rebaseFrom uint64
	p := testPusher(t, srv.URL, PusherOptions{
		Rebase: func(from uint64) (*notary.Aggregate, error) {
			rebaseFrom = from
			// The log replay past `from` yields exactly the unapplied tail.
			re := notary.NewAggregate()
			re.Merge(tail)
			return re, nil
		},
	})
	// The edge believes nothing shipped: its first push overlaps what the
	// upstream already applied.
	stale := notary.NewAggregate()
	stale.Merge(already)
	stale.Merge(tail)
	p.Observe(stale)
	if err := p.Flush(); err != nil {
		t.Fatalf("rebase flush: %v", err)
	}
	if rebaseFrom != already.Generation() {
		t.Fatalf("rebase hook saw cursor %d, want %d", rebaseFrom, already.Generation())
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("post-rebase flush: %v", err)
	}
	want := notary.NewAggregate()
	want.Merge(already)
	want.Merge(tail)
	if !reflect.DeepEqual(sink.agg, want) {
		t.Fatal("upstream aggregate differs after rebase (overlap double-counted or tail lost)")
	}
	if p.Stats().ShippedThrough != want.Generation() {
		t.Fatalf("shipped through %d, want %d", p.Stats().ShippedThrough, want.Generation())
	}
	_ = p.Close()
}

// TestNewPusherOptions: a source no delta could carry is refused, and an
// unset interval is DefaultPushInterval.
func TestNewPusherOptions(t *testing.T) {
	if _, err := NewPusher(PusherOptions{Source: strings.Repeat("x", MaxDeltaSource+1), Upstream: "http://127.0.0.1:1"}); err == nil {
		t.Error("a source over MaxDeltaSource accepted")
	}
	p, err := NewPusher(PusherOptions{Source: "edge-test", Upstream: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil || p.opts.Interval != DefaultPushInterval {
		t.Fatalf("close %v, interval %v; want nil, %v", err, p.opts.Interval, DefaultPushInterval)
	}
}

// TestPusherRetainsWhatFails: an upstream status the pusher has no rule for,
// a conflict whose rebase source fails and a conflict with no rebase source
// are failed pushes like any other, not silent data loss: the error names the
// cause and the delta stays retained.
func TestPusherRetainsWhatFails(t *testing.T) {
	for name, c := range map[string]struct {
		applied uint64 // the upstream's cursor; past 0, the push conflicts
		status  int    // the upstream replies with it to every push, 0: no fault
		want    string
	}{
		"unruled status":      {status: http.StatusInternalServerError, want: "replied 500: merge loop stopped"},
		"failing rebase hook": {applied: 5, want: "rebase failed: the log is gone"},
		"no rebase hook":      {applied: 5, want: "no rebase source"},
	} {
		t.Run(name, func(t *testing.T) {
			sink := newMergeSink()
			sink.applied["edge-test"] = c.applied
			if c.status != 0 {
				sink.fail = func(_ int, w http.ResponseWriter) bool {
					w.WriteHeader(c.status)
					_, _ = w.Write([]byte(`{"error":"merge loop stopped"}`))
					return true
				}
			}
			srv := httptest.NewServer(sink)
			defer srv.Close()
			var opts PusherOptions
			if name != "no rebase hook" {
				opts.Rebase = func(uint64) (*notary.Aggregate, error) { return nil, errors.New("the log is gone") }
			}
			p := testPusher(t, srv.URL, opts)
			shard := buildAggregate(1, 6)
			p.Observe(shard)
			if err := p.Flush(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("flush: %v, want %q", err, c.want)
			}
			if st := p.Stats(); st.RetainedRecords != shard.Generation() || st.UpstreamErrors != 1 {
				t.Fatalf("stats %+v, want %d retained and 1 error", st, shard.Generation())
			}
			_ = p.Close()
		})
	}
}

// TestShippedState: the cursor file's contract. A missing file reads as
// zero, a single-line file from an older build reads as its number and the
// next persist converts it, a value round-trips through the slots, a damaged
// slot falls back to the other one and never yields a cursor nobody wrote,
// and an acked push persists.
func TestShippedState(t *testing.T) {
	// twoSlots is a cursor file whose slots hold a and b.
	twoSlots := func(a, b uint64) []byte { return appendSlot(appendSlot(nil, a), b) }
	persistOnePush := func(t *testing.T, statePath string, shipped uint64) uint64 {
		t.Helper()
		sink := newMergeSink()
		sink.applied["edge-test"] = shipped
		srv := httptest.NewServer(sink)
		defer srv.Close()
		p := testPusher(t, srv.URL, PusherOptions{StatePath: statePath, Shipped: shipped})
		shard := buildAggregate(1, 5)
		p.Observe(shard)
		if err := p.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return shipped + shard.Generation()
	}

	t.Run("missing-file-reads-as-zero", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sub", "shipped.gen")
		if gen, err := LoadShippedState(path); err != nil || gen != 0 {
			t.Fatalf("missing state file: (%d, %v), want (0, nil)", gen, err)
		}
	})

	t.Run("legacy-line-is-read-and-converted", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "shipped.gen")
		if err := os.WriteFile(path, []byte("12345\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if gen, err := LoadShippedState(path); err != nil || gen != 12345 {
			t.Fatalf("legacy file: (%d, %v), want (12345, nil)", gen, err)
		}
		want := persistOnePush(t, path, 12345)
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) != 2*slotLen {
			t.Fatalf("after a persist the file is %q (err %v), want two slots", raw, err)
		}
		if gen, err := LoadShippedState(path); err != nil || gen != want {
			t.Fatalf("converted file: (%d, %v), want (%d, nil)", gen, err, want)
		}
	})

	t.Run("value-round-trips-through-the-slots", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sub", "shipped.gen")
		for _, gen := range []uint64{0, 12345, math.MaxUint64} {
			if err := SaveShippedState(path, gen); err != nil {
				t.Fatalf("SaveShippedState: %v", err)
			}
			if got, err := LoadShippedState(path); err != nil || got != gen {
				t.Fatalf("round trip: (%d, %v), want (%d, nil)", got, err, gen)
			}
		}
		if got, err := parseShippedState(twoSlots(700, 701)); err != nil || got != 701 {
			t.Fatalf("slots 700 and 701 read as (%d, %v), want the larger", got, err)
		}
	})

	t.Run("a-damaged-slot-reads-as-the-other", func(t *testing.T) {
		// Either slot may hold the newest cursor, and either may be the one
		// a crash tore.
		for _, slots := range [][2]uint64{{12345, 12301}, {12301, 12345}} {
			file := twoSlots(slots[0], slots[1])
			for damaged := 0; damaged < 2; damaged++ {
				other := slots[1-damaged]
				for at := damaged * slotLen; at < (damaged+1)*slotLen; at++ {
					orig := file[at]
					for v := 0; v < 256; v++ {
						if byte(v) == orig {
							continue
						}
						file[at] = byte(v)
						if got, err := parseShippedState(file); err != nil || got != other {
							t.Fatalf("slots %v, byte %d set to %#02x: read (%d, %v), want the other slot's %d",
								slots, at, v, got, err, other)
						}
					}
					file[at] = orig
				}
			}
		}
	})

	t.Run("both-slots-damaged-is-an-error", func(t *testing.T) {
		file := twoSlots(12345, 12301)
		file[3]++
		file[slotLen+slotDigits+2]++
		if gen, err := parseShippedState(file); err == nil {
			t.Fatalf("both slots damaged read as %d without error", gen)
		}
	})

	t.Run("a-directory-is-an-error", func(t *testing.T) {
		if _, err := LoadShippedState(t.TempDir()); !errors.Is(err, syscall.EISDIR) {
			t.Fatalf("a directory as the state file: %v, want EISDIR", err)
		}
	})

	t.Run("not-a-number-is-an-error", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "shipped.gen")
		if err := os.WriteFile(path, []byte("not a number\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadShippedState(path); err == nil {
			t.Fatal("corrupt state file read without error")
		}
	})

	t.Run("acked-push-persists", func(t *testing.T) {
		statePath := filepath.Join(t.TempDir(), "pusher", "shipped.gen")
		want := persistOnePush(t, statePath, 0)
		if gen, err := LoadShippedState(statePath); err != nil || gen != want {
			t.Fatalf("persisted cursor (%d, %v), want (%d, nil)", gen, err, want)
		}
	})
}

// TestCursorPersistsInPlace: after the persist that creates the cursor file,
// every acked push rewrites a slot of that same file — same inode, same size,
// and nothing else ever appears in its directory, no temp file included.
func TestCursorPersistsInPlace(t *testing.T) {
	sink := newMergeSink()
	srv := httptest.NewServer(sink)
	defer srv.Close()
	dir := t.TempDir()
	statePath := filepath.Join(dir, "shipped.gen")
	p := testPusher(t, srv.URL, PusherOptions{StatePath: statePath})
	defer p.Close()
	push := func() {
		t.Helper()
		p.Observe(buildAggregate(1, 1))
		if err := p.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	push() // creates the file
	first, err := os.Stat(statePath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		push()
		fi, err := os.Stat(statePath)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, fi) || fi.Size() != 2*slotLen {
			t.Fatalf("persist %d: the cursor file is a new file or changed size (%d bytes, want %d)", i, fi.Size(), 2*slotLen)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "shipped.gen" {
			t.Fatalf("persist %d: the directory holds %v, want only shipped.gen", i, entries)
		}
	}
	if gen, err := LoadShippedState(statePath); err != nil || gen != p.Stats().ShippedThrough {
		t.Fatalf("persisted cursor (%d, %v), want (%d, nil)", gen, err, p.Stats().ShippedThrough)
	}
	if st := p.Stats(); st.StateErrors != 0 {
		t.Fatalf("%d persists failed", st.StateErrors)
	}
}

// TestPushDeltaFailures: the one-shot push reports a delta it cannot frame,
// a reply cut short and a refusal, with the upstream's ack where there is
// one.
func TestPushDeltaFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("cut") {
			// Promise a body, send a byte of it and hang up.
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err == nil {
				buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{")
				buf.Flush()
				conn.Close()
			}
			return
		}
		w.WriteHeader(http.StatusConflict)
		writeAck(w, MergeAck{AppliedThrough: 9})
	}))
	defer srv.Close()
	agg := buildAggregate(3, 7)
	for name, c := range map[string]struct {
		upstream, source, want string
	}{
		"source over the bound": {srv.URL, strings.Repeat("x", MaxDeltaSource+1), "source name 257 bytes long"},
		"reply cut short":       {srv.URL + "?cut=1", "campaign", "reading upstream reply: unexpected EOF"},
		"refused":               {srv.URL, "campaign", "upstream replied 409: Conflict"},
	} {
		ack, err := PushDelta(c.upstream, &Delta{Source: c.source, Agg: agg}, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", name, err, c.want)
		}
		if name == "refused" && ack.AppliedThrough != 9 {
			t.Errorf("refused: ack %+v, want the upstream's cursor 9", ack)
		}
	}
}

// TestPushDeltaOneShot: the fire-and-forget path used by scan campaigns.
func TestPushDeltaOneShot(t *testing.T) {
	sink := newMergeSink()
	srv := httptest.NewServer(sink)
	defer srv.Close()
	agg := buildAggregate(3, 7)
	ack, err := PushDelta(srv.URL, &Delta{Source: "campaign", Agg: agg}, nil)
	if err != nil {
		t.Fatalf("PushDelta: %v", err)
	}
	if ack.Records != agg.Generation() || ack.AppliedThrough != agg.Generation() {
		t.Fatalf("ack %+v, want %d records applied", ack, agg.Generation())
	}
	if !reflect.DeepEqual(sink.agg, agg) {
		t.Fatal("upstream aggregate differs from the pushed campaign")
	}
	// Replaying the identical push is an idempotent duplicate: acked, but
	// nothing applies twice.
	ack2, err := PushDelta(srv.URL, &Delta{Source: "campaign", Agg: agg}, nil)
	if err != nil {
		t.Fatalf("replayed PushDelta: %v", err)
	}
	if ack2.Records != 0 || sink.deltas != 1 {
		t.Fatalf("replay applied %d records over %d deltas, want 0 over 1", ack2.Records, sink.deltas)
	}
	if !reflect.DeepEqual(sink.agg, agg) {
		t.Fatal("replay changed the upstream aggregate")
	}
}
