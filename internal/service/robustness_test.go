package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tlsage/internal/core"
	"tlsage/internal/notary"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdIngestSlot parks one ingest stream in flight on an httptest server and
// returns a release function that lets it finish.
func holdIngestSlot(t *testing.T, srv *Server, url string) (release func()) {
	t.Helper()
	pr, pw := io.Pipe()
	done := postIngest(url, ContentTypeTSV, pr)
	waitFor(t, "the held stream to enter ingest", func() bool { return srv.inFlight.Load() == 1 })
	return func() {
		pw.Close()
		<-done
		waitFor(t, "the held stream to drain", func() bool { return srv.inFlight.Load() == 0 })
	}
}

// TestIngestBackpressure saturates a one-slot server and pins the shed
// contract on both transports: over HTTP a 429 with a Retry-After header and
// healthz gauges that report the saturation, over raw TCP the status line
// "busy <seconds>"; and a retrying feeder of each kind that eventually lands
// the stream (over HTTP no sooner than Retry-After). A stream that reaches a
// closed server's merge queue is shed the same way.
func TestIngestBackpressure(t *testing.T) {
	log, offline := sharedLog(t)
	for _, transport := range []string{"http", "tcp"} {
		overTCP := transport == "tcp"
		t.Run(transport, func(t *testing.T) {
			srv := NewServer(core.NewLiveStudy(), WithFlushEvery(61), WithMaxInFlight(1))
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.ServeTCP(ln) }()

			release := holdIngestSlot(t, srv, ts.URL)

			// A second stream is shed, not queued.
			feed := FeedHTTP
			addr := ts.URL
			if overTCP {
				feed, addr = FeedTCP, ln.Addr().String()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				reply, _ := io.ReadAll(conn)
				conn.Close()
				if got := strings.TrimSpace(string(reply)); got != fmt.Sprintf("busy %d", DefaultRetryAfter) {
					t.Fatalf("saturated tcp reply = %q", got)
				}
			} else {
				r := <-postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(log))
				if r.status != http.StatusTooManyRequests {
					t.Fatalf("saturated ingest replied %+v, want 429", r)
				}
				if got := r.header.Get("Retry-After"); got != fmt.Sprint(DefaultRetryAfter) {
					t.Fatalf("Retry-After = %q, want %d", got, DefaultRetryAfter)
				}
				// healthz exposes the gauges while still saturated.
				var health struct {
					InFlight    int    `json:"in_flight"`
					MaxInFlight int    `json:"max_in_flight"`
					Shed        uint64 `json:"shed"`
				}
				if err := json.Unmarshal(mustGet(t, ts.URL+"/healthz"), &health); err != nil {
					t.Fatal(err)
				}
				if health.InFlight != 1 || health.MaxInFlight != 1 || health.Shed == 0 {
					t.Fatalf("healthz gauges = %+v, want in_flight 1, max_in_flight 1, shed > 0", health)
				}
			}

			// A retrying feeder sheds once, backs off, and succeeds once the
			// slot frees: the first sleep releases the held stream.
			var delays []time.Duration
			res, err := feed(addr, func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(log)), nil
			}, FeedOptions{
				MaxRetries: 5,
				Rand:       func() float64 { return 0 },
				Logf:       t.Logf,
				Sleep: func(d time.Duration) {
					delays = append(delays, d)
					release()
				},
			})
			if err != nil {
				t.Fatalf("feed with retry: %v", err)
			}
			if want := offline.Aggregate().TotalRecords(); res.Records != want || res.Attempts < 2 {
				t.Fatalf("feed = %+v, want %d records over >= 2 attempts", res, want)
			}
			// The server's Retry-After is the HTTP backoff floor.
			if !overTCP && (len(delays) == 0 || delays[0] < time.Duration(DefaultRetryAfter)*time.Second) {
				t.Fatalf("retry delays %v ignore Retry-After %ds", delays, DefaultRetryAfter)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != nil {
				t.Fatalf("ServeTCP: %v", err)
			}
		})
	}
	// The queue is closed, so the stream's shard is shed with 429 and nothing
	// applied, never sent on the closed channel.
	t.Run("closed", func(t *testing.T) {
		srv := NewServer(core.NewLiveStudy())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if r := <-postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(log)); r.status != http.StatusTooManyRequests || r.Records != 0 {
			t.Fatalf("ingest after Close replied %+v, want 429 with no records", r)
		}
	})
}

// TestFeedRetryGivesUp: a server that stays saturated exhausts the retry
// budget with an error instead of spinning forever.
func TestFeedRetryGivesUp(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer hs.Close()
	var delays []time.Duration
	_, err := FeedHTTP(hs.URL, func() (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader("")), nil
	}, FeedOptions{
		MaxRetries: 2,
		Rand:       func() float64 { return 0 },
		Sleep:      func(d time.Duration) { delays = append(delays, d) },
	})
	if err == nil || !strings.Contains(err.Error(), "still busy") {
		t.Fatalf("err = %v, want still-busy failure", err)
	}
	if len(delays) != 2 {
		t.Fatalf("%d sleeps, want 2", len(delays))
	}
	for i, d := range delays {
		if d < 3*time.Second {
			t.Fatalf("delay %d = %v below the Retry-After floor of 3s", i, d)
		}
	}
}

// TestFeedRetryAfterIsCappedAtMaxDelay: the server's Retry-After raises the
// backoff floor but never past MaxDelay — not for a value of days, nor for
// one with more seconds than a Duration holds (which must saturate, not wrap
// into a negative floor).
func TestFeedRetryAfterIsCappedAtMaxDelay(t *testing.T) {
	const maxDelay = 2 * time.Second
	for _, retryAfter := range []string{"1000000", "999999999999"} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", retryAfter)
			w.WriteHeader(http.StatusTooManyRequests)
		}))
		var delays []time.Duration
		_, err := FeedHTTP(hs.URL, func() (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader("")), nil
		}, FeedOptions{
			MaxRetries: 4,
			MaxDelay:   maxDelay,
			Sleep:      func(d time.Duration) { delays = append(delays, d) },
		})
		hs.Close()
		if err == nil || len(delays) != 4 {
			t.Fatalf("Retry-After %s: err %v after %d sleeps, want a still-busy failure after 4", retryAfter, err, len(delays))
		}
		for i, d := range delays {
			// The floor is honoured as far as the cap allows: exactly MaxDelay.
			if d != maxDelay {
				t.Errorf("Retry-After %s: delay %d = %v, want %v", retryAfter, i, d, maxDelay)
			}
		}
	}
}

// TestIngestMaxBodyBytes pins the 413 path: a capped body cuts the stream
// off with RequestEntityTooLarge and keeps exactly the whole lines that fit.
// The line the cap cuts is not a line — least of all when the cut falls
// inside its last field, the cohort, where what was read still parses as a
// record with a cut-short cohort.
func TestIngestMaxBodyBytes(t *testing.T) {
	log, _ := sharedLog(t)
	// inCohort is a cap that cuts a line of the log inside its cohort.
	inCohort, off := 0, 0
	for _, line := range bytes.SplitAfter(log, []byte{'\n'}) {
		if cohort := line[bytes.LastIndexByte(line, '\t')+1 : len(line)-1]; off > 4096 && len(cohort) > 1 {
			inCohort = off + len(line) - 1 - len(cohort)/2
			break
		}
		off += len(line)
	}
	if inCohort == 0 {
		t.Fatal("no line past 4,096 bytes has a cohort to cut")
	}
	for _, limit := range []int{4096, inCohort} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			srv := NewServer(core.NewLiveStudy(), WithFlushEvery(1), WithMaxBodyBytes(int64(limit)))
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			reply := <-postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(log))
			if reply.status != http.StatusRequestEntityTooLarge {
				t.Fatalf("ingest replied %+v, want 413", reply)
			}
			if want := fmt.Sprintf("the %d-byte ingest cap", limit); !strings.Contains(reply.Error, want) {
				t.Errorf("error %q does not name %s", reply.Error, want)
			}
			whole := len(recordsOf(t, log[:bytes.LastIndexByte(log[:limit], '\n')+1]))
			records, _, _, err := srv.Study().Counts()
			if err != nil || records != whole || reply.Records != whole {
				t.Errorf("study holds %d records (err %v), reply says %d; want the %d whole lines below the cap",
					records, err, reply.Records, whole)
			}
		})
	}
}

// failingSink errors on the nth record — a record-log write failure.
type failingSink struct{ n, seen int }

func (f *failingSink) Observe(*notary.Record) error {
	f.seen++
	if f.seen >= f.n {
		return errors.New("disk full")
	}
	return nil
}

func (f *failingSink) Close() error { return nil }

// TestIngestInternalErrorIs500: a failure inside the collector (the record
// log, not the client's bytes) answers 500, not 400.
func TestIngestInternalErrorIs500(t *testing.T) {
	log, _ := sharedLog(t)
	srv := NewServer(core.NewLiveStudy(), WithLogSink(&failingSink{n: 5}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if r := <-postIngest(ts.URL, ContentTypeTSV, bytes.NewReader(log)); r.status != http.StatusInternalServerError {
		t.Fatalf("ingest replied %+v, want 500", r)
	}
}

// TestStalledTCPClientReleasesClose: with an idle timeout, a client that
// stops sending mid-stream cannot wedge Server.Close behind the handler
// drain — the deadline fires, the handler exits, Close returns.
func TestStalledTCPClientReleasesClose(t *testing.T) {
	log, _ := sharedLog(t)
	srv := NewServer(core.NewLiveStudy(), WithFlushEvery(31), WithIdleTimeout(50*time.Millisecond))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeTCP(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a stream, then silence — the stall.
	if _, err := conn.Write(log[:len(log)/2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stalled stream to enter ingest", func() bool { return srv.inFlight.Load() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind the stalled client — idle deadline never fired")
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
}

// flakyListener fails its first Accept calls with a retryable error.
type flakyListener struct {
	net.Listener
	failures int
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: resource temporarily unavailable" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (fl *flakyListener) Accept() (net.Conn, error) {
	if fl.failures > 0 {
		fl.failures--
		return nil, tempErr{}
	}
	return fl.Listener.Accept()
}

// TestServeTCPRetriesTransientAccept: a burst of temporary Accept errors
// (EMFILE et al.) must not kill the accept loop; the stream that follows
// still ingests.
func TestServeTCPRetriesTransientAccept(t *testing.T) {
	log, offline := sharedLog(t)
	srv := NewServer(core.NewLiveStudy(), WithFlushEvery(83))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeTCP(&flakyListener{Listener: ln, failures: 3}) }()

	res, err := FeedTCP(ln.Addr().String(), func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(log)), nil
	}, FeedOptions{})
	if err != nil {
		t.Fatalf("feed after transient accept errors: %v", err)
	}
	if want := offline.Aggregate().TotalRecords(); res.Records != want {
		t.Fatalf("fed %d records, want %d", res.Records, want)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
}

// TestServeTCPAbortsOnFatalAccept: non-transient listener failures still
// surface instead of looping forever.
func TestServeTCPAbortsOnFatalAccept(t *testing.T) {
	srv := NewServer(core.NewLiveStudy())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fatal := &fatalListener{Listener: ln}
	if err := srv.ServeTCP(fatal); !errors.Is(err, errFatalAccept) {
		t.Fatalf("ServeTCP = %v, want %v", err, errFatalAccept)
	}
}

var errFatalAccept = errors.New("listener wedged")

type fatalListener struct{ net.Listener }

func (fl *fatalListener) Accept() (net.Conn, error) { return nil, errFatalAccept }
