package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"tlsage/internal/retry"
)

// FeedOptions tunes the retry behavior of FeedHTTP and FeedTCP. The zero
// value never retries — a shed stream (HTTP 429 or a TCP "busy" line) is
// reported as an error, matching the old one-shot feeder.
type FeedOptions struct {
	// MaxRetries is how many times a shed stream is retried before giving
	// up. 0 means no retries.
	MaxRetries int
	// BaseDelay, MaxDelay and Rand configure the retry.Backoff between
	// attempts (zero values: 250ms doubling to 10s, math/rand jitter); the
	// server's Retry-After, or the busy line's seconds, is its floor.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	Rand      func() float64
	// Sleep is the delay function — a test hook; nil means time.Sleep.
	Sleep func(time.Duration)
	// Logf, when set, receives one line per retry ("server busy, retrying
	// in ...").
	Logf func(format string, args ...any)
}

// FeedResult reports a successfully ingested stream.
type FeedResult struct {
	Records    int    // records the server accepted from this stream
	Generation uint64 // server aggregate generation after the merge
	Attempts   int    // total attempts, including the successful one
}

// errShed is the internal marker for "the server shed this stream; retry
// after the embedded delay floor".
type errShed struct{ retryAfter time.Duration }

func (e errShed) Error() string { return "server busy" }

// feedRetry runs attempt until it succeeds, fails hard, or exhausts the
// retry budget. Only errShed results are retried.
func feedRetry(opts FeedOptions, attempt func() (FeedResult, error)) (FeedResult, error) {
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	backoff := retry.Backoff{Base: opts.BaseDelay, Max: opts.MaxDelay, Rand: opts.Rand}
	for try := 0; ; try++ {
		res, err := attempt()
		res.Attempts = try + 1
		var shed errShed
		if !errors.As(err, &shed) {
			return res, err
		}
		if try >= opts.MaxRetries {
			return res, fmt.Errorf("feed: server still busy after %d attempts", try+1)
		}
		delay := backoff.Next(shed.retryAfter)
		if opts.Logf != nil {
			opts.Logf("feed: server busy, retrying in %v (attempt %d/%d)",
				delay.Round(time.Millisecond), try+2, opts.MaxRetries+1)
		}
		sleep(delay)
	}
}

// FeedHTTP streams a record log (TLSB frames, TSV lines or both) into a
// server's POST /ingest endpoint, labelled ContentTypeBatch whatever it holds
// (the server reads a body by its content), retrying when the server sheds the
// stream with 429 (honoring its Retry-After header as the backoff floor).
// open must return a fresh body for every attempt — a shed stream was never
// read, but the connection is gone, so the feeder needs to restart it from
// the top. A 429 reporting a nonzero record count is NOT retried: the
// server applied part of the stream before its merge queue filled, and
// replaying from the top would double-count those records.
func FeedHTTP(baseURL string, open func() (io.ReadCloser, error), opts FeedOptions) (FeedResult, error) {
	url := strings.TrimSuffix(baseURL, "/") + "/ingest"
	return feedRetry(opts, func() (FeedResult, error) {
		var res FeedResult
		body, err := open()
		if err != nil {
			return res, err
		}
		resp, err := http.Post(url, ContentTypeBatch, body)
		body.Close()
		if err != nil {
			return res, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if err != nil {
			return res, fmt.Errorf("feed: reading server reply: %w", err)
		}
		var reply struct {
			Records    int    `json:"records"`
			Generation uint64 `json:"generation"`
			Error      string `json:"error"`
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if json.Unmarshal(raw, &reply) == nil && reply.Records > 0 {
				return res, fmt.Errorf(
					"feed: server shed a part-applied stream (%d records merged); not retrying to avoid duplicates",
					reply.Records)
			}
			return res, errShed{retryAfter: retry.ParseRetryAfter(resp.Header.Get("Retry-After"))}
		}
		if err := json.Unmarshal(raw, &reply); err != nil {
			// Not a tlstrend serve reply (wrong port, proxy error page, ...):
			// report the status line and what came back rather than a JSON error.
			return res, fmt.Errorf("feed: server replied %s: %s", resp.Status, strings.TrimSpace(string(raw)))
		}
		if resp.StatusCode != http.StatusOK {
			return res, fmt.Errorf("feed: server rejected stream after %d records: %s", reply.Records, reply.Error)
		}
		res.Records = reply.Records
		res.Generation = reply.Generation
		return res, nil
	})
}

// FeedTCP streams a record log (TSV lines, batch frames or both — the
// server reads each entry by its first bytes) over a raw TCP connection,
// retrying when the server replies with a "busy <seconds>" shed line. The
// server only says "busy" when nothing from the stream was applied; a
// part-applied shed comes back as "error: ..." and fails hard, so retries
// never double-count. open must return a fresh body for every attempt.
func FeedTCP(addr string, open func() (io.ReadCloser, error), opts FeedOptions) (FeedResult, error) {
	return feedRetry(opts, func() (FeedResult, error) {
		var res FeedResult
		body, err := open()
		if err != nil {
			return res, err
		}
		defer body.Close()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return res, err
		}
		defer conn.Close()
		// A server that hits a malformed line (or sheds the stream) stops
		// reading mid-copy, which can fail this copy — still try to collect
		// the status line, which names the cause, before falling back to the
		// transport error.
		_, copyErr := io.Copy(conn, body)
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		reply, _ := io.ReadAll(io.LimitReader(conn, 1<<16))
		line := strings.TrimSpace(string(reply))
		switch {
		case strings.HasPrefix(line, "busy"):
			return res, errShed{retryAfter: retry.ParseRetryAfter(strings.TrimPrefix(line, "busy"))}
		case strings.HasPrefix(line, "ok "):
			// "ok <records> <generation>"; malformed counts degrade to zeros
			// rather than failing a stream the server accepted.
			_, _ = fmt.Sscanf(line, "ok %d %d", &res.Records, &res.Generation)
			return res, nil
		case line == "" && copyErr != nil:
			return res, fmt.Errorf("feed: streaming to %s: %w", addr, copyErr)
		default:
			return res, fmt.Errorf("feed: %s", line)
		}
	})
}
