// Package scanner implements the active-measurement side of the study: a
// ZGrab-style concurrent TLS banner grabber plus the special-purpose probe
// configurations Censys ran (the 2015-Chrome cipher list, SSL3-only scans,
// export-only scans; §3.2). Scans run over real TCP against the serverfarm
// or any other endpoint speaking the hello exchange.
package scanner

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tlsage/internal/wire"
)

// Result is the outcome of probing one target.
type Result struct {
	// OK is true when the server answered with a ServerHello.
	OK bool
	// Err is the network- or protocol-level failure, nil when the server
	// answered (even with an alert).
	Err error
	// Alerted is true when the server answered with a well-formed TLS
	// alert.
	Alerted bool
	// Negotiated parameters when OK.
	Suite        uint16
	HeartbeatAck bool
	// Vulnerable: the server acked heartbeat and the Heartbleed check on
	// the same connection over-read (§5.4). LeakedBytes is how many bytes
	// beyond the sent payload came back.
	Vulnerable  bool
	LeakedBytes int
}

// Scanner is a concurrent hello prober: Scan makes one connection per
// target, and a server that acks heartbeat gets the Heartbleed check on it.
type Scanner struct {
	// Timeout bounds each connection (dial + exchange).
	Timeout time.Duration
	// Workers is the pool width.
	Workers int
}

// DefaultTimeout is the per-connection timeout New gives a scanner.
const DefaultTimeout = 3 * time.Second

// New returns a scanner with the given pool width (at least one worker runs)
// and DefaultTimeout.
func New(workers int) *Scanner { return &Scanner{Timeout: DefaultTimeout, Workers: workers} }

// Scan probes every target with the given hello on a pool of Workers
// goroutines and returns one result per target, in target order. When ctx
// is cancelled, in-flight connections are closed and Scan returns ctx's
// error.
func (s *Scanner) Scan(ctx context.Context, targets []string, hello *wire.ClientHello) ([]Result, error) {
	raw := hello.AppendRecord(nil)
	out := make([]Result, len(targets))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for range max(1, min(s.Workers, len(targets))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = s.probe(ctx, targets[i], raw)
			}
		}()
	}
feed:
	for i := range targets {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// probe performs one dial + hello exchange, then the Heartbleed check when
// the server acks heartbeat. Cancelling ctx closes the connection.
func (s *Scanner) probe(ctx context.Context, target string, helloBytes []byte) Result {
	var res Result

	conn, err := (&net.Dialer{Timeout: s.Timeout}).DialContext(ctx, "tcp", target)
	if err != nil {
		res.Err = fmt.Errorf("dial: %w", err)
		return res
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	_ = conn.SetDeadline(time.Now().Add(s.Timeout))

	if _, err := conn.Write(helloBytes); err != nil {
		res.Err = fmt.Errorf("write: %w", err)
		return res
	}
	rec, err := wire.ReadRecord(conn)
	if err != nil {
		res.Err = fmt.Errorf("read: %w", err)
		return res
	}

	switch rec.Type {
	case wire.ContentAlert:
		var alert wire.Alert
		if err := alert.DecodeFromBytes(rec.Payload); err != nil {
			res.Err = err
			return res
		}
		res.Alerted = true
		return res
	case wire.ContentHandshake:
		typ, body, _, err := wire.DecodeHandshake(rec.Payload)
		if err != nil || typ != wire.TypeServerHello {
			res.Err = errors.New("scanner: unexpected handshake message")
			return res
		}
		var sh wire.ServerHello
		if err := sh.DecodeFromBytes(body); err != nil {
			res.Err = err
			return res
		}
		res.OK = true
		res.Suite = sh.CipherSuite
		res.HeartbeatAck = sh.AcksHeartbeat()
		if res.HeartbeatAck {
			res.LeakedBytes = overRead(conn, s.Timeout/4)
			res.Vulnerable = res.LeakedBytes > 0
		}
		return res
	default:
		res.Err = fmt.Errorf("scanner: unexpected record type %v", rec.Type)
		return res
	}
}
