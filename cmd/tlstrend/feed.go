package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/service"
	"tlsage/internal/simulate"
)

// cmdFeed streams records into a running serve instance: either a replay of
// a connection log — TSV, or the record log serve -out writes — or a live
// simulation encoded on the fly. Without -binary a log is sent as it is (the
// server's TSV reader is the log reader); with -binary the stream travels as
// length-prefixed batch frames (the log is transcoded on the fly) — the fast
// path for bulk replay. With
// -retry, a stream the server sheds under load (HTTP 429 or a TCP "busy"
// line) is retried with exponential backoff and jitter, honoring the
// server's Retry-After hint.
func cmdFeed(args []string) error {
	fs, sim := simFlagSet("feed", 1000)
	addr := fs.String("addr", "http://127.0.0.1:8080", "server base URL (HTTP ingest)")
	tcpAddr := fs.String("tcp", "", "stream over raw TCP to this address instead of HTTP")
	in := fs.String("in", "", "connection log to replay: TSV or a serve -out record log (empty = simulate live)")
	binary := fs.Bool("binary", false, "send the binary batch framing instead of TSV (a log given with -in is transcoded)")
	batch := fs.Int("batch", notary.DefaultBatchSize, "records per binary batch frame")
	retry := fs.Int("retry", 0, "retries when the server sheds the stream under load (0 = fail fast)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// encoded streams what produce delivers through a pipe in the chosen wire
	// encoding (batch frames of -batch records, or TSV lines), so the feeder
	// never holds more than one frame plus the pipe's buffer.
	encoded := func(produce func(notary.Sink) error) io.ReadCloser {
		pr, pw := io.Pipe()
		go func() {
			var enc notary.Sink = notary.NewLogWriter(pw)
			if *binary {
				enc = notary.NewBatchWriter(pw, *batch)
			}
			err := produce(enc)
			if err == nil {
				err = enc.Close()
			}
			pw.CloseWithError(err)
		}()
		return pr
	}

	// The stream must be reopenable: a shed attempt restarts from the top,
	// so each try replays the file — or re-runs the deterministic simulation
	// (the same seed reproduces the same stream).
	var open func() (io.ReadCloser, error)
	switch {
	case *in != "" && !*binary:
		open = func() (io.ReadCloser, error) { return os.Open(*in) }
	case *in != "":
		// Transcode the log into batch frames on the fly.
		open = func() (io.ReadCloser, error) {
			f, err := os.Open(*in)
			if err != nil {
				return nil, err
			}
			return encoded(func(enc notary.Sink) error {
				defer f.Close()
				return notary.ReadLog(f, enc)
			}), nil
		}
	default:
		opts := sim.options()
		open = func() (io.ReadCloser, error) {
			return encoded(func(enc notary.Sink) error { return simulate.New(opts).Run(enc) }), nil
		}
	}

	// What goes on the wire is counted where the transport reads it; a retry
	// reopens the stream, and the count is the last attempt's.
	var sent int64
	stream := open
	open = func() (io.ReadCloser, error) {
		rc, err := stream()
		if err != nil {
			return nil, err
		}
		sent = 0
		return countingReader{rc, &sent}, nil
	}

	fopts := service.FeedOptions{
		Binary:     *binary,
		MaxRetries: *retry,
		Logf:       stderrf,
	}
	start := time.Now()
	var res service.FeedResult
	var err error
	if *tcpAddr != "" {
		res, err = service.FeedTCP(*tcpAddr, open, fopts)
	} else {
		res, err = service.FeedHTTP(*addr, open, fopts)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fed %d records in %v (%d bytes, %.1f B/record, server generation %d, %d attempt(s))\n",
		res.Records, time.Since(start).Round(time.Millisecond), sent, float64(sent)/float64(max(res.Records, 1)),
		res.Generation, res.Attempts)
	return nil
}

// countingReader adds what is read through it to *n.
type countingReader struct {
	io.ReadCloser
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	*c.n += int64(n)
	return n, err
}
