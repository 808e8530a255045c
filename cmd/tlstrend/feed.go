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
// a record log, sent as it is (the server reads frames, TSV lines or both),
// or a live simulation sent as TLSB frames of notary.DefaultBatchSize
// records. With -retry, a stream the server sheds under load (HTTP 429 or a
// TCP "busy" line) is retried with exponential backoff and jitter, honoring
// the server's Retry-After hint.
func cmdFeed(args []string) error {
	fs, sim := simFlagSet("feed", 1000)
	addr := fs.String("addr", "http://127.0.0.1:8080", "server base URL (HTTP ingest)")
	tcpAddr := fs.String("tcp", "", "stream over raw TCP to this address instead of HTTP")
	in := fs.String("in", "", "record log to replay as it is: TLSB frames, TSV lines or both (empty = simulate live)")
	retry := fs.Int("retry", 0, "retries when the server sheds the stream under load (0 = fail fast)")
	fs.Parse(args)

	// The stream must be reopenable: a shed attempt restarts from the top,
	// so each try replays the file — or re-runs the deterministic simulation
	// (the same seed reproduces the same stream), framed through a pipe so
	// the feeder never holds more than one frame plus the pipe's buffer.
	open := func() (io.ReadCloser, error) { return os.Open(*in) }
	if *in == "" {
		opts := sim.options()
		open = func() (io.ReadCloser, error) {
			pr, pw := io.Pipe()
			go func() {
				enc := notary.NewBatchWriter(pw, notary.DefaultBatchSize)
				err := simulate.New(opts).Run(enc)
				if err == nil {
					err = enc.Close()
				}
				pw.CloseWithError(err)
			}()
			return pr, nil
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

	fopts := service.FeedOptions{MaxRetries: *retry, Logf: stderrf}
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
