package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tlsage/internal/service"
)

// opHeader links a client operation to the server-side span of a traced
// run; untraced operations do not send it.
const opHeader = "X-Bench-Op"

// opTimeout bounds any single operation; a stream or query that takes this
// long counts as failed.
const opTimeout = 30 * time.Second

// client is one generator connection: a keep-alive HTTP client that never
// holds more than one connection per server, plus a reused read buffer. Each
// generator goroutine owns exactly one.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into the client's buffer;
// the returned body is only valid until the next call.
func (c *client) do(method, url, ctype string, body []byte, opID uint64) (status int, hdr http.Header, reply []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if opID != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(opID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

// ack is what the server says about one ingested stream.
type ack struct {
	Records    int    `json:"records"`
	Generation uint64 `json:"generation"`
	Error      string `json:"error"`
}

// ingestHTTP POSTs one stream to base/ingest and returns the server's ack.
// Anything but a 200 acknowledging every record sent is an error.
func (c *client) ingestHTTP(base string, binary bool, body []byte, want int, opID uint64) (ack, error) {
	ctype := service.ContentTypeTSV
	if binary {
		ctype = service.ContentTypeBatch
	}
	status, _, reply, err := c.do(http.MethodPost, base+"/ingest", ctype, body, opID)
	if err != nil {
		return ack{}, err
	}
	var a ack
	if err := json.Unmarshal(reply, &a); err != nil {
		return ack{}, fmt.Errorf("ingest: status %d, unreadable reply %q", status, truncate(reply))
	}
	if status != http.StatusOK {
		return a, fmt.Errorf("ingest: status %d: %s", status, a.Error)
	}
	if a.Records != want {
		return a, fmt.Errorf("ingest: server acked %d of %d records", a.Records, want)
	}
	return a, nil
}

// ingestTCP sends one stream over a fresh raw-TCP connection and reads the
// status line. started is when the first byte went out: connection set-up is
// the feeder's cost, not the collector's.
func ingestTCP(addr string, body []byte, want int) (a ack, started time.Time, err error) {
	conn, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return ack{}, time.Now(), err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(opTimeout))
	started = time.Now()
	if _, err := conn.Write(body); err != nil {
		return ack{}, started, err
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return ack{}, started, err
	}
	reply, err := io.ReadAll(io.LimitReader(conn, 1<<10))
	if err != nil {
		return ack{}, started, err
	}
	f := strings.Fields(string(reply))
	if len(f) != 3 || f[0] != "ok" {
		return ack{}, started, fmt.Errorf("tcp ingest: server said %q", truncate(reply))
	}
	a.Records, _ = strconv.Atoi(f[1])
	a.Generation, _ = strconv.ParseUint(f[2], 10, 64)
	if a.Records != want {
		return a, started, fmt.Errorf("tcp ingest: server acked %d of %d records", a.Records, want)
	}
	return a, started, nil
}

// answer is the metadata of one /query reply.
type answer struct {
	Generation uint64
	Hit        bool
}

// query POSTs one text query; the returned body is the client's buffer.
func (c *client) query(base, text string, opID uint64) (answer, []byte, error) {
	req := append(strconv.AppendQuote([]byte(`{"query":`), text), '}')
	status, hdr, body, err := c.do(http.MethodPost, base+"/query", "application/json", req, opID)
	if err != nil {
		return answer{}, nil, err
	}
	if status != http.StatusOK {
		return answer{}, nil, fmt.Errorf("query %q: status %d: %s", text, status, truncate(body))
	}
	gen, err := strconv.ParseUint(hdr.Get("X-Generation"), 10, 64)
	if err != nil {
		return answer{}, nil, fmt.Errorf("query %q: bad X-Generation %q", text, hdr.Get("X-Generation"))
	}
	cache := hdr.Get("X-Cache")
	if cache != "hit" && cache != "miss" {
		return answer{}, nil, fmt.Errorf("query %q: bad X-Cache %q", text, cache)
	}
	return answer{Generation: gen, Hit: cache == "hit"}, body, nil
}

// get fetches one JSON endpoint, failing on anything but 200.
func (c *client) get(url string) ([]byte, error) {
	status, _, body, err := c.do(http.MethodGet, url, "", nil, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, status, truncate(body))
	}
	return body, nil
}

// getJSON fetches and decodes one JSON endpoint.
func (c *client) getJSON(url string, into any) error {
	body, err := c.get(url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}
