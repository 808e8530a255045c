package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"tlsage/internal/core"
)

// startServe launches `tlstrend serve` on loopback ports of the kernel's
// choosing and reads both listen addresses off stderr through the markers the
// benchmark relies on ("on http://", "on tcp://"). wait blocks until the
// process exits and returns everything it wrote to stderr.
func startServe(t *testing.T, bin string, args ...string) (cmd *exec.Cmd, httpURL, tcpAddr string, wait func() (string, error)) {
	t.Helper()
	cmd = exec.Command(bin, append([]string{"serve", "-http", "127.0.0.1:0", "-tcp", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	var log strings.Builder
	sc := bufio.NewScanner(stderr)
	addrAfter := func(line, marker string) string {
		_, rest, ok := strings.Cut(line, marker)
		if !ok {
			return ""
		}
		addr, _, _ := strings.Cut(rest, " ")
		return addr
	}
	for (httpURL == "" || tcpAddr == "") && sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if a := addrAfter(sc.Text(), "on http://"); a != "" {
			httpURL = "http://" + a
		}
		if a := addrAfter(sc.Text(), "on tcp://"); a != "" {
			tcpAddr = a
		}
	}
	if httpURL == "" || tcpAddr == "" {
		t.Fatalf("serve exited before announcing both addresses:\n%s", log.String())
	}
	wait = func() (string, error) {
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
		}
		return log.String(), cmd.Wait()
	}
	return cmd, httpURL, tcpAddr, wait
}

// TestCLI drives the built binary: serve refuses a queue bound below 1 —
// the merge queue is the only ingest path, so there is no "0 = off" — serve's
// flag set is the one pinned in testdata, a served study survives SIGTERM and
// a restart byte for byte, and an offline query prints exactly what
// core.Study.Query computes.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tlstrend")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("serve rejects -queue-bound 0", func(t *testing.T) {
		out, err := exec.Command(bin, "serve", "-http", "127.0.0.1:0", "-queue-bound", "0").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("serve -queue-bound 0: err=%v, want a non-zero exit\n%s", err, out)
		}
		if !strings.Contains(string(out), "-queue-bound") {
			t.Errorf("error output does not name the flag:\n%s", out)
		}
	})

	t.Run("serve -h lists the pinned flags", func(t *testing.T) {
		// -h exits 0 after printing every flag with its default and usage:
		// the golden is the parent commit's output, so a knob added, lost or
		// re-defaulted shows as a diff.
		got, err := exec.Command(bin, "serve", "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("serve -h: %v\n%s", err, got)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "serve_help.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("serve -h printed\n%s\nwant\n%s", got, want)
		}
	})

	t.Run("serve feed query SIGTERM restart", func(t *testing.T) {
		dir := t.TempDir()
		out, snaps := filepath.Join(dir, "conn.log"), filepath.Join(dir, "snaps")
		run := func(args ...string) []byte {
			t.Helper()
			cmd := exec.Command(bin, args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("tlstrend %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
			}
			return stdout
		}
		const q = "pct(version:tls12 / established)"

		serve, url, tcp, wait := startServe(t, bin, "-out", out, "-snapshot-dir", snaps)
		run("feed", "-addr", url, "-conns", "20")
		// feed's summary line carries the stream's wire cost: a TLSB record
		// of these frames is a few dozen bytes, a TSV line a few hundred.
		summary, err := exec.Command(bin, "feed", "-tcp", tcp, "-conns", "20", "-seed", "2", "-binary").CombinedOutput()
		m := regexp.MustCompile(`fed 1500 records in \S+ \((\d+) bytes, ([\d.]+) B/record, `).FindSubmatch(summary)
		if err != nil || m == nil {
			t.Fatalf("feed -binary: err %v, summary %q", err, summary)
		}
		sent, _ := strconv.Atoi(string(m[1]))
		if perRecord := fmt.Sprintf("%.1f", float64(sent)/1500); sent < 20*1500 || sent > 100*1500 || string(m[2]) != perRecord {
			t.Errorf("feed -binary sent %d bytes at %s B/record: want 20 to 100 bytes a record, and %s", sent, m[2], perRecord)
		}
		before := run("query", "-addr", url, "-q", q, "-json")
		if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		stopped := time.AfterFunc(30*time.Second, func() { _ = serve.Process.Kill() })
		log, err := wait()
		stopped.Stop()
		if err != nil {
			t.Fatalf("serve after SIGTERM: %v, want exit 0\n%s", err, log)
		}
		if !strings.Contains(log, "final state of notary: 3000 records") {
			t.Errorf("serve did not report the final state of both feeds:\n%s", log)
		}
		if final, _ := filepath.Glob(filepath.Join(snaps, "snap-*3000.tlsnap")); len(final) != 1 {
			t.Errorf("no final snapshot at generation 3000 in %s", snaps)
		}

		serve, url, _, wait = startServe(t, bin, "-out", out, "-snapshot-dir", snaps)
		after := run("query", "-addr", url, "-q", q, "-json")
		if !bytes.Equal(before, after) {
			t.Errorf("query after restart printed\n%s\nbefore it\n%s", after, before)
		}
		if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if log, err := wait(); err != nil || !strings.Contains(log, "recovered 3000 records") {
			t.Errorf("restarted serve: exit %v, want 0 and a recovery of 3000 records\n%s", err, log)
		}
	})

	t.Run("query matches Study.Query", func(t *testing.T) {
		const q = "pct(version:tls12 / established)"
		got, err := exec.Command(bin, "query", "-q", q, "-conns", "20", "-seed", "7", "-json").Output()
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		s := core.NewStudy(20)
		s.Options.Seed = 7
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("query -json printed\n%s\nwant\n%s", got, want.Bytes())
		}
	})
}
