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

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/notary"
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
// a restart byte for byte, scan, scansweep, experiments and the passive
// figure and table commands print their goldens, an unknown figure fails
// before any simulation or load, every command that takes a log reads a TSV
// log, a serve -out frame log and one continued by the other alike, and an
// offline query prints exactly what core.Study.Query computes.
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

	// The goldens pin, byte for byte, the §5 tables scan and scansweep print
	// (scan_2014.golden, two weeks after the Heartbleed disclosure, is the
	// one with vulnerable hosts), the whole experiments report (no other test runs experiments), and the
	// figures, Table 2 and fingerprint report the passive commands read off
	// the study's frame.
	for _, g := range []struct {
		golden string
		args   []string
	}{
		{"scan.golden", []string{"scan", "-hosts", "60"}},
		{"scan_2014.golden", []string{"scan", "-hosts", "60", "-date", "2014-04-20"}},
		{"scansweep.golden", []string{"scansweep", "-hosts", "40", "-step", "12"}},
		{"experiments.golden", []string{"experiments", "-conns", "200", "-hosts", "60"}},
		{"figure_n2.golden", []string{"figure", "-n", "2", "-conns", "50"}},
		{"figure_extensions_chart.golden", []string{"figure", "-name", "extensions", "-chart", "-conns", "50"}},
		{"figures.golden", []string{"figures", "-conns", "50"}},
		{"extensions.golden", []string{"extensions", "-conns", "50"}},
		{"table2.golden", []string{"table2", "-conns", "50"}},
		{"fingerprints.golden", []string{"fingerprints", "-conns", "50"}},
	} {
		t.Run(strings.Join(g.args, " ")+" matches its golden", func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, g.args...)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from testdata/%s:\n%s\nwant\n%s", g.golden, got, want)
			}
		})
	}

	t.Run("an unknown figure fails before anything is simulated or loaded", func(t *testing.T) {
		tsv := filepath.Join("..", "..", "internal", "service", "testdata", "outlog_tsv.log")
		for _, c := range []struct {
			args []string
			want string
		}{
			{[]string{"figure", "-n", "11", "-conns", "5"}, "tlstrend: core: no figure 11\n"},
			{[]string{"figure", "-name", "nope", "-conns", "5"},
				"tlstrend: no figure named \"nope\" (valid names: " + strings.Join(analysis.CatalogNames(), ", ") + ")\n"},
			{[]string{"loadlog", "-figure", "11", "-in", tsv}, "tlstrend: core: no figure 11\n"},
		} {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("%v: err=%v, want exit 1", c.args, err)
			}
			// The error is all there is: no simulated or loaded line before it.
			if string(out) != c.want {
				t.Errorf("%v printed\n%s\nwant only\n%s", c.args, out, c.want)
			}
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

	t.Run("loadlog, query -in and feed -in read every kind of log", func(t *testing.T) {
		// The service package's committed logs: 150 records as the last
		// TSV-teeing build logged them, the same as this build's tee frames
		// them, and the first half of one continued by the second half of the
		// other.
		fixture := func(name string) []byte {
			raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "service", "testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		tsv, v3 := fixture("outlog_tsv.log"), fixture("outlog_v3.bin")
		second, err := notary.LogEntryOffset(bytes.NewReader(v3), 2)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(tsv, []byte("\n"))
		mixed := append(bytes.Join(lines[:3+75], nil), v3[second:]...) // header, the first feed's lines, the second feed's frame
		dir := t.TempDir()
		logs := map[string]string{}
		for kind, raw := range map[string][]byte{"tsv": tsv, "v3": v3, "mixed": mixed} {
			logs[kind] = filepath.Join(dir, kind+".log")
			if err := os.WriteFile(logs[kind], raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		run := func(args ...string) (stdout, stderr []byte) {
			t.Helper()
			cmd := exec.Command(bin, args...)
			var errBuf bytes.Buffer
			cmd.Stderr = &errBuf
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("tlstrend %s: %v\n%s", strings.Join(args, " "), err, errBuf.Bytes())
			}
			return stdout, errBuf.Bytes()
		}
		serve, url, tcp, wait := startServe(t, bin)
		wantLoaded, _ := run("loadlog", "-in", logs["tsv"], "-workers", "1")
		wantQuery, _ := run("query", "-in", logs["tsv"], "-q", "count(total)", "-json")
		fed := 0
		for kind, path := range logs {
			for _, workers := range []string{"1", "4"} {
				if got, _ := run("loadlog", "-in", path, "-workers", workers); !bytes.Equal(got, wantLoaded) {
					t.Errorf("loadlog -in %s -workers %s printed\n%s\nwant what the TSV log gives\n%s", kind, workers, got, wantLoaded)
				}
			}
			if got, _ := run("query", "-in", path, "-q", "count(total)", "-json"); !bytes.Equal(got, wantQuery) {
				t.Errorf("query -in %s printed\n%s\nwant\n%s", kind, got, wantQuery)
			}
			for _, how := range [][]string{{"-addr", url}, {"-addr", url, "-binary"}, {"-tcp", tcp}} {
				_, summary := run(append([]string{"feed", "-in", path}, how...)...)
				if fed += 150; !bytes.Contains(summary, []byte("fed 150 records in")) ||
					!bytes.Contains(summary, []byte(fmt.Sprintf("server generation %d,", fed))) {
					t.Errorf("feed -in %s %v: %s, want 150 records fed and generation %d", kind, how, summary, fed)
				}
			}
		}
		if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if log, err := wait(); err != nil || !strings.Contains(log, fmt.Sprintf("final state of notary: %d records", fed)) {
			t.Errorf("serve: exit %v, want 0 and %d records\n%s", err, fed, log)
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
