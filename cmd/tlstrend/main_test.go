package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/notary"
	"tlsage/internal/service"
	"tlsage/internal/simulate"
)

// started counts the tlstrend processes the tests have made: a covered
// TestCLI looks for their counter files only when one ran.
var started atomic.Int64

// command is exec.Command on the built tlstrend, counted in started.
func command(bin string, args ...string) *exec.Cmd {
	started.Add(1)
	return exec.Command(bin, args...)
}

// served returns what the node at base answers at path: a GET, or with a
// query a POST of it.
func served(t *testing.T, base, path, query string) []byte {
	t.Helper()
	var resp *http.Response
	var err error
	if query == "" {
		resp, err = http.Get(base + path)
	} else {
		resp, err = http.Post(base+path, "application/json", strings.NewReader(`{"query": "`+query+`"}`))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s%s %q: %s %v\n%s", base, path, query, resp.Status, err, body)
	}
	return body
}

// startServe launches `tlstrend serve` in dir ("" = this one) on loopback
// ports of the kernel's choosing and reads both listen addresses off stderr
// through the markers the benchmark relies on ("on http://", "on tcp://").
// wait blocks until the process exits and returns everything it wrote to
// stderr.
func startServe(t *testing.T, bin, dir string, args ...string) (cmd *exec.Cmd, httpURL, tcpAddr string, wait func() (string, error)) {
	t.Helper()
	cmd = command(bin, append([]string{"serve", "-http", "127.0.0.1:0", "-tcp", "127.0.0.1:0"}, args...)...)
	cmd.Dir = dir
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

// TestCLI drives the built binary: an Open that sets no tuning value runs
// at serve's queue bound and in-flight limit, serve's flag set is the one
// pinned in testdata, a served study answers what query prints offline from
// its -out log and survives SIGTERM and a restart byte for byte, scan,
// scansweep, experiments, the passive figure and Table 2 commands and the
// five static tables print their goldens (table -n 2 fails, naming table2),
// an unknown figure or a bad query fails before any simulation or load, a
// usage, file or stdout write error exits non-zero with its cause, every
// command that takes a log reads a TSV
// log, a serve -out frame log and one continued by the other alike, simulate
// -out writes a frame log that reads as the TSV log of the same records does,
// scansweep -push into serve -studies notary,scan serves what a study built
// from the sweep's aggregate does, every README command line names only
// flags its command has, README stays a map of at most 25,000 bytes and
// every command it shows runs (runREADME), and an offline query prints
// exactly what core.Study.Query computes.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tlstrend")
	build := []string{"build", "-o", bin}
	if dir := os.Getenv("GOCOVERDIR"); dir != "" {
		// A covered binary writes its counters into GOCOVERDIR as it exits.
		// go test -cover points GOCOVERDIR at this test binary's own
		// coverage directory, so what these subprocesses run joins the
		// package's profile. Without their counters a union reads
		// cmd/tlstrend at about 41 % instead of 79 %, so a covered TestCLI
		// whose children ran and left no counter file fails here, by name.
		build = append(build, "-cover", "-coverpkg=tlsage/...")
		counters := filepath.Join(dir, "covcounters.*")
		before, _ := filepath.Glob(counters)
		ran := started.Load()
		t.Cleanup(func() {
			if after, _ := filepath.Glob(counters); started.Load() > ran && len(after) <= len(before) {
				t.Errorf("no new %s after TestCLI's covered children ran: the coverage profile lacks them", counters)
			}
		})
	}
	if out, err := exec.Command("go", append(build, ".")...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("serve's cadence is service's constants", func(t *testing.T) {
		// A Config that sets no tuning value comes up at the values serve runs
		// at: the constants live in service, not in serve's flag literals.
		node, err := service.Open(service.Config{Studies: "notary"})
		if err != nil {
			t.Fatalf("Open with no tuning field: %v", err)
		}
		defer node.Close()
		srv := httptest.NewServer(node.Handler())
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var health struct {
			MaxInFlight int `json:"max_in_flight"`
			Queue       struct {
				Capacity int `json:"capacity"`
			} `json:"ingest_queue"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		if health.Queue.Capacity != 256 || health.MaxInFlight != 64 {
			t.Errorf("/healthz reports ingest_queue.capacity %d and max_in_flight %d, want 256 and 64",
				health.Queue.Capacity, health.MaxInFlight)
		}
	})

	t.Run("serve -h lists the pinned flags", func(t *testing.T) {
		// -h exits 0 after printing every flag with its default and usage:
		// the golden is the parent commit's output, so a knob added, lost or
		// re-defaulted shows as a diff.
		got, err := command(bin, "serve", "-h").CombinedOutput()
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
			cmd := command(bin, g.args...)
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

	t.Run("table -n 1, 3, 4, 5 and 6 match their golden and -n 2 points at table2", func(t *testing.T) {
		// tables.golden is the five tables' stdout in that order. Table 2
		// is read off a simulated study, so table refuses it by name.
		var got []byte
		for _, n := range []string{"1", "3", "4", "5", "6"} {
			out, err := command(bin, "table", "-n", n).Output()
			if err != nil {
				t.Fatalf("table -n %s: %v", n, err)
			}
			got = append(got, out...)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stdout differs from testdata/tables.golden:\n%s\nwant\n%s", got, want)
		}
		out, err := command(bin, "table", "-n", "2").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("table -n 2: err=%v, want exit 1", err)
		}
		if want := "tlstrend: no table 2 (Table 2 has its own subcommand)\n"; string(out) != want {
			t.Errorf("table -n 2 printed\n%s\nwant only\n%s", out, want)
		}
	})

	t.Run("an unknown figure or a bad query fails before anything is simulated or loaded", func(t *testing.T) {
		tsv := filepath.Join("..", "..", "internal", "service", "testdata", "outlog_tsv.log")
		for _, c := range []struct {
			args []string
			want string
		}{
			{[]string{"figure", "-n", "11", "-conns", "5"}, "tlstrend: core: no figure 11\n"},
			{[]string{"figure", "-name", "nope", "-conns", "5"},
				"tlstrend: no figure named \"nope\" (valid names: " + strings.Join(analysis.CatalogNames(), ", ") + ")\n"},
			{[]string{"loadlog", "-figure", "11", "-in", tsv}, "tlstrend: core: no figure 11\n"},
			{[]string{"loadlog", "-figure", "-1", "-in", tsv}, "tlstrend: core: no figure -1\n"},
			{[]string{"query", "-q", "pct(bogus", "-in", tsv},
				"tlstrend: query \"pct(bogus\": unknown column \"bogus\" (see analysis.ColumnNames; family selectors are family:key)\n"},
		} {
			out, err := command(bin, c.args...).CombinedOutput()
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

	t.Run("usage, file and write errors exit non-zero with their cause", func(t *testing.T) {
		// full, when set, is the command's stdout: /dev/full, where every
		// write fails with ENOSPC. An error is all a failed command prints.
		tsv := filepath.Join("..", "..", "internal", "service", "testdata", "outlog_tsv.log")
		dir := t.TempDir()
		missing := filepath.Join(dir, "missing.log")
		const enospc = "write /dev/stdout: no space left on device"
		for _, c := range []struct {
			args []string
			full bool
			exit int
			want string
		}{
			{nil, false, 2, "commands:"},
			{[]string{"help"}, false, 0, "commands:"},
			{[]string{"nope"}, false, 2, `tlstrend: unknown command "nope"`},
			{[]string{"query"}, false, 1, "tlstrend: query: -q is required"},
			{[]string{"scan", "-date", "someday"}, false, 1, "tlstrend: bad -date"},
			{[]string{"simulate", "-conns", "1", "-out", dir}, false, 1, "is a directory"},
			{[]string{"simulate", "-conns", "1", "-out", "/dev/full"}, false, 1, "no space left on device"},
			{[]string{"serve", "-http", "127.0.0.1:0", "-out", dir}, false, 1, "is a directory"},
			{[]string{"loadlog", "-in", missing}, false, 1, "no such file or directory"},
			{[]string{"query", "-q", "count(total)", "-in", missing}, false, 1, "no such file or directory"},
			{[]string{"feed", "-in", missing, "-addr", "http://127.0.0.1:1"}, false, 1, "no such file or directory"},
			{[]string{"query", "-q", "pct(version:tls12 / established)", "-conns", "5"}, true, 1, enospc},
			{[]string{"loadlog", "-in", tsv, "-figure", "2"}, true, 1, enospc},
			{[]string{"figures", "-conns", "5"}, true, 1, enospc},
			{[]string{"extensions", "-conns", "5"}, true, 1, enospc},
			{[]string{"fingerprints", "-conns", "5"}, true, 1, enospc},
			{[]string{"experiments", "-conns", "5", "-hosts", "5"}, true, 1, enospc},
			{[]string{"scan", "-hosts", "5"}, true, 1, enospc},
			{[]string{"scansweep", "-hosts", "5", "-step", "24"}, true, 1, enospc},
			{[]string{"metrics"}, true, 1, enospc},
			{[]string{"table", "-n", "1"}, true, 1, enospc},
		} {
			cmd := command(bin, c.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if c.full {
				full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
				if err != nil {
					t.Skipf("no /dev/full here: %v", err)
				}
				defer full.Close()
				cmd.Stdout = full
			}
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != c.exit || !strings.Contains(stderr.String(), c.want) {
				t.Errorf("tlstrend %s: exit %d (%v), want %d and %q\n%s", strings.Join(c.args, " "), code, err, c.exit, c.want, stderr.Bytes())
			}
		}
	})

	t.Run("serve feed query SIGTERM restart", func(t *testing.T) {
		dir := t.TempDir()
		out, snaps := filepath.Join(dir, "conn.log"), filepath.Join(dir, "snaps")
		run := func(args ...string) []byte {
			t.Helper()
			cmd := command(bin, args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("tlstrend %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
			}
			return stdout
		}
		const q = "pct(version:tls12 / established)"

		serve, url, tcp, wait := startServe(t, bin, "", "-out", out, "-snapshot-dir", snaps)
		run("feed", "-addr", url, "-conns", "20")
		// feed's summary line carries the stream's wire cost: a simulated
		// stream goes as TLSB frames, a few dozen bytes a record (a TSV line
		// is a few hundred).
		summary, err := command(bin, "feed", "-tcp", tcp, "-conns", "20", "-seed", "2").CombinedOutput()
		m := regexp.MustCompile(`fed 1500 records in \S+ \((\d+) bytes, ([\d.]+) B/record, `).FindSubmatch(summary)
		if err != nil || m == nil {
			t.Fatalf("feed: err %v, summary %q", err, summary)
		}
		sent, _ := strconv.Atoi(string(m[1]))
		if perRecord := fmt.Sprintf("%.1f", float64(sent)/1500); sent < 20*1500 || sent > 100*1500 || string(m[2]) != perRecord {
			t.Errorf("feed sent %d bytes at %s B/record: want 20 to 100 bytes a record, and %s", sent, m[2], perRecord)
		}
		before := served(t, url, "/query", q)
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

		// What the node serves is what query prints offline from its log.
		if offline := run("query", "-in", out, "-q", q, "-json"); !bytes.Equal(before, offline) {
			t.Errorf("query -in of the -out log printed\n%s\nthe node served\n%s", offline, before)
		}

		serve, url, _, wait = startServe(t, bin, "", "-out", out, "-snapshot-dir", snaps)
		if after := served(t, url, "/query", q); !bytes.Equal(before, after) {
			t.Errorf("the node served after restart\n%s\nbefore it\n%s", after, before)
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
			cmd := command(bin, args...)
			var errBuf bytes.Buffer
			cmd.Stderr = &errBuf
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("tlstrend %s: %v\n%s", strings.Join(args, " "), err, errBuf.Bytes())
			}
			return stdout, errBuf.Bytes()
		}
		serve, url, tcp, wait := startServe(t, bin, "")
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
			for _, how := range [][]string{{"-addr", url}, {"-tcp", tcp}} {
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

	t.Run("simulate -out writes a frame log that reads as its TSV spelling does", func(t *testing.T) {
		dir := t.TempDir()
		frames, tsv := filepath.Join(dir, "frames.log"), filepath.Join(dir, "tsv.log")
		if out, err := command(bin, "simulate", "-conns", "20", "-seed", "3", "-out", frames).CombinedOutput(); err != nil {
			t.Fatalf("simulate -out: %v\n%s", err, out)
		}
		opts := simulate.DefaultOptions(20)
		opts.Seed = 3
		var lines bytes.Buffer
		w := notary.NewLogWriter(&lines)
		err := simulate.New(opts).Run(w)
		if err == nil {
			err = w.Close()
		}
		if err == nil {
			err = os.WriteFile(tsv, lines.Bytes(), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(frames)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte("TLSB")) || 5*len(raw) >= lines.Len() {
			t.Errorf("simulate -out wrote %d bytes starting %q; want the TLSB magic and under a fifth of the %d-byte TSV log",
				len(raw), raw[:min(len(raw), 8)], lines.Len())
		}
		for _, args := range [][]string{
			{"loadlog", "-workers", "1"},
			{"loadlog", "-workers", "4"},
			{"query", "-q", "pct(version:tls12 / established)", "-json"},
		} {
			var got, want []byte
			for path, out := range map[string]*[]byte{frames: &got, tsv: &want} {
				if *out, err = command(bin, append(args, "-in", path)...).Output(); err != nil {
					t.Fatalf("tlstrend %s -in %s: %v", strings.Join(args, " "), path, err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v on the frame log printed\n%s\nwant what the TSV log gives\n%s", args, got, want)
			}
		}
	})

	t.Run("scansweep -push into serve -studies notary,scan serves what the sweep's aggregate does", func(t *testing.T) {
		serve, url, _, wait := startServe(t, bin, "", "-studies", "notary,scan")
		var stderr bytes.Buffer
		cmd := command(bin, "scansweep", "-hosts", "40", "-step", "12", "-push", url+"/studies/scan")
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("scansweep -push: %v\n%s", err, stderr.Bytes())
		}
		if want, err := os.ReadFile(filepath.Join("testdata", "scansweep.golden")); err != nil || !bytes.Equal(got, want) {
			t.Errorf("scansweep -push printed\n%s\nwant testdata/scansweep.golden (%v)", got, err)
		}

		// The reference: the same sweep, run here, hosted as a study built
		// from its aggregate.
		sweep := &core.ScanSweep{StepMonths: 12, HostsPerSnapshot: 40, Seed: 7}
		reports, err := sweep.RunReports(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		agg := core.ScanAggregate(reports)
		built := service.NewServer(core.NewStudyFromAggregate(agg))
		defer built.Close()
		ref := httptest.NewServer(built.Handler())
		defer ref.Close()
		reads := [][2]string{{"/figures", ""}, {"/scalars", ""}}
		for _, m := range core.ScanMetrics {
			reads = append(reads, [2]string{"/query", m.Query})
		}
		for _, r := range reads {
			if got, want := served(t, url+"/studies/scan", r[0], r[1]), served(t, ref.URL, r[0], r[1]); !bytes.Equal(got, want) {
				t.Errorf("/studies/scan%s %q served\n%s\nwant\n%s", r[0], r[1], got, want)
			}
		}
		// The same campaign pushed again is acknowledged as already applied,
		// and a push to a study the node does not host fails.
		for _, c := range []struct {
			study, want string
			exit        int
		}{
			{"scan", "had already applied this campaign", 0},
			{"nope", "tlstrend: federation: upstream replied 404", 1},
		} {
			var stderr bytes.Buffer
			cmd := command(bin, "scansweep", "-hosts", "40", "-step", "12", "-push", url+"/studies/"+c.study)
			cmd.Stderr = &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != c.exit || !strings.Contains(stderr.String(), c.want) {
				t.Errorf("scansweep -push %s again: exit %d (%v), want %d and %q\n%s", c.study, code, err, c.exit, c.want, stderr.Bytes())
			}
		}
		if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if log, err := wait(); err != nil || !strings.Contains(log, fmt.Sprintf("final state of scan: %d records", agg.TotalRecords())) {
			t.Errorf("serve: exit %v, want 0 and the pushed campaign's %d records in study scan\n%s", err, agg.TotalRecords(), log)
		}
	})

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	commands, readmeErr := readmeCommands(string(readme))

	t.Run("README's command lines use only flags their commands have", func(t *testing.T) {
		if readmeErr != nil {
			t.Fatal(readmeErr)
		}
		helpFlag := regexp.MustCompile(`(?m)^  -(\S+)`)
		flagArg := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
		flagsOf := map[string]map[string]bool{}
		var lines []string
		for _, c := range commands {
			args, ok := c.tlstrend()
			if !ok {
				continue
			}
			line := strings.Join(args, " ")
			lines = append(lines, line)
			cmd := args[0]
			flags, ok := flagsOf[cmd]
			if !ok {
				help, err := command(bin, cmd, "-h").CombinedOutput()
				if err != nil {
					t.Errorf("README.md:%d runs tlstrend %s, and tlstrend %s -h fails: %v\n%s", c.line, cmd, cmd, err, help)
				} else {
					flags = map[string]bool{}
					for _, m := range helpFlag.FindAllSubmatch(help, -1) {
						flags[string(m[1])] = true
					}
				}
				flagsOf[cmd] = flags
			}
			for _, arg := range args[1:] {
				if m := flagArg.FindStringSubmatch(arg); m != nil && flags != nil && !flags[m[1]] {
					t.Errorf("README.md:%d runs tlstrend %s, which has no flag -%s", c.line, line, m[1])
				}
			}
		}
		if len(lines) < 20 {
			t.Errorf("found %d tlstrend command lines in README's fenced blocks, want at least 20:\n%s", len(lines), strings.Join(lines, "\n"))
		}
	})

	t.Run("README stays a map of at most 25,000 bytes", func(t *testing.T) {
		// Mechanism belongs in the doc comment beside its code and history in
		// CHANGES.md; README says what each package does and how to run it.
		if len(readme) > 25000 {
			t.Errorf("README.md is %d bytes, want at most 25,000", len(readme))
		}
	})

	t.Run("README's commands run in README order", func(t *testing.T) {
		if readmeErr != nil {
			t.Fatal(readmeErr)
		}
		runREADME(t, bin, t.TempDir(), commands)
	})

	t.Run("query matches Study.Query", func(t *testing.T) {
		const q = "pct(version:tls12 / established)"
		got, err := command(bin, "query", "-q", q, "-conns", "20", "-seed", "7", "-json").Output()
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		opts := simulate.DefaultOptions(20)
		opts.Seed = 7
		s, err := core.Simulate(opts, nil)
		if err != nil {
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
