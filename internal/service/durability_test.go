package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlsage/internal/core"
	"tlsage/internal/notary"
)

// logPrefix returns the shared log cut after its first k records (header and
// comment lines ride along), plus how many record lines the full log holds.
func logPrefix(t *testing.T, log []byte, k int) []byte {
	t.Helper()
	var out bytes.Buffer
	records := 0
	for _, line := range bytes.SplitAfter(log, []byte{'\n'}) {
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 && trimmed[0] != '#' {
			if records == k {
				break
			}
			records++
		}
		out.Write(line)
	}
	if records < k {
		t.Fatalf("log has only %d records, wanted a %d-record prefix", records, k)
	}
	return out.Bytes()
}

// countRecords counts record lines in a TSV log.
func countRecords(log []byte) int {
	n := 0
	for _, line := range bytes.SplitAfter(log, []byte{'\n'}) {
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 && trimmed[0] != '#' {
			n++
		}
	}
	return n
}

// studyFromLog serially ingests a TSV log into a fresh live study, record by
// record.
func studyFromLog(t *testing.T, log []byte) *core.Study {
	t.Helper()
	st := core.NewLiveStudy()
	if err := notary.ReadLog(bytes.NewReader(log), st.Aggregate()); err != nil {
		t.Fatal(err)
	}
	return st
}

// scalarsBytes renders a study's scalar report exactly like the server does,
// for byte-level parity comparison.
func scalarsBytes(t *testing.T, st *core.Study) []byte {
	t.Helper()
	scalars, err := st.Scalars()
	if err != nil {
		t.Fatal(err)
	}
	return encodeLikeServer(t, scalars)
}

// TestRestartParitySweep is the central recovery property: for every
// snapshot point k, a snapshot of the first k records plus a replay of the
// log tail past k reconstructs a study whose /scalars report is
// byte-identical to uninterrupted ingest of the whole log.
func TestRestartParitySweep(t *testing.T) {
	log, offline := sharedLog(t)
	want := scalarsBytes(t, offline)
	total := countRecords(log)
	logPath := filepath.Join(t.TempDir(), "conn.log")
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{0, 1, 7, total / 3, total / 2, total - 1, total} {
		dir := t.TempDir()
		prefix := studyFromLog(t, logPrefix(t, log, k))
		if _, gen, err := WriteStudySnapshot(dir, prefix, 0); err != nil {
			t.Fatalf("k=%d: WriteStudySnapshot: %v", k, err)
		} else if gen != uint64(k) {
			t.Fatalf("k=%d: snapshot generation %d", k, gen)
		}
		rec, info, err := RecoverStudy(dir, logPath, t.Logf)
		if err != nil {
			t.Fatalf("k=%d: RecoverStudy: %v", k, err)
		}
		if info.SnapshotRecords != uint64(k) || info.ReplayedRecords != uint64(total-k) {
			t.Fatalf("k=%d: recovered %d snapshot + %d replayed records, want %d + %d",
				k, info.SnapshotRecords, info.ReplayedRecords, k, total-k)
		}
		if got := scalarsBytes(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("k=%d: recovered scalars diverge from uninterrupted ingest", k)
		}
	}

	// No snapshot at all degrades to a full replay; no log to the snapshot;
	// neither to an empty study.
	rec, info, err := RecoverStudy(t.TempDir(), logPath, t.Logf)
	if err != nil || info.SnapshotPath != "" || info.ReplayedRecords != uint64(total) {
		t.Fatalf("log-only recovery: info=%+v err=%v", info, err)
	}
	if got := scalarsBytes(t, rec); !bytes.Equal(got, want) {
		t.Fatal("log-only recovery diverges from uninterrupted ingest")
	}
	rec, info, err = RecoverStudy(t.TempDir(), filepath.Join(t.TempDir(), "absent.log"), t.Logf)
	if err != nil || info.Records() != 0 {
		t.Fatalf("empty recovery: info=%+v err=%v", info, err)
	}
	if records, _, _, err := rec.Counts(); err != nil || records != 0 {
		t.Fatalf("empty recovery study has %d records (err %v)", records, err)
	}
}

// recordLines returns the raw record lines (from, to] of a TSV log, the way
// a run-2 tee would append them.
func recordLines(t *testing.T, log []byte, from, to int) []byte {
	t.Helper()
	var out bytes.Buffer
	records := 0
	for _, line := range bytes.SplitAfter(log, []byte{'\n'}) {
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 && trimmed[0] != '#' {
			records++
			if records > from && records <= to {
				out.Write(line)
			}
		}
	}
	if records < to {
		t.Fatalf("log has only %d records, wanted lines up to %d", records, to)
	}
	return out.Bytes()
}

// TestRestartCycleParity pins recovery across a *second* crash: after the
// first restart the -out log is truncated and rebased behind a #base
// directive while snapshots keep all-time generations, so the next
// recovery's skip must count generations past the base, not log lines from
// zero. Losing that alignment silently drops every record past the last
// snapshot — the exact multi-restart data loss this test exists to prevent.
func TestRestartCycleParity(t *testing.T) {
	log, _ := sharedLog(t)
	total := countRecords(log)
	a, c, b := total/3, total/2, 2*total/3 // run-1 end, run-2 mid-run snapshot, run-2 end
	dir := t.TempDir()
	logPath := filepath.Join(dir, "conn.log")

	// Run-1 crash state: the log holds records 1..a, the newest snapshot a/2.
	if err := os.WriteFile(logPath, logPrefix(t, log, a), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteStudySnapshot(dir, studyFromLog(t, logPrefix(t, log, a/2)), 0); err != nil {
		t.Fatal(err)
	}

	// Restart 1: recover, compact, truncate + rebase the log — cmdServe's flow.
	st, info, err := RecoverStudy(dir, logPath, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records() != uint64(a) {
		t.Fatalf("restart 1 recovered %d records, want %d", info.Records(), a)
	}
	if _, gen, err := WriteStudySnapshot(dir, st, 0); err != nil || gen != uint64(a) {
		t.Fatalf("compaction: gen %d err %v, want %d", gen, err, a)
	}
	f, err := OpenIngestLog(logPath, uint64(a), true, info.TornLine)
	if err != nil {
		t.Fatal(err)
	}

	// Run 2: the tee appends records a+1..b to the rebased log, and one
	// mid-run snapshot lands at generation c before the process dies.
	if _, err := f.Write(recordLines(t, log, a, b)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, gen, err := WriteStudySnapshot(dir, studyFromLog(t, logPrefix(t, log, c)), 0); err != nil || gen != uint64(c) {
		t.Fatalf("mid-run snapshot: gen %d err %v, want %d", gen, err, c)
	}

	// Restart 2: the snapshot covers 1..c, the log holds a+1..b behind
	// "#base a" — recovery must replay exactly b-c records on top.
	rec, info2, err := RecoverStudy(dir, logPath, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if info2.SnapshotRecords != uint64(c) || info2.ReplayedRecords != uint64(b-c) || info2.LogBase != uint64(a) {
		t.Fatalf("restart 2: %d snapshot + %d replayed records (log base %d), want %d + %d (base %d)",
			info2.SnapshotRecords, info2.ReplayedRecords, info2.LogBase, c, b-c, a)
	}
	if got := scalarsBytes(t, rec); !bytes.Equal(got, scalarsBytes(t, studyFromLog(t, logPrefix(t, log, b)))) {
		t.Fatal("second-restart recovery diverges from uninterrupted ingest of every durable record")
	}
}

// TestOpenIngestLogAppendsWithoutSnapshots pins the no-snapshot-dir flow:
// when the log is the only durable copy of what recovery just replayed, it
// must be appended to (torn tail trimmed first), never truncated — a crash
// right after restart may lose nothing that was already on disk.
func TestOpenIngestLogAppendsWithoutSnapshots(t *testing.T) {
	log, _ := sharedLog(t)
	total := countRecords(log)
	a, b := total/2, total
	dir := t.TempDir()
	logPath := filepath.Join(dir, "conn.log")

	// Run-1 crash left records 1..a plus a torn final line.
	prefix := logPrefix(t, log, a)
	torn := recordLines(t, log, a, a+1)
	state := append(append([]byte(nil), prefix...), torn[:len(torn)/2]...)
	if err := os.WriteFile(logPath, state, 0o644); err != nil {
		t.Fatal(err)
	}

	st, info, err := RecoverStudy("", logPath, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records() != uint64(a) || !info.LogTruncated || info.TornLine == 0 {
		t.Fatalf("torn-log recovery: info=%+v, want %d records and a torn line", info, a)
	}
	_, _, gen, err := st.Counts()
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenIngestLog(logPath, gen, false, info.TornLine)
	if err != nil {
		t.Fatal(err)
	}
	// The trim leaves exactly the records recovery kept, so appending can't
	// fuse fresh records onto the torn line.
	if st, err := f.Stat(); err != nil || st.Size() != int64(len(prefix)) {
		t.Fatalf("trimmed log is %d bytes (err %v), want %d", st.Size(), err, len(prefix))
	}

	// Run 2 appends the rest, then crashes with nothing but the log.
	if _, err := f.Write(recordLines(t, log, a, b)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info2, err := RecoverStudy("", logPath, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if info2.ReplayedRecords != uint64(b) || info2.LogTruncated {
		t.Fatalf("full-log recovery: info=%+v, want %d clean records", info2, b)
	}
	if got := scalarsBytes(t, rec); !bytes.Equal(got, scalarsBytes(t, studyFromLog(t, log))) {
		t.Fatal("append-mode recovery diverges from uninterrupted ingest")
	}
}

// corruptState builds one crashed-notary scene: an older intact snapshot at
// records k, a newest snapshot at the full count, and the complete log.
func corruptState(t *testing.T, log []byte, k int) (dir, logPath, newest string) {
	t.Helper()
	dir = t.TempDir()
	if _, _, err := WriteStudySnapshot(dir, studyFromLog(t, logPrefix(t, log, k)), 0); err != nil {
		t.Fatal(err)
	}
	newest, _, err := WriteStudySnapshot(dir, studyFromLog(t, log), 0)
	if err != nil {
		t.Fatal(err)
	}
	logPath = filepath.Join(dir, "conn.log")
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, logPath, newest
}

// TestRecoverFaultInjection corrupts the newest snapshot every way a crash
// can — truncation at arbitrary offsets, flipped bytes, leftover temp files —
// and requires recovery to (a) never fail, (b) fall back to the older
// snapshot or a full replay, and (c) still land byte-identical on the
// uninterrupted-ingest scalars.
func TestRecoverFaultInjection(t *testing.T) {
	log, offline := sharedLog(t)
	want := scalarsBytes(t, offline)
	total := countRecords(log)
	k := total / 2

	checkParity := func(t *testing.T, dir, logPath string, wantCorrupt int) RecoveryInfo {
		t.Helper()
		rec, info, err := RecoverStudy(dir, logPath, t.Logf)
		if err != nil {
			t.Fatalf("RecoverStudy: %v", err)
		}
		if info.CorruptSnapshots != wantCorrupt {
			t.Fatalf("skipped %d corrupt snapshots, want %d", info.CorruptSnapshots, wantCorrupt)
		}
		if got := scalarsBytes(t, rec); !bytes.Equal(got, want) {
			t.Fatal("recovered scalars diverge from uninterrupted ingest")
		}
		return info
	}

	t.Run("truncated newest", func(t *testing.T) {
		dir, logPath, newest := corruptState(t, log, k)
		full, err := os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		// Sweep truncation points across the frame: header, payload, trailer.
		for _, n := range []int{0, 1, 4, 12, 13, len(full) / 2, len(full) - 4, len(full) - 1} {
			if err := os.WriteFile(newest, full[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			info := checkParity(t, dir, logPath, 1)
			if info.SnapshotRecords != uint64(k) {
				t.Fatalf("truncate@%d: fell back to generation %d, want %d", n, info.SnapshotRecords, k)
			}
		}
	})

	t.Run("flipped byte in newest", func(t *testing.T) {
		dir, logPath, newest := corruptState(t, log, k)
		full, err := os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{0, 4, 8, 13, len(full) / 2, len(full) - 2} {
			mut := append([]byte(nil), full...)
			mut[off] ^= 0x40
			if err := os.WriteFile(newest, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			checkParity(t, dir, logPath, 1)
		}
	})

	t.Run("every snapshot corrupt falls back to full replay", func(t *testing.T) {
		dir, logPath, _ := corruptState(t, log, k)
		snaps, err := listSnapshots(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snaps {
			if err := os.WriteFile(s, []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		info := checkParity(t, dir, logPath, len(snaps))
		if info.SnapshotPath != "" || info.ReplayedRecords != uint64(total) {
			t.Fatalf("full-replay fallback: info=%+v", info)
		}
	})

	t.Run("leftover tmp from interrupted write is removed", func(t *testing.T) {
		dir, logPath, _ := corruptState(t, log, k)
		tmp := filepath.Join(dir, "snap-interrupted.tmp")
		if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		checkParity(t, dir, logPath, 0)
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("leftover %s still present after recovery", tmp)
		}
	})

	t.Run("torn log tail from kill mid-ingest", func(t *testing.T) {
		// Crash signature: the durable log ends mid-line. Recovery keeps the
		// valid prefix and reports the truncation; the result equals
		// uninterrupted ingest of exactly the records that made it to disk.
		dir := t.TempDir()
		j := total - total/4
		prefix := logPrefix(t, log, j)
		lines := bytes.SplitAfter(log, []byte{'\n'})
		last := lines[len(lines)-2] // a full record line to tear
		torn := append(append([]byte(nil), prefix...), last[:len(last)/2]...)
		logPath := filepath.Join(dir, "conn.log")
		if err := os.WriteFile(logPath, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := WriteStudySnapshot(dir, studyFromLog(t, logPrefix(t, log, k)), 0); err != nil {
			t.Fatal(err)
		}
		rec, info, err := RecoverStudy(dir, logPath, t.Logf)
		if err != nil {
			t.Fatalf("RecoverStudy: %v", err)
		}
		if !info.LogTruncated {
			t.Fatal("torn tail not reported")
		}
		if info.Records() != uint64(j) {
			t.Fatalf("recovered %d records, want %d", info.Records(), j)
		}
		if got := scalarsBytes(t, rec); !bytes.Equal(got, scalarsBytes(t, studyFromLog(t, prefix))) {
			t.Fatal("torn-log recovery diverges from clean ingest of the surviving prefix")
		}
	})
}

// TestSnapshotRetention pins the pruning contract: only the newest keep
// snapshots survive a write.
func TestSnapshotRetention(t *testing.T) {
	log, _ := sharedLog(t)
	dir := t.TempDir()
	for _, k := range []int{10, 20, 30, 40, 50} {
		if _, _, err := WriteStudySnapshot(dir, studyFromLog(t, logPrefix(t, log, k)), 2); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots retained, want 2: %v", len(snaps), snaps)
	}
	if base := filepath.Base(snaps[0]); base != snapshotName(50) {
		t.Fatalf("newest retained snapshot is %s, want %s", base, snapshotName(50))
	}
}

// TestServerDurabilityEndToEnd drives the whole loop through a live server:
// ingest with a record-count snapshot trigger, healthz durability gauges,
// retention, the final snapshot on Close, and recovery parity from the
// snapshot directory alone.
func TestServerDurabilityEndToEnd(t *testing.T) {
	log, offline := sharedLog(t)
	total := countRecords(log)
	dir := t.TempDir()
	srv := NewServer(core.NewLiveStudy(),
		WithFlushEvery(37),
		WithDurability(DurabilityOptions{Dir: dir, EveryRecords: 100, Keep: 2, Logf: t.Logf}))
	ts := httptest.NewServer(srv.Handler())

	resp, err := http.Post(ts.URL+"/ingest", "text/tab-separated-values", bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	// The flush-boundary trigger fired during ingest, and healthz reports it.
	var health struct {
		SnapshotGeneration uint64  `json:"snapshot_generation"`
		SnapshotAge        float64 `json:"snapshot_age_seconds"`
		SnapshotsWritten   uint64  `json:"snapshots_written"`
		SnapshotErrors     uint64  `json:"snapshot_errors"`
	}
	if err := json.Unmarshal(mustGet(t, ts.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.SnapshotsWritten == 0 || health.SnapshotGeneration == 0 {
		t.Fatalf("healthz shows no snapshots after ingest: %+v", health)
	}
	if health.SnapshotErrors != 0 || health.SnapshotAge < 0 {
		t.Fatalf("healthz durability gauges: %+v", health)
	}
	ts.Close()

	// Close writes the final snapshot: the full aggregate is durable.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || len(snaps) > 2 {
		t.Fatalf("%d snapshots retained, want 1..2: %v", len(snaps), snaps)
	}
	if base := filepath.Base(snaps[0]); base != snapshotName(uint64(total)) {
		t.Fatalf("newest snapshot is %s, want generation %d", base, total)
	}

	// Recovery from the snapshot directory alone reproduces the study.
	rec, info, err := RecoverStudy(dir, "", t.Logf)
	if err != nil {
		t.Fatalf("RecoverStudy: %v", err)
	}
	if info.SnapshotRecords != uint64(total) {
		t.Fatalf("recovered generation %d, want %d", info.SnapshotRecords, total)
	}
	if !bytes.Equal(scalarsBytes(t, rec), scalarsBytes(t, offline)) {
		t.Fatal("snapshot-recovered scalars diverge from uninterrupted ingest")
	}
}

// TestRecoveredStudyKeepsIngesting pins the restart flow end to end: recover,
// compact, keep serving — the remaining records arrive afterwards and the
// final state matches never having crashed.
func TestRecoveredStudyKeepsIngesting(t *testing.T) {
	log, offline := sharedLog(t)
	total := countRecords(log)
	k := total / 2
	dir := t.TempDir()
	logPath := filepath.Join(dir, "conn.log")
	if err := os.WriteFile(logPath, logPrefix(t, log, k), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := RecoverStudy(dir, logPath, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, WithFlushEvery(53))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Feed the tail: record lines k.. of the log (header lines are comments,
	// so resending them is harmless — build the tail as full log minus the
	// prefix's record lines).
	var tail bytes.Buffer
	records := 0
	for _, line := range bytes.SplitAfter(log, []byte{'\n'}) {
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 && trimmed[0] != '#' {
			records++
			if records <= k {
				continue
			}
			tail.Write(line)
		}
	}
	resp, err := http.Post(ts.URL+"/ingest", "text/tab-separated-values", &tail)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail ingest status %d", resp.StatusCode)
	}
	if !bytes.Equal(scalarsBytes(t, srv.Study()), scalarsBytes(t, offline)) {
		t.Fatal("recover-then-ingest diverges from uninterrupted ingest")
	}
	if gotGen := mustGet(t, ts.URL+"/healthz"); !strings.Contains(string(gotGen), `"records"`) {
		t.Fatal("healthz unserved after recovery")
	}
}
