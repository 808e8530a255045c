package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"tlsage/internal/core"
	"tlsage/internal/notary"
)

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

// recordLines returns the lines of a TSV log after its from-th record up to
// and including its to-th: recordLines(t, log, 0, k) is the log cut after k
// records, header and all.
func recordLines(t *testing.T, log []byte, from, to int) []byte {
	t.Helper()
	var out []byte
	n := 0 // records up to and including this line
	for _, line := range bytes.SplitAfter(log, []byte{'\n'}) {
		trimmed := bytes.TrimSpace(line)
		record := len(trimmed) > 0 && trimmed[0] != '#'
		if record {
			n++
		}
		if n > to {
			return out
		}
		if n > from || n == from && !record {
			out = append(out, line...)
		}
	}
	if n < to {
		t.Fatalf("log has only %d records, wanted lines up to %d", n, to)
	}
	return out
}

// corruptState builds one crashed-notary scene: an older intact snapshot at
// records k, a newest snapshot at the full count, and the complete log.
func corruptState(t *testing.T, log []byte, k int) (dir, logPath, newest string) {
	t.Helper()
	dir = t.TempDir()
	if _, _, err := WriteStudySnapshot(dir, studyFromLog(t, recordLines(t, log, 0, k)), 0); err != nil {
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
	total := len(recordsOf(t, log))
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
}

// TestServerDurabilityEndToEnd drives the whole loop through a live server:
// ingest with a record-count snapshot trigger, healthz durability gauges,
// retention, the final snapshot on Close, and recovery parity from the
// snapshot directory alone.
func TestServerDurabilityEndToEnd(t *testing.T) {
	log, offline := sharedLog(t)
	total := len(recordsOf(t, log))
	dir := t.TempDir()
	srv := NewServer(core.NewLiveStudy(),
		withFlushEvery(37),
		WithDurability(DurabilityOptions{Dir: dir, EveryRecords: 100, Logf: t.Logf}))
	ts := httptest.NewServer(srv.Handler())

	postTSV(t, ts.URL, log)

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
	// Of the snapshots written, exactly DefaultSnapshotKeep survive, the
	// newest the final.
	t.Run("snapshot-retention", func(t *testing.T) {
		snaps, err := listSnapshots(dir)
		if err != nil || len(snaps) != DefaultSnapshotKeep || filepath.Base(snaps[0]) != snapshotName(uint64(total)) {
			t.Fatalf("retained %v (err %v), want %d, the newest at generation %d", snaps, err, DefaultSnapshotKeep, total)
		}
	})

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

// fileAt writes a regular file at path, where a test wants a file standing
// in for a directory.
func fileAt(t *testing.T, path string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecoveryOnFileSystemFaults builds, in a temp directory and without
// privileges, the file-system states recovery can meet: a file where the
// snapshot directory or the log's directory should be, a foreign name and a
// dangling link among the snapshots, and a log whose #base lies past every
// snapshot. Each either fails recovery with the file system's error or is
// skipped, and what is skipped is narrated.
func TestRecoveryOnFileSystemFaults(t *testing.T) {
	log, offline := sharedLog(t)
	total := len(recordsOf(t, log))
	k := total / 2

	t.Run("file-for-directory", func(t *testing.T) {
		notDir := fileAt(t, filepath.Join(t.TempDir(), "snaps"))
		if _, _, err := RecoverStudy(notDir, "", t.Logf); !errors.Is(err, syscall.ENOTDIR) {
			t.Errorf("recovery from a file as the snapshot directory: %v, want ENOTDIR", err)
		}
		if _, _, err := WriteStudySnapshot(notDir, studyFromLog(t, log), 0); !errors.Is(err, syscall.ENOTDIR) {
			t.Errorf("snapshot into a file as the directory: %v, want ENOTDIR", err)
		}
		if _, _, err := RecoverStudy("", filepath.Join(notDir, "conn.log"), t.Logf); !errors.Is(err, syscall.ENOTDIR) {
			t.Errorf("recovery from a log below a file: %v, want ENOTDIR", err)
		}
	})

	t.Run("foreign-name-and-dangling-link", func(t *testing.T) {
		dir := t.TempDir()
		if _, _, err := WriteStudySnapshot(dir, studyFromLog(t, recordLines(t, log, 0, k)), 0); err != nil {
			t.Fatal(err)
		}
		fileAt(t, filepath.Join(dir, snapshotPrefix+"latest"+snapshotSuffix))
		if err := os.Symlink(filepath.Join(dir, "gone"), filepath.Join(dir, snapshotName(uint64(total)))); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, "conn.log")
		if err := os.WriteFile(logPath, log, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, info, err := RecoverStudy(dir, logPath, t.Logf)
		if err != nil || info.CorruptSnapshots != 1 || info.SnapshotRecords != uint64(k) || info.ReplayedRecords != uint64(total-k) {
			t.Fatalf("recovered %+v, err %v; want the dangling link skipped, the foreign name ignored, %d + %d records", info, err, k, total-k)
		}
		if !bytes.Equal(scalarsBytes(t, rec), scalarsBytes(t, offline)) {
			t.Fatal("recovered scalars diverge from uninterrupted ingest")
		}
	})

	t.Run("base-past-every-snapshot", func(t *testing.T) {
		logPath := filepath.Join(t.TempDir(), "conn.log")
		if err := os.WriteFile(logPath, append([]byte(notary.LogBaseDirective(500)), recordLines(t, log, 0, k)...), 0o644); err != nil {
			t.Fatal(err)
		}
		var lines []string
		_, info, err := RecoverStudy("", logPath, func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) })
		if err != nil || info.LogBase != 500 || info.ReplayedRecords != uint64(k) {
			t.Fatalf("recovered %+v, err %v; want base 500 and %d replayed records", info, err, k)
		}
		if len(lines) != 1 || !strings.Contains(lines[0], "records 1..500 are unrecoverable") {
			t.Fatalf("narrated %q, want the unrecoverable generations named", lines)
		}
	})
}

// TestOpenIngestLogOnFileSystemFaults: OpenIngestLog returns the file
// system's error for a directory at the log's path, a torn entry past the
// log's end and a full device under the #base directive, and leaves an empty
// log empty.
func TestOpenIngestLogOnFileSystemFaults(t *testing.T) {
	log, _ := sharedLog(t)
	dir := t.TempDir()
	if _, err := OpenIngestLog(dir, 10, false, 0); !errors.Is(err, syscall.EISDIR) {
		t.Errorf("appending to a directory: %v, want EISDIR", err)
	}

	short := filepath.Join(dir, "short.log")
	if err := os.WriteFile(short, recordLines(t, log, 0, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIngestLog(short, 3, false, 99); !errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "of 99 sought") {
		t.Errorf("trimming at entry 99 of a short log: %v, want the seek to meet its end", err)
	}

	empty := filepath.Join(dir, "empty.log")
	f, err := OpenIngestLog(empty, 10, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if raw, err := os.ReadFile(empty); err != nil || len(raw) != 0 {
		t.Errorf("an empty log reopened as %q (err %v), want it left empty", raw, err)
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	if _, err := OpenIngestLog("/dev/full", 10, true, 0); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("writing the #base directive to /dev/full: %v, want ENOSPC", err)
	}
}

// TestSnapshotManagerTriggers runs the snapshot manager's three ways of
// snapshotting a study and how each fails: the timer writes while records
// arrive; a flush boundary that finds another snapshot in flight sheds its
// check instead of queueing behind it, and the next boundary writes; and
// with a file swapped in for the directory, the write fails, is counted and
// is narrated, and the study keeps serving.
func TestSnapshotManagerTriggers(t *testing.T) {
	log, _ := sharedLog(t)
	t.Run("timer", func(t *testing.T) {
		st := studyFromLog(t, log)
		m := newSnapshotManager(st, DurabilityOptions{Dir: t.TempDir(), Interval: 5 * time.Millisecond, Logf: t.Logf})
		defer m.close()
		waitFor(t, "a timer snapshot", func() bool { return m.written.Load() > 0 })
		if gen, _, _, _ := m.status(); gen != uint64(len(recordsOf(t, log))) {
			t.Fatalf("timer snapshot at generation %d, want %d", gen, len(recordsOf(t, log)))
		}
	})

	t.Run("boundary-sheds-contention-and-fails-on-a-file", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "snaps")
		var failures []string
		st := studyFromLog(t, log)
		m := newSnapshotManager(st, DurabilityOptions{Dir: dir, EveryRecords: 1,
			Logf: func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }})
		m.mu.Lock() // a snapshot in flight
		m.noteProgress()
		m.mu.Unlock()
		if m.written.Load() != 0 {
			t.Fatal("a boundary wrote a snapshot while another held the lock")
		}
		m.noteProgress()
		if m.written.Load() != 1 {
			t.Fatalf("%d snapshots after the uncontended boundary, want 1", m.written.Load())
		}

		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		fileAt(t, dir)
		if err := notary.ReadLog(bytes.NewReader(recordLines(t, log, 0, 1)), st.Aggregate()); err != nil {
			t.Fatal(err)
		}
		m.noteProgress()
		m.close()
		if _, _, written, errs := m.status(); written != 1 || errs != 2 || len(failures) != 2 ||
			!strings.Contains(failures[0], "snapshot failed") || !strings.Contains(failures[0], "not a directory") {
			t.Fatalf("%d written, %d failed, narrated %q; want the boundary's and Close's write to fail on the file", written, errs, failures)
		}
	})
}
