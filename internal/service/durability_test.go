package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

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
		WithFlushEvery(37),
		WithDurability(DurabilityOptions{Dir: dir, EveryRecords: 100, Keep: 2, Logf: t.Logf}))
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
	// Of the snapshots written, exactly Keep survive, the newest the final.
	t.Run("snapshot-retention", func(t *testing.T) {
		snaps, err := listSnapshots(dir)
		if err != nil || len(snaps) != 2 || filepath.Base(snaps[0]) != snapshotName(uint64(total)) {
			t.Fatalf("retained %v (err %v), want 2, the newest at generation %d", snaps, err, total)
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
