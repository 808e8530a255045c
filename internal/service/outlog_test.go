package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlsage/internal/framing"
	"tlsage/internal/notary"
)

// Tests of the -out log as this build writes it — TLSB frames, after whatever
// lines an earlier build left — against crashes at every byte and against the
// two committed logs.

// recordsOf decodes a log into records a test can keep.
func recordsOf(t *testing.T, log []byte) []*notary.Record {
	t.Helper()
	var recs []*notary.Record
	err := notary.ReadLog(bytes.NewReader(log), notary.SinkFunc(func(r *notary.Record) error {
		recs = append(recs, r.Clone())
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// frameEnds collects where each Write — each frame of a BatchWriter — ends.
type frameEnds struct {
	bytes.Buffer
	ends []int
}

func (f *frameEnds) Write(p []byte) (int, error) {
	n, err := f.Buffer.Write(p)
	f.ends = append(f.ends, f.Len())
	return n, err
}

// teeFrames appends recs to w the way the collector's tee does, in frames of
// size records.
func teeFrames(t *testing.T, w interface{ Write([]byte) (int, error) }, recs []*notary.Record, size int) {
	t.Helper()
	bw := notary.NewBatchWriter(w, size)
	for _, r := range recs {
		if err := bw.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotOf is a study's aggregate in its canonical encoding: equal bytes,
// equal studies.
func snapshotOf(t *testing.T, recs []*notary.Record) []byte {
	t.Helper()
	agg := notary.NewAggregate()
	for _, r := range recs {
		agg.Add(r)
	}
	return notary.EncodeSnapshot(nil, agg)
}

// recoverLog is the log half of a restart: through RecoverStudy when full,
// else through the replay RecoverStudy runs, into a bare aggregate — the same
// reader, cursor and torn-entry report without the ten milliseconds a live
// study takes to build, which is what lets a test afford every byte offset.
// It returns the recovered records' canonical encoding, their count and the
// torn entry.
func recoverLog(t *testing.T, path string, full bool) (snapshot []byte, records uint64, tornLine int) {
	t.Helper()
	if full {
		st, info, err := RecoverStudy("", path, func(string, ...any) {})
		if err != nil {
			t.Fatal(err)
		}
		if info.LogTruncated != (info.TornLine > 0) {
			t.Fatalf("recovery info %+v", info)
		}
		return notary.EncodeSnapshot(nil, st.Aggregate()), info.Records(), info.TornLine
	}
	agg := notary.NewAggregate()
	n, _, torn, err := replayLogTail(path, 0, agg)
	if err != nil {
		t.Fatal(err)
	}
	if torn != nil {
		tornLine = torn.Line
	}
	return notary.EncodeSnapshot(nil, agg), n, tornLine
}

// crashAt leaves state as the log a crash left, and runs the restart the
// production assembly runs with no snapshot directory: recover, reopen in
// append mode, tee fresh records as frames, crash again, recover again. The
// first recovery must keep the first wantKept of old and leave the log
// wantSize bytes long (unless that is negative); the second must hold exactly
// those records and the fresh ones.
func crashAt(t *testing.T, path string, state []byte, old, fresh []*notary.Record, wantKept, wantSize int, full bool) {
	t.Helper()
	if err := os.WriteFile(path, state, 0o644); err != nil {
		t.Fatal(err)
	}
	got, n, tornLine := recoverLog(t, path, full)
	if n != uint64(wantKept) {
		t.Fatalf("cut at %d: recovered %d records (torn entry %d), want the %d before the cut", len(state), n, tornLine, wantKept)
	}
	if !bytes.Equal(got, snapshotOf(t, old[:wantKept])) {
		t.Fatalf("cut at %d: the recovered study is not the first %d records", len(state), wantKept)
	}
	f, err := OpenIngestLog(path, n, false, tornLine)
	if err != nil {
		t.Fatalf("cut at %d: %v", len(state), err)
	}
	if wantSize >= 0 {
		if fi, err := f.Stat(); err != nil || fi.Size() != int64(wantSize) {
			t.Fatalf("cut at %d: reopened log is %d bytes (err %v), want it trimmed to %d", len(state), fi.Size(), err, wantSize)
		}
	}
	teeFrames(t, f, fresh, 8)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, n, tornLine = recoverLog(t, path, full)
	if tornLine != 0 || n != uint64(wantKept+len(fresh)) {
		t.Fatalf("cut at %d: second recovery: %d records, torn entry %d; want %d old and %d new", len(state), n, tornLine, wantKept, len(fresh))
	}
	want := snapshotOf(t, append(append([]*notary.Record(nil), old[:wantKept]...), fresh...))
	if !bytes.Equal(got, want) {
		t.Fatalf("cut at %d: the second recovery is not the %d kept records and the %d new", len(state), wantKept, len(fresh))
	}
}

// throughStudy picks the cuts that go through RecoverStudy itself: those
// within a frame envelope's reach of one of the marks, and a sample of the
// rest.
func throughStudy(cut int, marks ...int) bool {
	for _, m := range marks {
		if cut >= m-4 && cut <= m+5 {
			return true
		}
	}
	return cut%127 == 0
}

// A frame log cut at every byte of its last two frames recovers exactly the
// whole frames before the cut — a frame is all there or, by its length and
// checksum, not there — is trimmed to them, takes new frames, and recovers
// again to old and new. No offset reads as a record that was never written:
// the lines' weakness, below. (Every cut goes through the log replay and
// OpenIngestLog; see throughStudy for those that go through RecoverStudy.)
func TestFrameLogCutAtEveryOffset(t *testing.T) {
	log, _ := sharedLog(t)
	recs := recordsOf(t, log)
	old, fresh := recs[:18], recs[37:50]
	var framed frameEnds
	teeFrames(t, &framed, old, 4) // 4 4 4 4 2
	whole := framed.Bytes()
	ends := framed.ends
	if len(ends) != 5 {
		t.Fatalf("%d frames", len(ends))
	}
	path := filepath.Join(t.TempDir(), "conn.log")
	for cut := ends[2]; cut <= len(whole); cut++ {
		kept, size := 0, 0
		for i, end := range ends {
			if end <= cut {
				kept, size = min(4*(i+1), len(old)), end
			}
		}
		if whole[size-1] != '\n' {
			size++ // the newline OpenIngestLog ends the log with
		}
		crashAt(t, path, whole[:cut], old, fresh, kept, size, throughStudy(cut, ends...))
	}
}

// A log an earlier build wrote, cut at every byte of its last two lines: this
// build recovers the whole lines, trims the torn one, continues the log as
// frames, and recovers lines and frames together. A cut inside a line's last
// field leaves twenty fields, which read as a record (with a shorter cohort)
// and not as torn — always one no feeder was told about — so there the log is
// not trimmed, and what must hold is that the frame appended next is not read
// as the rest of that line.
func TestTSVLogCutAtEveryOffsetContinuesAsFrames(t *testing.T) {
	log, _ := sharedLog(t)
	recs := recordsOf(t, log)
	const lines = 12
	old, fresh := recs[:lines], recs[20:33]
	whole := recordLines(t, log, 0, lines)
	start := len(recordLines(t, log, 0, lines-2))
	last := len(recordLines(t, log, 0, lines-1))
	path := filepath.Join(t.TempDir(), "conn.log")
	for cut := start; cut <= len(whole); cut++ {
		kept, lineStart := lines-2, start
		if cut >= last {
			kept, lineStart = lines-1, last
		}
		partial := whole[lineStart:cut]
		if bytes.Count(partial, []byte{'\t'}) == 19 {
			// Twenty fields: a record. Compare it as what it now says.
			cutRecs := recordsOf(t, whole[:cut])
			if len(cutRecs) != kept+1 {
				t.Fatalf("cut at %d: %d records", cut, len(cutRecs))
			}
			crashAt(t, path, whole[:cut], cutRecs, fresh, kept+1, -1, throughStudy(cut, last, len(whole)))
			continue
		}
		crashAt(t, path, whole[:cut], old, fresh, kept, lineStart, throughStudy(cut, start, last, len(whole)))
	}
}

// The two committed logs — one written by the last build whose tee wrote TSV
// lines, recorded then and never since, one by this build's tee from the same
// two feeds — and the first continued by the second each open, through the
// production assembly, to the /scalars body pinned when the first was
// recorded (it was served by that build).
func TestCommittedLogsRecoverToPinnedScalars(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	tsv, v3, want := read("outlog_tsv.log"), read("outlog_v3.bin"), read("outlog.scalars.json")
	// The feeds were 75 records each: the mixed log is the first as the old
	// build logged it and the second as this one does.
	second, err := notary.LogEntryOffset(bytes.NewReader(v3), 2)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(recordLines(t, tsv, 0, 75), v3[second:]...)
	for name, log := range map[string][]byte{"tsv": tsv, "v3": v3, "mixed": mixed} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Out: filepath.Join(t.TempDir(), "conn.log")}
			if err := os.WriteFile(cfg.Out, log, 0o644); err != nil {
				t.Fatal(err)
			}
			n := startNode(t, cfg)
			defer n.shutdown(t)
			if gen := n.generation(t); gen != 150 {
				t.Fatalf("recovered %d records, want 150", gen)
			}
			if got := mustGet(t, n.http+"/scalars"); !bytes.Equal(got, want) {
				t.Errorf("/scalars after recovery:\n%s\nwant the pinned body:\n%s", got, want)
			}
		})
	}
}

// A frame that passes its checksum and does not decode is no crash's doing:
// recovery does not take it for a torn tail — trimming it would drop
// acknowledged records behind a cursor that had counted some of them — but
// refuses to start, says what to do, and leaves the log as it found it.
func TestUndecodableFrameFailsRecovery(t *testing.T) {
	log, _ := sharedLog(t)
	recs := recordsOf(t, log)[:20]
	var state bytes.Buffer
	teeFrames(t, &state, recs[:8], 8)
	// Two records promised, one flags byte with unknown bits delivered.
	format := framing.Format{Magic: "TLSB", MinVersion: 1, Version: notary.BatchVersion, LenBytes: 4, MaxPayload: 1 << 26}
	dst, mark := format.Begin(nil)
	junk, err := format.End(append(dst, 2, 0xff), mark)
	if err != nil {
		t.Fatal(err)
	}
	state.Write(junk)
	teeFrames(t, &state, recs[8:], 8)
	path := filepath.Join(t.TempDir(), "conn.log")
	if err := os.WriteFile(path, state.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = RecoverStudy("", path, func(string, ...any) {})
	var be *notary.BatchError
	if !errors.As(err, &be) || be.Frame != 1 || !strings.Contains(err.Error(), "move the log aside") {
		t.Fatalf("recovery over an undecodable frame: %v, want a refusal naming frame 1 that says what to do", err)
	}
	if _, err := Open(Config{Out: path, QueueBound: DefaultQueueBound, Studies: "notary"}); err == nil {
		t.Fatal("Open started over an undecodable frame")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, state.Bytes()) {
		t.Fatalf("the refused log was modified (err %v)", err)
	}
}
