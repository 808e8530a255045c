package notary

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tlsage/internal/registry"
)

// compatFixtureRecords builds the deterministic record stream behind the
// recorded testdata/{snapshot,batch}_v*.bin fixtures. Each was written by the
// codec of its version (RECORD_COMPAT_FIXTURES=1 on the tree that shipped it); regenerating them under a newer codec would defeat the point of the
// compatibility tests, so the recorder test below is guarded.
func compatFixtureRecords() []*Record {
	rnd := rand.New(rand.NewSource(99))
	all := registry.AllSuites()
	recs := make([]*Record, 400)
	for i := range recs {
		recs[i] = randomRecord(rnd, all)
	}
	return recs
}

func compatFixtureAggregate() *Aggregate {
	agg := NewAggregate()
	for _, r := range compatFixtureRecords() {
		agg.Add(r)
	}
	return agg
}

// TestRecordCompatFixtures records the fixtures of the codec versions this
// build writes, as testdata/{snapshot,batch}_v<version>.bin. It only runs
// when RECORD_COMPAT_FIXTURES is set and exists so the recording procedure is
// documented in code. The file name carries the version byte, so recording on
// a post-bump tree adds the new version's files and leaves the genuine older
// bytes alone; re-recording a committed version is only honest on a tree
// whose encoders are the ones that shipped it.
func TestRecordCompatFixtures(t *testing.T) {
	if os.Getenv("RECORD_COMPAT_FIXTURES") == "" {
		t.Skip("set RECORD_COMPAT_FIXTURES=1 to record the current versions' fixtures")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	snap := EncodeSnapshot(nil, compatFixtureAggregate())
	if err := os.WriteFile(fixturePath("snapshot", SnapshotVersion), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	batch := encodeBatch(compatFixtureRecords())
	if err := os.WriteFile(fixturePath("batch", BatchVersion), batch, 0o644); err != nil {
		t.Fatal(err)
	}
}

func fixturePath(kind string, version int) string {
	return filepath.Join("testdata", fmt.Sprintf("%s_v%d.bin", kind, version))
}

func readFixture(t *testing.T, kind string, version int) []byte {
	t.Helper()
	name := fixturePath(kind, version)
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 5 {
		t.Fatalf("fixture %s too short (%d bytes)", name, len(b))
	}
	if int(b[4]) != version {
		t.Fatalf("fixture %s carries version %d, want recorded version %d", name, b[4], version)
	}
	return b
}

// TestSnapshotV1Decodes: a genuine version-1 snapshot (recorded before the
// attribution tables existed) must decode under the version-2 reader with
// every pre-existing counter intact — an upgrade must not force a re-ingest.
// Version 1 always carried each month's per-fingerprint counts in its FPs
// rows, so the fingerprint volumes come back too; only ByClientClass, which
// version 1 had nowhere, stays empty.
func TestSnapshotV1Decodes(t *testing.T) {
	got, err := DecodeSnapshot(readFixture(t, "snapshot", 1))
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	want := compatFixtureAggregate() // no classifier: its ByClientClass maps are empty too
	var fpVolume, lifetime int64
	for _, m := range got.Months() {
		gms := got.Stats(m)
		if len(gms.ByClientClass) != 0 {
			t.Fatalf("month %v: v1 decode invented class attribution", m)
		}
		for _, caps := range gms.FPs {
			fpVolume += int64(caps.Count)
		}
	}
	for _, conns := range got.FingerprintVolumes() {
		lifetime += conns
	}
	if fpVolume == 0 || fpVolume != lifetime {
		t.Fatalf("v1 decode carries %d per-month fingerprint connections against %d lifetime ones, want equal and non-zero",
			fpVolume, lifetime)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("v1 snapshot decode differs from replayed fixture records")
	}
}

// TestBatchV1Decodes: a version-1 batch stream decodes under the current
// reader; the record payload did not change through version 2, so ingesting it
// fills the new attribution counters exactly as a live stream would.
func TestBatchV1Decodes(t *testing.T) {
	requireFixtureContent(t, "v1 batch", readFixture(t, "batch", 1), 1)
}

// TestBatchV2Decodes: version 3 gave records their frame-local references, and
// a version-2 stream — every hello and cohort in line — still decodes to the
// same records, alone and in one stream with version-3 frames, whose entries
// a version-2 frame neither sees nor disturbs. The retired version-2 encoder
// kept as the tests' oracle writes the recorded bytes.
func TestBatchV2Decodes(t *testing.T) {
	v2, v3 := readFixture(t, "batch", 2), readFixture(t, "batch", 3)
	requireFixtureContent(t, "v2 batch", v2, 1)
	if got := encodeBatchV2(compatFixtureRecords()); !bytes.Equal(got, v2) {
		t.Errorf("the version-2 oracle encoder wrote %d bytes that differ from the %d-byte fixture", len(got), len(v2))
	}
	requireFixtureContent(t, "v2 + v3 frames", append(bytes.Clone(v2), v3...), 2)
	requireFixtureContent(t, "v3 + v2 + v3 + v1 frames", bytes.Join([][]byte{v3, v2, v3, readFixture(t, "batch", 1)}, nil), 4)
}

// requireFixtureContent reads raw, a stream of whole fixtures, and holds the
// records to the fixture's, that many times over.
func requireFixtureContent(t *testing.T, what string, raw []byte, times int) {
	t.Helper()
	var got collectSink
	agg, wagg := NewAggregate(), NewAggregate()
	frames, records, err := ReadBatches(bytes.NewReader(raw), Tee(&got, agg))
	if err != nil || frames != uint64(times) {
		t.Fatalf("%s: %d frames, %d records, err %v; want %d frames", what, frames, records, err, times)
	}
	var want []*Record
	for i := 0; i < times; i++ {
		want = append(want, compatFixtureRecords()...)
	}
	if len(got.recs) != len(want) {
		t.Fatalf("%s: decoded %d records, want %d", what, len(got.recs), len(want))
	}
	for i, r := range want {
		if !sameRecord(t, got.recs[i], r.Clone()) {
			t.Fatalf("%s: record %d differs from the fixture's", what, i)
		}
		wagg.Add(r)
	}
	if !reflect.DeepEqual(agg, wagg) {
		t.Fatalf("%s: ingest differs from replayed fixture records", what)
	}
}

// TestUnknownNewerVersionsRejected: versions beyond what this build writes
// still fail loudly — forward compatibility is an explicit error, never a
// misdecode.
func TestUnknownNewerVersionsRejected(t *testing.T) {
	snap := append([]byte(nil), readFixture(t, "snapshot", 1)...)
	snap[4] = SnapshotVersion + 1
	if _, err := DecodeSnapshot(snap); err == nil {
		t.Error("snapshot version beyond current accepted")
	}
	batch := append([]byte(nil), readFixture(t, "batch", 1)...)
	batch[4] = BatchVersion + 1
	if _, _, err := ReadBatches(bytes.NewReader(batch), NewAggregate()); err == nil {
		t.Error("batch version beyond current accepted")
	}
}

// TestCurrentVersionGoldens pins the bytes this build writes: the encoders
// reproduce the committed current-version fixtures byte for byte (through
// every producer: EncodeSnapshot, WriteSnapshot and a BatchWriter holding
// the whole stream in one frame), and the decoders read
// them back to the fixture content. A refactor of the framing or payload
// code that moves a single wire byte fails here.
func TestCurrentVersionGoldens(t *testing.T) {
	recs := compatFixtureRecords()
	agg := compatFixtureAggregate()

	snap := readFixture(t, "snapshot", SnapshotVersion)
	if got := EncodeSnapshot(nil, agg); !bytes.Equal(got, snap) {
		t.Errorf("EncodeSnapshot wrote %d bytes that differ from the %d-byte golden", len(got), len(snap))
	}
	if got := EncodeSnapshot([]byte("prefix"), agg); !bytes.Equal(got[len("prefix"):], snap) {
		t.Error("EncodeSnapshot onto a non-empty dst differs from the golden")
	}
	var sbuf bytes.Buffer
	if err := WriteSnapshot(&sbuf, agg); err != nil || !bytes.Equal(sbuf.Bytes(), snap) {
		t.Errorf("WriteSnapshot differs from the golden (err %v)", err)
	}
	if got, err := DecodeSnapshot(snap); err != nil || !reflect.DeepEqual(got, agg) {
		t.Errorf("DecodeSnapshot(golden): err %v, equal to fixture content: %v", err, err == nil)
	}
	if got, err := ReadSnapshot(bytes.NewReader(snap)); err != nil || !reflect.DeepEqual(got, agg) {
		t.Errorf("ReadSnapshot(golden): err %v", err)
	}

	batch := readFixture(t, "batch", BatchVersion)
	var bbuf bytes.Buffer
	bw := NewBatchWriter(&bbuf, len(recs))
	for _, r := range recs {
		if err := bw.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil || !bytes.Equal(bbuf.Bytes(), batch) {
		t.Errorf("BatchWriter differs from the golden (err %v)", err)
	}
	got := NewAggregate()
	if frames, records, err := ReadBatches(bytes.NewReader(batch), got); err != nil || frames != 1 || records != uint64(len(recs)) {
		t.Fatalf("ReadBatches(golden): frames=%d records=%d err=%v", frames, records, err)
	}
	if !reflect.DeepEqual(got, agg) {
		t.Error("golden batch ingest differs from the fixture content")
	}
}
