package notary

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"tlsage/internal/timeline"
)

func TestTeeFansOutInOrder(t *testing.T) {
	var order []string
	mk := func(name string) Sink {
		return SinkFunc(func(*Record) error {
			order = append(order, name)
			return nil
		})
	}
	agg := NewAggregate()
	sink := Tee(mk("a"), agg, mk("b"))
	r := sampleRecord()
	if err := sink.Observe(r); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"a", "b"}) {
		t.Errorf("order = %v", order)
	}
	if agg.TotalRecords() != 1 {
		t.Error("aggregate missed the teed record")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTeeStopsAtFirstObserveError(t *testing.T) {
	boom := errors.New("boom")
	after := 0
	sink := Tee(
		SinkFunc(func(*Record) error { return boom }),
		SinkFunc(func(*Record) error { after++; return nil }),
	)
	if err := sink.Observe(sampleRecord()); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if after != 0 {
		t.Error("sink after the failing one was invoked")
	}
}

func TestTeeSingleAndNestedFlatten(t *testing.T) {
	agg := NewAggregate()
	if Tee(agg) != Sink(agg) {
		t.Error("single-sink tee should be the sink itself")
	}
	lw := NewLogWriter(&bytes.Buffer{})
	nested := Tee(Tee(agg, lw), SinkFunc(func(*Record) error { return nil }))
	m, ok := nested.(*multiSink)
	if !ok || len(m.sinks) != 3 {
		t.Fatalf("nested tee not flattened: %T", nested)
	}
}

func TestLogWriterIsSink(t *testing.T) {
	var buf bytes.Buffer
	var sink Sink = NewLogWriter(&buf)
	if err := sink.Observe(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "#separator") {
		t.Error("header missing")
	}
	if strings.Count(buf.String(), "\n") != 4 {
		t.Errorf("expected 3 header lines + 1 record, got %q", buf.String())
	}
}

func TestRecordResetKeepsCapacity(t *testing.T) {
	r := sampleRecord()
	suitesCap := cap(r.ClientSuites)
	ptr := &r.ClientSuites[0]
	r.Reset()
	if !reflect.DeepEqual(*r, Record{
		ClientSuites:      r.ClientSuites,
		ClientExtensions:  r.ClientExtensions,
		ClientCurves:      r.ClientCurves,
		ClientPointFmts:   r.ClientPointFmts,
		ClientSupportedVs: r.ClientSupportedVs,
	}) {
		t.Error("Reset left non-slice state behind")
	}
	if len(r.ClientSuites) != 0 || cap(r.ClientSuites) != suitesCap {
		t.Error("Reset should empty but keep slice capacity")
	}
	r.ClientSuites = append(r.ClientSuites, 1)
	if &r.ClientSuites[0] != ptr {
		t.Error("Reset reallocated the suites backing array")
	}
}

func TestRecordCloneIsDeep(t *testing.T) {
	r := sampleRecord()
	cp := r.Clone()
	if !reflect.DeepEqual(r, cp) {
		t.Fatal("clone differs")
	}
	r.ClientSuites[0] = 0xdead
	r.ClientCurves[0] = 0xbeef
	if cp.ClientSuites[0] == 0xdead || cp.ClientCurves[0] == 0xbeef {
		t.Error("clone shares slices with the original")
	}
}

func TestLeaseReleaseRoundTrip(t *testing.T) {
	r := LeaseRecord()
	if !reflect.DeepEqual(*r, Record{
		ClientSuites:      r.ClientSuites,
		ClientExtensions:  r.ClientExtensions,
		ClientCurves:      r.ClientCurves,
		ClientPointFmts:   r.ClientPointFmts,
		ClientSupportedVs: r.ClientSupportedVs,
	}) || len(r.ClientSuites) != 0 {
		t.Fatal("leased record not clean")
	}
	*r = *sampleRecord()
	ReleaseRecord(r)
	ReleaseRecord(nil) // no-op
	again := LeaseRecord()
	if again.Fingerprint != "" || again.Established || len(again.ClientSuites) != 0 {
		t.Error("pool returned a dirty record")
	}
	ReleaseRecord(again)
}

// The pooled serialization path must be allocation-free: a leased record
// filled, serialized into a reused buffer, and released allocates nothing
// in steady state. This is the regression guard for the direct-append
// AppendTSV rewrite (it used to build every line in a strings.Builder and
// copy it into dst, allocating twice per record).
func TestAppendTSVAllocFree(t *testing.T) {
	r := sampleRecord()
	buf := make([]byte, 0, 1024)
	if got := testing.AllocsPerRun(200, func() {
		buf = r.AppendTSV(buf[:0])
	}); got != 0 {
		t.Errorf("AppendTSV into a reused buffer allocates %v times per record, want 0", got)
	}
	// And it must still match what the log parser expects.
	line := string(r.AppendTSV(nil))
	back, err := parseTSV(line)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecord(t, r, &back) {
		t.Fatal("direct-append TSV does not round-trip")
	}
}

// The pooled parse path: once the stream's strings are interned, parsing a
// line into a reused record allocates nothing — no line string, no field
// strings, no list growth.
func TestParseTSVIntoAllocBound(t *testing.T) {
	line := bytes.TrimSuffix(sampleRecord().AppendTSV(nil), []byte("\n"))
	var rec Record
	intern := newDecodeTables()
	if err := parseTSVLine(&rec, line, intern); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := parseTSVLine(&rec, line, intern); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("parseTSVLine allocates %v times per record in steady state, want 0", got)
	}
}

// A full pooled lease → fill-from-TSV → re-serialize → release cycle stays
// allocation-free once the pool and the intern table are warm.
func TestPooledRecordCycleAllocBound(t *testing.T) {
	line := bytes.TrimSuffix(sampleRecord().AppendTSV(nil), []byte("\n"))
	intern := newDecodeTables()
	// Warm the pool with one fully-grown record.
	warm := LeaseRecord()
	if err := parseTSVLine(warm, line, intern); err != nil {
		t.Fatal(err)
	}
	ReleaseRecord(warm)
	buf := make([]byte, 0, 1024)
	if got := testing.AllocsPerRun(200, func() {
		r := LeaseRecord()
		if err := parseTSVLine(r, line, intern); err != nil {
			t.Fatal(err)
		}
		buf = r.AppendTSV(buf[:0])
		ReleaseRecord(r)
	}); got > 3 {
		t.Errorf("pooled cycle allocates %v times per record, want ≤3", got)
	}
}

func TestAppendDateMatchesString(t *testing.T) {
	dates := []timeline.Date{
		timeline.D(2012, time.February, 1),
		timeline.D(2018, time.December, 31),
		timeline.D(999, time.January, 9),
	}
	for _, d := range dates {
		if got := string(appendDate(nil, d)); got != d.String() {
			t.Errorf("appendDate(%v) = %q, want %q", d, got, d.String())
		}
	}
}
