package notary

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
	"tlsage/internal/wire"
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
	t.Run("single-and-nested-flatten", func(t *testing.T) {
		if Tee(agg) != Sink(agg) {
			t.Error("single-sink tee should be the sink itself")
		}
		nested := Tee(Tee(agg, NewLogWriter(&bytes.Buffer{})), SinkFunc(func(*Record) error { return nil }))
		if m, ok := nested.(*multiSink); !ok || len(m.sinks) != 3 {
			t.Fatalf("nested tee not flattened: %T", nested)
		}
	})
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
	// Close closes every sink and reports the first one's error.
	failing := func(err error) Sink {
		r, w := io.Pipe()
		r.CloseWithError(err)
		lw := NewLogWriter(w)
		lw.Observe(sampleRecord()) // buffered until Close
		return lw
	}
	first := errors.New("first")
	if err := Tee(failing(first), failing(boom)).Close(); !errors.Is(err, first) {
		t.Errorf("Close = %v, want the first sink's error", err)
	}
}

// The serialization path must be allocation-free: a record serialized into
// a reused buffer allocates nothing in steady state. This is the regression
// guard for the direct-append AppendTSV rewrite (it used to build every line
// in a strings.Builder and copy it into dst, allocating twice per record).
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

// The parse path: once the stream's strings are interned, parsing a line
// into a reused record allocates nothing — no line string, no field strings,
// no list growth.
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

// A producer's per-connection path, once its table is warm: a parsed hello's
// lists refilled into one Hello, interned, and the record written as a line,
// with no allocation per record — a repeated hello is a key spelled into the
// table's buffer and a lookup.
func TestHelloTableAllocBound(t *testing.T) {
	ch := &wire.ClientHello{
		Version:      registry.VersionTLS12,
		CipherSuites: []uint16{0x0a0a, 0xC02F, 0xC013, 0x0005},
		Extensions: []wire.Extension{
			wire.NewSupportedGroupsExtension([]registry.CurveID{registry.CurveX25519}),
			wire.NewHeartbeatExtension(1),
			wire.NewSupportedVersionsExtension([]registry.Version{registry.VersionTLS13Draft18}),
		},
	}
	var tab HelloTable
	var r Record
	var h Hello
	buf, date := make([]byte, 0, 1024), sampleRecord().Date
	cycle := func() {
		r = Record{Date: date, ServerCohort: "modern-ecdhe"}
		r.FromClientHello(ch, &h)
		h.Fingerprint, h.Truth = "fp-test", "Chrome"
		tab.Intern(&r, &h)
		buf = r.AppendTSV(buf[:0])
	}
	cycle()
	row := r.hello
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("a warm producer table costs %v allocations per record, want 0", got)
	}
	if r.hello != row || len(tab.t.rows) != 1 {
		t.Errorf("a repeated hello made %d rows", len(tab.t.rows))
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
