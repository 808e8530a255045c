package notary

import (
	"bytes"
	"errors"
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

// A clone is a copy of the record that shares its row: the offered side is
// immutable, so there is nothing of it to copy.
func TestRecordCloneSharesTheRow(t *testing.T) {
	r := sampleRecord()
	cp := r.Clone()
	if cp == r || !reflect.DeepEqual(r, cp) || cp.hello != r.hello {
		t.Fatal("the clone is not a copy of the record on its row")
	}
	cp.Suite, cp.ServerCohort = 0x0005, "other"
	if r.Suite != 0xC02F || r.ServerCohort != "modern-ecdhe" {
		t.Error("writing the clone wrote the original")
	}
}

// A record nothing pointed at a row reads as the empty hello, and writes,
// frames, reads back and folds as one.
func TestZeroRecordIsTheEmptyHello(t *testing.T) {
	r := &Record{Date: sampleRecord().Date}
	if len(r.Suites())+len(r.Extensions())+len(r.Curves())+len(r.PointFmts())+len(r.SupportedVersions()) != 0 ||
		r.Fingerprint() != "" || r.Truth() != "" {
		t.Fatalf("a zero record reads %+v", r.row().Hello)
	}
	interned := withHello(&Record{Date: r.Date}, Hello{})
	if err := checkHandle(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.AppendTSV(nil), interned.AppendTSV(nil)) || !bytes.Equal(encodeBatch([]*Record{r}), encodeBatch([]*Record{interned})) {
		t.Error("a zero record is written unlike an interned empty hello")
	}
	add, built := classified(), NewShardBuilder(classified)
	for _, x := range []*Record{r, interned, r} {
		add.Add(x)
		built.Add(x)
	}
	want := classified()
	var back collectSink
	if _, _, err := ReadBatches(bytes.NewReader(encodeBatch([]*Record{r, interned, r})), Tee(want, &back)); err != nil {
		t.Fatal(err)
	}
	requireSameRecords(t, "a zero record framed", back.recs, []*Record{interned, interned, interned})
	requireSameAggregate(t, "zero records by Add", add, want)
	requireSameAggregate(t, "zero records through a builder", built.Flush(), want)
	// The builder just flushed holds nothing: a Flush of nothing is a fresh
	// shard, and leaves the builder usable.
	t.Run("flush-of-nothing", func(t *testing.T) {
		for i := 0; i < 2; i++ {
			if got := built.Flush(); !reflect.DeepEqual(got, classified()) {
				t.Fatalf("Flush %d of an empty builder: %d records", i, got.TotalRecords())
			}
		}
		built.Add(r)
		want := classified()
		want.Add(r)
		requireSameAggregate(t, "one record after two empty flushes", built.Flush(), want)
	})
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
