package notary

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tlsage/internal/timeline"
)

// TestLockedSinkConcurrentProducers hammers one LockedSink-wrapped
// Aggregate from many goroutines (run under -race) and checks the result
// matches the same records delivered serially.
func TestLockedSinkConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 500

	makeRec := func(p, i int) *Record {
		return &Record{
			Date:         timeline.D(2012+p%3, time.Month(1+i%12), 1+i%28),
			Established:  i%2 == 0,
			ClientSuites: []uint16{0x002f, 0x009c},
		}
	}

	live := NewAggregate()
	ls := NewLockedSink(live)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := ls.Observe(makeRec(p, i)); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	serial := NewAggregate()
	for p := 0; p < producers; p++ {
		for i := 0; i < perProducer; i++ {
			serial.Add(makeRec(p, i))
		}
	}
	if got, want := live.TotalRecords(), serial.TotalRecords(); got != want {
		t.Fatalf("locked ingest lost records: %d, want %d", got, want)
	}
	if live.Generation() != serial.Generation() {
		t.Errorf("generation %d, want %d", live.Generation(), serial.Generation())
	}
	for _, m := range serial.Months() {
		a, b := live.Stats(m), serial.Stats(m)
		if b == nil || a == nil || a.N[Total] != b.N[Total] || a.N[Established] != b.N[Established] {
			t.Fatalf("month %v differs under concurrent delivery", m)
		}
	}
}

// errSink counts closes and fails on demand.
type errSink struct {
	observeErr, closeErr error
	observed, closed     int
}

func (e *errSink) Observe(*Record) error { e.observed++; return e.observeErr }
func (e *errSink) Close() error          { e.closed++; return e.closeErr }

func TestLockedSinkPropagatesErrorsAndNil(t *testing.T) {
	boom := errors.New("boom")
	inner := &errSink{observeErr: boom, closeErr: boom}
	ls := NewLockedSink(inner)
	if err := ls.Observe(&Record{}); !errors.Is(err, boom) {
		t.Errorf("observe error not propagated: %v", err)
	}
	if err := ls.Close(); !errors.Is(err, boom) {
		t.Errorf("close error not propagated: %v", err)
	}
	if inner.closed != 1 {
		t.Errorf("inner closed %d times", inner.closed)
	}
	if err := ls.Do(func(s Sink) error { return s.Observe(&Record{}) }); !errors.Is(err, boom) {
		t.Errorf("Do error not propagated: %v", err)
	}

	// A nil inner drops records instead of panicking, so optional consumers
	// can be wired unconditionally.
	empty := NewLockedSink(nil)
	if err := empty.Observe(&Record{}); err != nil {
		t.Errorf("nil-inner observe: %v", err)
	}
	if err := empty.Close(); err != nil {
		t.Errorf("nil-inner close: %v", err)
	}
}
