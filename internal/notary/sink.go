package notary

import "sync"

// Sink consumes a stream of connection records. It is the attachment point
// of the record pipeline: the simulator, the log reader and any future
// network ingest all deliver into a Sink instead of an ad-hoc callback.
//
// Observe is called once per record, always from a single goroutine per
// sink instance. The record is only valid for the duration of the call —
// producers lease records from a shared pool and reclaim them as soon as
// Observe returns — so a sink that retains data beyond the call must copy
// it explicitly (Record.Clone, or per-field copies as Aggregate.Add does).
// The record's five client lists are read-only during the call: a record
// from ReadLog or ReadBatches shares them with every other record of the
// same hello (see hello.go), so a sink that wants to change one replaces the
// slice — Add then folds the record from the lists it has — and never writes
// through it. Close flushes whatever the sink buffers; producers do not call
// it, the owner of the sink does.
type Sink interface {
	Observe(*Record) error
	Close() error
}

// SinkFunc adapts a function to the Sink interface with a no-op Close.
type SinkFunc func(*Record) error

// Observe invokes the function.
func (f SinkFunc) Observe(r *Record) error { return f(r) }

// Close is a no-op.
func (f SinkFunc) Close() error { return nil }

// multiSink fans every record out to several sinks in order.
type multiSink struct {
	sinks []Sink
}

// Tee returns a composite sink that delivers every record to each of the
// given sinks in order (e.g. a live Aggregate plus a LogWriter plus a
// network forwarder). Observe stops at the first sink error; Close closes
// every sink and reports the first error.
func Tee(sinks ...Sink) Sink {
	flat := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if m, ok := s.(*multiSink); ok {
			flat = append(flat, m.sinks...)
			continue
		}
		flat = append(flat, s)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &multiSink{sinks: flat}
}

// Observe delivers r to every sink, stopping at the first error.
func (m *multiSink) Observe(r *Record) error {
	for _, s := range m.sinks {
		if err := s.Observe(r); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every sink, returning the first error.
func (m *multiSink) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// recordPool recycles Records (and the five client-side slices each one
// carries) across connections. At study scale the simulator emits millions
// of records whose allocations otherwise dominate the profile.
var recordPool = sync.Pool{New: func() any { return new(Record) }}

// LeaseRecord returns a clean Record from the shared pool. The caller owns
// it until it hands it to ReleaseRecord; the five client-side slices keep
// their capacity across the pool round-trip, so a leased record is filled
// without fresh slice allocations in steady state.
func LeaseRecord() *Record {
	return recordPool.Get().(*Record)
}

// ReleaseRecord resets r and returns it to the pool. The caller must not
// touch r afterwards. Releasing nil is a no-op.
func ReleaseRecord(r *Record) {
	if r == nil {
		return
	}
	r.Reset()
	recordPool.Put(r)
}
