package notary

// Sink consumes a stream of connection records. It is the attachment point
// of the record pipeline: the simulator, the log reader and any future
// network ingest all deliver into a Sink instead of an ad-hoc callback.
//
// Observe is called once per record, always from a single goroutine per
// sink instance. The record is only valid for the duration of the call —
// producers refill the one they hand over for the next record — so a sink
// that retains it beyond the call copies it (Record.Clone, a struct copy).
// The record's offered side is a hello row (see hello.go): immutable, shared
// with every other record of the same hello, and safe to keep. Close flushes
// whatever the sink buffers; producers do not call it, the owner of the sink
// does.
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
