package notary

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// LogWriter streams records to a Bro-style TSV log. It implements Sink:
// Observe appends one line, Close flushes. The line buffer is reused across
// records, so writing is allocation-free in steady state.
type LogWriter struct {
	w       *bufio.Writer
	buf     []byte
	wroteHd bool
}

// NewLogWriter wraps w.
func NewLogWriter(w io.Writer) *LogWriter {
	return &LogWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one record (emitting the header first).
func (lw *LogWriter) Write(r *Record) error {
	if !lw.wroteHd {
		if _, err := lw.w.WriteString(Header()); err != nil {
			return err
		}
		lw.wroteHd = true
	}
	lw.buf = r.AppendTSV(lw.buf[:0])
	_, err := lw.w.Write(lw.buf)
	return err
}

// Observe implements Sink.
func (lw *LogWriter) Observe(r *Record) error { return lw.Write(r) }

// Close implements Sink by flushing the underlying buffer.
func (lw *LogWriter) Close() error { return lw.Flush() }

// Flush flushes the underlying buffer.
func (lw *LogWriter) Flush() error { return lw.w.Flush() }

// logBasePrefix starts a base directive: a comment line recording the
// absolute generation the log resumes at. A log that is truncated after its
// records were compacted into a snapshot no longer starts at generation
// zero, so without the directive a later recovery would misalign the
// snapshot's record count against the log's line count.
const logBasePrefix = "#base "

// LogBaseDirective returns the comment line declaring that the next record
// in the log carries absolute generation gen+1. serve writes it when it
// truncates the -out log after compacting recovered state into a snapshot;
// ReadLogTail honors it when aligning a snapshot's record count against the
// log. Readers that ignore comments (a plain ReadLog replay, the parallel
// loader) see every record the file actually holds.
func LogBaseDirective(gen uint64) string {
	return fmt.Sprintf("%s%d\n", logBasePrefix, gen)
}

// parseLogBase recognizes a base directive line.
func parseLogBase(line []byte) (uint64, bool) {
	if len(line) < len(logBasePrefix) || string(line[:len(logBasePrefix)]) != logBasePrefix {
		return 0, false
	}
	gen, err := strconv.ParseUint(string(bytes.TrimSpace(line[len(logBasePrefix):])), 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// LineError tags a malformed log line with its 1-based line number. It
// separates input the *producer* must fix (a bad line in the stream) from
// internal failures of the consuming sink — the live service maps the former
// to 4xx responses and everything else to 5xx.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("notary: line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// consumeLine applies the shared per-line semantics of both log readers:
// blank and comment (#...) lines are skipped, anything else is parsed into
// rec with the error tagged by its 1-based line number. It reports whether
// rec now holds a record. line is the reader's own buffer — the scanner's
// window or a slice of the chunk — and is not kept: the only bytes that
// outlive the call are the hellos and strings t copied on their first
// appearance.
func consumeLine(rec *Record, line []byte, lineNo int, t *decodeTables) (bool, error) {
	if len(line) == 0 || line[0] == '#' {
		return false, nil
	}
	if err := parseTSVLine(rec, line, t); err != nil {
		return false, &LineError{Line: lineNo, Err: err}
	}
	return true, nil
}

// ReadLog parses a log written by LogWriter, delivering each record to
// sink. Comment lines (#...) are skipped. Parsing stops at the first error;
// malformed lines surface as *LineError. Records are parsed into a reused
// buffer whose lists are the decoder's own, shared between records, so the
// Sink contract applies: the record is only valid for the duration of
// Observe, and read-only. The sink is not closed.
//
// Lines are parsed where the scanner holds them (parseTSVLine over
// Scanner.Bytes): no string is made of a line or of a field, and hellos and
// strings go through the decoder tables, so a log of repeating clients
// allocates per distinct hello and string, not per line
// (TestReadLogAllocsArePerStream).
func ReadLog(r io.Reader, sink Sink) error {
	_, _, err := ReadLogTail(r, 0, sink)
	return err
}

// maxLogLine is the line ceiling both log readers share: a line of this many
// bytes or more (terminator excluded) fails with bufio.ErrTooLong. LogWriter
// emits nothing near it; the ceiling is what keeps a newline-free input from
// being buffered whole.
const maxLogLine = 1 << 22

// ReadLogTail is ReadLog that discards every record covered by the first
// skip generations before delivering the rest — the log-replay half of
// snapshot recovery: a snapshot covering generations 1..N plus the log tail
// past N reconstructs exactly the full stream. skip counts absolute
// generations, not log lines: a #base directive (see LogBaseDirective)
// declares that the log was truncated at some generation, so line i carries
// generation base+i. Skipped records are still parsed, so a corrupt line
// inside the covered prefix surfaces the same *LineError a full replay
// would. It returns the number of records delivered to sink and the first
// base directive seen (0 when the log starts at generation zero) — a base
// above the snapshot's generation means the gap is in neither source.
func ReadLogTail(r io.Reader, skip uint64, sink Sink) (delivered, base uint64, err error) {
	t := tsvTables.Get().(*decodeTables)
	defer tsvTables.Put(t)
	return readLogTail(r, skip, sink, t)
}

// readLogTail is ReadLogTail through the given decoder tables (see
// readBatches).
func readLogTail(r io.Reader, skip uint64, sink Sink, t *decodeTables) (delivered, base uint64, err error) {
	sc := bufio.NewScanner(r)
	if t.line == nil {
		t.line = make([]byte, 0, 1<<16)
	}
	sc.Buffer(t.line, maxLogLine) // a longer line grows a buffer of the scanner's own
	var rec Record
	lineNo := 0
	sawBase := false
	var gen uint64 // absolute generation of the last record line seen
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if b, ok := parseLogBase(line); ok {
			// A directive that rewinds would re-deliver records already
			// counted; nothing writes that, so treat it as corruption and
			// keep the valid prefix like any other torn line.
			if b < gen {
				return delivered, base, &LineError{Line: lineNo,
					Err: fmt.Errorf("base directive rewinds generation %d to %d", gen, b)}
			}
			if !sawBase {
				base, sawBase = b, true
			}
			gen = b
			continue
		}
		ok, err := consumeLine(&rec, line, lineNo, t)
		if err != nil {
			return delivered, base, err
		}
		if !ok {
			continue
		}
		gen++
		if gen <= skip {
			continue
		}
		if err := sink.Observe(&rec); err != nil {
			return delivered, base, err
		}
		delivered++
	}
	return delivered, base, sc.Err()
}

// defaultChunkSize is the byte granularity of sharded log ingestion: big
// enough to amortize dispatch, small enough to keep every worker busy on
// month-scale logs.
const defaultChunkSize = 1 << 20

// ReadLogParallel parses a log written by LogWriter on a pool of workers
// and returns the merged Aggregate. The byte stream is split on line
// boundaries into chunks, each worker folds its chunks into a shard of its
// own through a ShardBuilder, and the shards are combined with
// Aggregate.Merge — so the result is identical to feeding serial ReadLog
// into one Aggregate, for every worker count. workers <= 0 uses GOMAXPROCS;
// workers == 1 is the serial path.
// A malformed or over-long line (maxLogLine) produces the same error the
// serial reader reports, and the earliest such line wins. A non-nil
// classifier is installed on every shard and on the merged result, so
// ByClientClass fills during the parallel ingest exactly as a serial
// classified Add would. Workers parse their chunk's lines in place, each
// through decoder tables of its own.
func ReadLogParallel(r io.Reader, workers int, classifier Classifier) (*Aggregate, error) {
	return readLogParallel(r, workers, defaultChunkSize, classifier)
}

// readLogParallel is ReadLogParallel with the chunk size exposed, so tests
// can sweep chunk boundaries across every record offset.
func readLogParallel(r io.Reader, workers, chunkSize int, classifier Classifier) (*Aggregate, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	newShard := func() *Aggregate {
		agg := NewAggregate()
		agg.SetClassifier(classifier)
		return agg
	}
	if workers == 1 {
		shard := NewShardBuilder(newShard)
		if err := ReadLog(r, shard); err != nil {
			return nil, err
		}
		return shard.Flush(), nil
	}
	if chunkSize < 1 {
		chunkSize = 1
	}

	type chunk struct {
		data      []byte
		firstLine int // 1-based global line number of the chunk's first line
	}
	type shardErr struct {
		line int
		err  error
	}

	bufPool := sync.Pool{New: func() any {
		b := make([]byte, 0, chunkSize+4096)
		return &b
	}}
	jobs := make(chan chunk, workers)
	aggs := make([]*Aggregate, workers)
	errs := make([]shardErr, workers)
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := NewShardBuilder(newShard)
			defer func() { aggs[w] = shard.Flush() }()
			var rec Record
			t := tsvTables.Get().(*decodeTables)
			defer tsvTables.Put(t)
			for c := range jobs {
				// A worker keeps only its first error: its chunks arrive in
				// file order, so later ones cannot lower the error line. Other
				// workers still parse their dispatched chunks in full — the
				// dispatched chunks are a prefix of the file, so the minimum
				// error line across shards is exactly the line serial ReadLog
				// would have stopped at.
				if errs[w].err != nil {
					continue
				}
				lineNo := c.firstLine
				rest := c.data
				for len(rest) > 0 {
					var line []byte
					if i := bytes.IndexByte(rest, '\n'); i >= 0 {
						line, rest = rest[:i], rest[i+1:]
					} else {
						line, rest = rest, nil
					}
					// The serial scanner gives up on a line it cannot buffer
					// together with its terminator; match it.
					if len(line) >= maxLogLine {
						errs[w] = shardErr{line: lineNo, err: bufio.ErrTooLong}
						aborted.Store(true)
						break
					}
					// bufio.ScanLines strips a trailing \r; match it.
					if len(line) > 0 && line[len(line)-1] == '\r' {
						line = line[:len(line)-1]
					}
					ok, err := consumeLine(&rec, line, lineNo, t)
					if err != nil {
						errs[w] = shardErr{line: lineNo, err: err}
						aborted.Store(true)
						break
					}
					if ok {
						shard.Add(&rec)
					}
					lineNo++
				}
				data := c.data[:0]
				bufPool.Put(&data)
			}
		}(w)
	}

	// Chunker: read fixed-size blocks, cut at the last newline, and carry
	// the trailing partial line into the next chunk — up to the line ceiling,
	// so carry never holds more than maxLogLine plus one block.
	var readErr error
	var tooLong shardErr
	block := make([]byte, chunkSize)
	var carry []byte
	nextLine := 1
	dispatch := func(data []byte, firstLine int) {
		jobs <- chunk{data: data, firstLine: firstLine}
	}
	for !aborted.Load() {
		n, err := io.ReadFull(r, block)
		if n > 0 {
			data := block[:n]
			cut := bytes.LastIndexByte(data, '\n')
			if cut < 0 {
				carry = append(carry, data...)
			} else {
				bp := bufPool.Get().(*[]byte)
				buf := append((*bp)[:0], carry...)
				buf = append(buf, data[:cut+1]...)
				carry = append(carry[:0], data[cut+1:]...)
				first := nextLine
				nextLine += bytes.Count(buf, []byte{'\n'})
				dispatch(buf, first)
			}
			if len(carry) >= maxLogLine {
				tooLong = shardErr{line: nextLine, err: bufio.ErrTooLong}
				break
			}
		}
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				readErr = err
			}
			break
		}
	}
	if readErr == nil && tooLong.err == nil && len(carry) > 0 && !aborted.Load() {
		dispatch(carry, nextLine)
	}
	close(jobs)
	wg.Wait()

	if readErr != nil {
		return nil, readErr
	}
	first := tooLong // past every dispatched line, so any shard's error is earlier
	for _, se := range errs {
		if se.err != nil && (first.err == nil || se.line < first.line) {
			first = se
		}
	}
	if first.err != nil {
		return nil, first.err
	}
	agg := newShard()
	for _, shard := range aggs {
		agg.Merge(shard)
	}
	return agg, nil
}
