package notary

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"tlsage/internal/framing"
)

// LogWriter streams records to a Bro-style TSV log. It implements Sink:
// Observe appends one line, Close flushes. The line buffer is reused across
// records, so writing is allocation-free in steady state. No command writes
// TSV — simulate -out, feed and serve -out write frames (BatchWriter), which
// ReadLog reads as it reads these lines — so it is the spelling tests and
// the benchmark's TSV workload write.
type LogWriter struct {
	w   *bufio.Writer
	buf []byte
	// keep is how much of buf the next Observe keeps before its line: the
	// header, until the first record goes out behind it.
	keep int
}

// NewLogWriter wraps w.
func NewLogWriter(w io.Writer) *LogWriter {
	return &LogWriter{w: bufio.NewWriterSize(w, 1<<16), buf: []byte(Header()), keep: len(Header())}
}

// Observe implements Sink: it appends one record (emitting the header first).
func (lw *LogWriter) Observe(r *Record) error {
	lw.buf = r.AppendTSV(lw.buf[:lw.keep])
	lw.keep = 0
	_, err := lw.w.Write(lw.buf)
	return err
}

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
// log. Every reader — ReadLog, ReadLogTail, ReadLogParallel at any worker
// count — refuses a directive that rewinds the generation, and otherwise
// delivers every record the file holds.
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

// LineError tags a malformed log entry — a line, or a frame cut short or
// failing its envelope's checks — with its 1-based number among the log's
// entries, which in a log of lines is the line number. It separates input the
// *producer* must fix (a bad line in the stream) from internal failures of
// the consuming sink — the live service maps the former to 4xx responses and
// everything else to 5xx — and is what recovery takes for a crash's torn tail.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("notary: line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// ReadLog reads a record log — what LogWriter wrote, what a collector's -out
// tee wrote, or one continued by the other — delivering each record to sink.
// A log is a sequence of entries, and at every entry boundary the next four
// bytes decide which kind follows: the TLSB magic starts a frame, read as
// ReadBatches reads one (envelope, checksum, every record refusal), and
// anything else is a line, ended by a newline or the end of the log. Comment
// lines (#...) are skipped. Reading stops at the first error: a malformed
// line, or a frame whose envelope is cut short or fails its checks, surfaces
// as a *LineError carrying the entry's 1-based number, nothing of the entry
// delivered; a frame that passes its checksum and still does not decode — no
// writer and no crash produces one — as a *BatchError, the records before the
// malformed one delivered. Only io.EOF ends a line that has no newline: any
// other read error is returned as it is (wrapped in the frame's *LineError
// when it cuts a frame), and the fragment it cut is not delivered. Records
// are parsed into one reused Record, so the Sink contract applies: the record
// is only valid for the duration of Observe. The sink is not closed.
//
// Lines are parsed where the reader holds them (parseTSVLine over the
// window): no string is made of a line or of a field, and hellos and strings
// go through the decoder tables, so a log of repeating clients allocates per
// distinct hello and string, not per line (TestReadLogAllocsArePerStream).
func ReadLog(r io.Reader, sink Sink) error {
	_, _, err := ReadLogTail(r, 0, sink)
	return err
}

// maxLogLine is the log reader's line ceiling: a line of this many bytes or
// more (terminator excluded) fails with bufio.ErrTooLong. LogWriter emits
// nothing near it; the ceiling is what keeps a newline-free input from being
// buffered whole.
const maxLogLine = 1 << 22

// ReadLogTail is ReadLog that discards every record covered by the first
// skip generations before delivering the rest — the log-replay half of
// snapshot recovery: a snapshot covering generations 1..N plus the log tail
// past N reconstructs exactly the full stream. skip counts absolute
// generations, not log entries: a #base directive (see LogBaseDirective)
// declares that the log was truncated at some generation, so record i carries
// generation base+i. Skipped lines are still parsed, so a corrupt line inside
// the covered prefix surfaces the same *LineError a full replay would; a
// frame that lies wholly inside it is held to its envelope and checksum and
// counted from its leading record count, not decoded. It returns the number of
// records delivered to sink and the first base directive seen (0 when the log
// starts at generation zero) — a base above the snapshot's generation means
// the gap is in neither source.
func ReadLogTail(r io.Reader, skip uint64, sink Sink) (delivered, base uint64, err error) {
	t := tsvTables.Get().(*decodeTables)
	defer tsvTables.Put(t)
	return readLogTail(r, skip, sink, t)
}

// readLogTail is ReadLogTail through the given decoder tables (see
// readBatches).
func readLogTail(r io.Reader, skip uint64, sink Sink, t *decodeTables) (delivered, base uint64, err error) {
	lr := newLogReader(r, t)
	defer lr.release(t)
	return readEntries(lr, skip, sink, t, logPos{entry: 1})
}

// logPos is where in a log an entry stands: its 1-based number among the
// log's entries, the 0-based index the next frame has among its frames, and
// the absolute generation of the last record before it.
type logPos struct {
	entry, frame int
	gen          uint64
}

// readEntries is ReadLogTail's entry loop over lr, started at position at: the
// one reading of a log's entries, for a whole log and for a run of one (see
// readLogParallel), so error numbering, *BatchError frame indices and the #base
// rewind check run from the entry's true position. The decoder tables t serve
// the lines; frames are another spelling and go through a table of the TLSB
// pool's, drawn at the first frame. A line is parsed where lr holds it and not
// kept: the only bytes that outlive it are the hellos and strings t copied on
// their first appearance.
func readEntries(lr *logReader, skip uint64, sink Sink, t *decodeTables, at logPos) (delivered, base uint64, err error) {
	var (
		ft *decodeTables
		fr *framing.Reader
	)
	defer func() {
		if ft != nil {
			ft.endFrames(fr)
			tlsbTables.Put(ft)
		}
	}()
	var rec Record
	frames := at.frame
	sawBase := false
	gen := at.gen // absolute generation of the last record seen
	for entry := at.entry; ; entry++ {
		if lr.atFrame() {
			if ft == nil {
				ft = tlsbTables.Get().(*decodeTables)
				fr = ft.frameReader(lr)
			}
			version, payload, err := fr.Next()
			if err != nil {
				return delivered, base, frameError(entry, err)
			}
			held, n, err := ft.decodeFrame(frames, version, payload, &rec, skip-min(skip, gen), sink)
			gen += held
			delivered += n
			if err != nil {
				return delivered, base, err
			}
			frames++
			continue
		}
		line, _, err := lr.line()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return delivered, base, err
		}
		if b, ok := parseLogBase(line); ok {
			// A directive that rewinds would re-deliver records already
			// counted; nothing writes that, so treat it as corruption and
			// keep the valid prefix like any other torn line.
			if b < gen {
				return delivered, base, &LineError{Line: entry,
					Err: fmt.Errorf("base directive rewinds generation %d to %d", gen, b)}
			}
			if !sawBase {
				base, sawBase = b, true
			}
			gen = b
			continue
		}
		if len(line) == 0 || line[0] == '#' {
			continue // blank, or a comment
		}
		if err := parseTSVLine(&rec, line, t); err != nil {
			return delivered, base, &LineError{Line: entry, Err: err}
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
}

// frameError is the *LineError of a frame entry cut short or failing its
// envelope's checks.
func frameError(entry int, err error) error {
	return &LineError{Line: entry, Err: fmt.Errorf("batch frame: %w", err)}
}

// logReader hands the entry loop a log's bytes entry by entry: lines as
// bufio.ScanLines cuts them, and, through Read, the frames between them. Its
// window is the decoder table's from stream to stream; a parallel worker's
// logReader has a run of entries for its window, and no src.
type logReader struct {
	src    io.Reader
	buf    []byte // the window at full length; buf[rd:wr] is read and not yet consumed
	rd, wr int
	read   int64 // bytes src has given
	err    error // what src stopped with, io.EOF included
}

func newLogReader(src io.Reader, t *decodeTables) *logReader {
	if t.line == nil {
		t.line = make([]byte, 0, 1<<16)
	}
	return &logReader{src: src, buf: t.line[:cap(t.line)]}
}

// release gives t the window for its next stream, unless a long line or a
// hostile one grew it past what a pooled table may keep.
func (l *logReader) release(t *decodeTables) {
	if cap(l.buf) <= maxKeptBuffer {
		t.line = l.buf[:0]
	}
}

// fill reads more of src behind the unconsumed bytes, first moving them to the
// window's start, and doubling a window they fill, up to maxLogLine.
func (l *logReader) fill() {
	if l.rd > 0 {
		l.wr = copy(l.buf, l.buf[l.rd:l.wr])
		l.rd = 0
	}
	if l.wr == len(l.buf) {
		l.buf = append(make([]byte, 0, min(2*len(l.buf), maxLogLine)), l.buf...)
		l.buf = l.buf[:cap(l.buf)]
	}
	for range 100 { // bufio's patience with a reader that returns nothing
		n, err := l.src.Read(l.buf[l.wr:])
		l.wr += n
		l.read += int64(n)
		if l.err = err; n > 0 || err != nil {
			return
		}
	}
	l.err = io.ErrNoProgress
}

// atFrame reports, at an entry boundary, whether the next entry is a frame:
// whether the log goes on with the TLSB magic.
func (l *logReader) atFrame() bool {
	for l.wr-l.rd < len(batchFormat.Magic) && l.err == nil {
		l.fill()
	}
	return IsBatchStream(l.buf[l.rd:l.wr])
}

// Read serves a frame's bytes to the frame reader: what the window holds,
// then src itself, so a frame is not copied through the window.
func (l *logReader) Read(p []byte) (int, error) {
	if l.rd < l.wr {
		n := copy(p, l.buf[l.rd:l.wr])
		l.rd += n
		return n, nil
	}
	if l.err != nil {
		return 0, l.err
	}
	n, err := l.src.Read(p)
	l.read += int64(n)
	l.err = err
	return n, err
}

// line returns the next line without its terminator (a newline, with the
// carriage return before it if any), and raw, the line as the log holds it,
// terminator included; both are valid until the next call. A log that ends
// without a newline ends in a line all the same, but only at io.EOF: a
// fragment any other error cut is not a line, and that error is returned in
// its place. It returns io.EOF at the end of the log and bufio.ErrTooLong for
// a line of maxLogLine bytes or more.
func (l *logReader) line() (line, raw []byte, err error) {
	for seen := 0; ; {
		if i := bytes.IndexByte(l.buf[l.rd+seen:l.wr], '\n'); i >= 0 {
			raw = l.buf[l.rd : l.rd+seen+i+1]
			l.rd += len(raw)
			return dropCR(raw[:len(raw)-1]), raw, nil
		}
		if l.wr-l.rd >= maxLogLine {
			return nil, nil, bufio.ErrTooLong
		}
		if l.err != nil {
			if l.rd == l.wr || l.err != io.EOF {
				return nil, nil, l.err
			}
			raw = l.buf[l.rd:l.wr]
			l.rd = l.wr
			return dropCR(raw), raw, nil
		}
		seen = l.wr - l.rd
		l.fill()
	}
}

// LogEntryOffset returns the byte offset at which entry number entry of the
// log starts, entries cut and numbered (from 1) the way ReadLog does — the
// number a *LineError carries. Frames on the way are held to their envelope
// and checksum; lines are not parsed.
func LogEntryOffset(r io.Reader, entry int) (int64, error) {
	if entry < 1 {
		return 0, fmt.Errorf("notary: log entries are numbered from 1, not %d", entry)
	}
	lr := &logReader{src: r, buf: make([]byte, 1<<16)}
	fr := batchFormat.NewReader(lr)
	for e := 1; e < entry; e++ {
		var err error
		if lr.atFrame() {
			_, _, err = fr.Next()
		} else {
			_, _, err = lr.line()
		}
		if err != nil {
			return 0, fmt.Errorf("notary: log entry %d of %d sought: %w", e, entry, err)
		}
	}
	return lr.read - int64(lr.wr-lr.rd), nil
}

func dropCR(line []byte) []byte {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		return line[:len(line)-1]
	}
	return line
}

// defaultChunkSize is the byte granularity of sharded log ingestion: big
// enough to amortize dispatch, small enough to keep every worker busy on
// month-scale logs.
const defaultChunkSize = 1 << 20

// ReadLogParallel reads a record log (see ReadLog) on a pool of workers and
// returns the merged Aggregate. One goroutine cuts the log into runs of whole
// entries — lines and frames alike, through the reader ReadLog uses — and each
// worker reads its runs with ReadLog's own entry loop, started at the run's
// entry number, frame index and generation, folding them into a shard of its
// own through a ShardBuilder; the shards are combined with Aggregate.Merge. So
// the result is identical to feeding serial ReadLog into one Aggregate, and
// any error is the one serial ReadLog stops with, for every worker count.
// workers <= 0 uses GOMAXPROCS; workers == 1 is the serial path. A non-nil
// classifier is installed on every shard and on the merged result, so
// ByClientClass fills during the parallel ingest exactly as a serial
// classified Add would.
func ReadLogParallel(r io.Reader, workers int, classifier Classifier) (*Aggregate, error) {
	return readLogParallel(r, workers, defaultChunkSize, classifier)
}

// logRun is a run of whole entries of a log, byte for byte as the log holds
// them, and the position its first entry stands at; seq numbers the runs in
// log order.
type logRun struct {
	data []byte
	at   logPos
	seq  int
}

// readLogParallel is ReadLogParallel with the run size exposed, so tests can
// sweep run boundaries across every record offset.
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

	type runErr struct {
		seq int
		err error
	}
	free := sync.Pool{New: func() any {
		b := make([]byte, 0, chunkSize+chunkSize/8) // room for the entry that ends a run
		return &b
	}}
	runs := make(chan logRun, workers) // a run queued per worker: the cutter reads ahead
	aggs := make([]*Aggregate, workers)
	errs := make([]runErr, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := NewShardBuilder(newShard)
			t := tsvTables.Get().(*decodeTables)
			defer tsvTables.Put(t)
			for run := range runs {
				// A worker's runs come in log order, so its first error is
				// its earliest; the runs cut are a prefix of the log, so the
				// earliest run's error is the one ReadLog stops at.
				if errs[w].err == nil {
					lr := &logReader{buf: run.data, wr: len(run.data), err: io.EOF}
					if _, _, err := readEntries(lr, 0, shard, t, run.at); err != nil {
						errs[w] = runErr{run.seq, err}
						stop.Store(true)
					}
				}
				data := run.data[:0]
				free.Put(&data)
			}
			aggs[w] = shard.Flush()
		}()
	}
	// The cutter's error lies past every run it sent, so any run's is earlier.
	first := runErr{seq: math.MaxInt, err: cutLog(r, chunkSize, runs, &free, &stop)}
	close(runs)
	wg.Wait()
	for _, e := range errs {
		if e.err != nil && e.seq < first.seq {
			first = e
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

// cutLog reads r entry by entry, by ReadLog's rule and through its reader, and
// sends the log to runs in runs of whole entries, each of at least chunkSize
// bytes but the last: a frame is held to its envelope and checksum and sent
// whole, a line with its terminator. Each run carries the position of its first
// entry, its generation counted as readEntries counts one: a frame adds its
// leading record count, a #base directive sets it, and any other line that is
// neither blank nor a comment adds one. cutLog's own error — a frame cut short
// or failing its checks, an over-long line, a read error — lies past every run
// it sent, the partial last one included; once stop is set it stops cutting,
// without one. Run buffers come from free.
func cutLog(r io.Reader, chunkSize int, runs chan<- logRun, free *sync.Pool, stop *atomic.Bool) error {
	t := tsvTables.Get().(*decodeTables)
	defer tsvTables.Put(t)
	lr := newLogReader(r, t)
	defer lr.release(t)
	fr := batchFormat.NewReader(lr)
	at := logPos{entry: 1}
	run := logRun{data: (*free.Get().(*[]byte))[:0], at: at}
	defer func() {
		if len(run.data) > 0 {
			runs <- run
		}
	}()
	for !stop.Load() {
		if lr.atFrame() {
			_, payload, err := fr.Next()
			if err != nil {
				return frameError(at.entry, err)
			}
			run.data = fr.AppendFrame(run.data)
			held, _ := binary.Uvarint(payload) // a count that is wrong fails the frame's run
			at.frame++
			at.gen += held
		} else {
			line, raw, err := lr.line()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			run.data = append(run.data, raw...)
			if b, ok := parseLogBase(line); ok {
				at.gen = b
			} else if len(line) > 0 && line[0] != '#' {
				at.gen++
			}
		}
		at.entry++
		if len(run.data) >= chunkSize {
			runs <- run
			run = logRun{data: (*free.Get().(*[]byte))[:0], at: at, seq: run.seq + 1}
		}
	}
	return nil
}
