package notary

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"tlsage/internal/framing"
)

// LogWriter streams records to a Bro-style TSV log. It implements Sink:
// Observe appends one line, Close flushes. The line buffer is reused across
// records, so writing is allocation-free in steady state. It is the interop
// writer — simulate -out, feed without -binary — and not what a collector
// tees its intake through: serve -out appends frames (BatchWriter), which
// ReadLog reads as it reads these lines.
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

// consumeLine applies the shared per-line semantics of both log readers:
// blank and comment (#...) lines are skipped, anything else is parsed into
// rec with the error tagged by its 1-based line number. It reports whether
// rec now holds a record. line is the reader's own buffer — the log reader's
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
// malformed one delivered. Records are parsed into a reused buffer whose lists
// are the decoder's own, shared between records, so the Sink contract applies:
// the record is only valid for the duration of Observe, and read-only. The
// sink is not closed.
//
// Lines are parsed where the reader holds them (parseTSVLine over the
// window): no string is made of a line or of a field, and hellos and strings
// go through the decoder tables, so a log of repeating clients allocates per
// distinct hello and string, not per line (TestReadLogAllocsArePerStream).
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
// readBatches). They serve the lines; frames are another spelling and go
// through a table of the TLSB pool's, drawn at the log's first frame.
func readLogTail(r io.Reader, skip uint64, sink Sink, t *decodeTables) (delivered, base uint64, err error) {
	lr := newLogReader(r, t)
	defer lr.release(t)
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
	frames := 0
	sawBase := false
	var gen uint64 // absolute generation of the last record seen
	for entry := 1; ; entry++ {
		if lr.atFrame() {
			if ft == nil {
				ft = tlsbTables.Get().(*decodeTables)
				fr = ft.frameReader(lr)
			}
			version, payload, err := fr.Next()
			if err != nil {
				return delivered, base, &LineError{Line: entry, Err: fmt.Errorf("batch frame: %w", err)}
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
		line, err := lr.line()
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
		ok, err := consumeLine(&rec, line, entry, t)
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
}

// logReader hands readLogTail a log's bytes entry by entry: lines as
// bufio.ScanLines cuts them, and, through Read, the frames between them. Its
// window is the decoder table's from stream to stream.
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
// carriage return before it if any), valid until the next call. A log that
// ends without a newline ends in a line all the same, as does one a read
// error cut — the error follows the line. It returns io.EOF at the end of the
// log and bufio.ErrTooLong for a line of maxLogLine bytes or more.
func (l *logReader) line() ([]byte, error) {
	for seen := 0; ; {
		if i := bytes.IndexByte(l.buf[l.rd+seen:l.wr], '\n'); i >= 0 {
			line := l.buf[l.rd : l.rd+seen+i]
			l.rd += seen + i + 1
			return dropCR(line), nil
		}
		if l.wr-l.rd >= maxLogLine {
			return nil, bufio.ErrTooLong
		}
		if l.err != nil {
			if l.rd == l.wr {
				return nil, l.err
			}
			line := l.buf[l.rd:l.wr]
			l.rd = l.wr
			return dropCR(line), nil
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
			_, err = lr.line()
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
// returns the merged Aggregate. The byte stream is split on line boundaries
// into chunks, each worker folds its chunks into a shard of its own through a
// ShardBuilder, and the shards are combined with Aggregate.Merge — so the
// result is identical to feeding serial ReadLog into one Aggregate, for every
// worker count. workers <= 0 uses GOMAXPROCS; workers == 1 is the serial path.
// A malformed or over-long line (maxLogLine) produces the same error the
// serial reader reports, and the earliest such line wins. A non-nil
// classifier is installed on every shard and on the merged result, so
// ByClientClass fills during the parallel ingest exactly as a serial
// classified Add would. Workers parse their chunk's lines in place, each
// through decoder tables of its own. Only lines are spread over the workers:
// a frame cannot be cut, and where its neighbours start is known only by
// reading it, so from a log's first frame on the rest is read serially, into
// one more shard.
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
					// The serial reader gives up on a line it cannot buffer
					// together with its terminator; match it.
					if len(line) >= maxLogLine {
						errs[w] = shardErr{line: lineNo, err: bufio.ErrTooLong}
						aborted.Store(true)
						break
					}
					ok, err := consumeLine(&rec, dropCR(line), lineNo, t)
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
	var rest io.Reader // the log from its first frame on, once one is met
	for !aborted.Load() && rest == nil {
		n, err := io.ReadFull(r, block)
		if n > 0 {
			data := block[:n]
			if at := frameStart(carry, data); at >= 0 {
				// The lines before the frame are a last chunk; carry, when
				// at is 0, is the frame's own first bytes.
				rest = io.MultiReader(bytes.NewReader(data[at:]), r)
				if at == 0 {
					rest = io.MultiReader(bytes.NewReader(carry), rest)
					break
				}
				data = data[:at]
			}
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
	if readErr == nil && tooLong.err == nil && len(carry) > 0 && rest == nil && !aborted.Load() {
		dispatch(carry, nextLine)
	}
	close(jobs)
	var restAgg *Aggregate
	var restErr error
	if rest != nil && !aborted.Load() {
		// Entries from here on are numbered past the lines dispatched.
		shard := NewShardBuilder(newShard)
		restErr = ReadLog(rest, shard)
		var le *LineError
		if errors.As(restErr, &le) {
			le.Line += nextLine - 1
		}
		restAgg = shard.Flush()
	}
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
	if first.err == nil {
		first.err = restErr // past every line, so any of theirs is earlier
	}
	if first.err != nil {
		return nil, first.err
	}
	agg := newShard()
	for _, shard := range aggs {
		agg.Merge(shard)
	}
	if restAgg != nil {
		agg.Merge(restAgg)
	}
	return agg, nil
}

// frameStart returns where in data a log's first frame starts, given that
// carry+data runs from a line boundary and carry holds no newline: the TLSB
// magic at a line's start, looked for from carry's. -1 when there is none; 0
// also when the frame starts in carry.
func frameStart(carry, data []byte) int {
	magic := batchFormat.Magic
	if len(carry) < len(magic) {
		var head [4]byte
		n := copy(head[:], carry)
		n += copy(head[n:], data)
		if IsBatchStream(head[:n]) {
			return 0
		}
	}
	if at := bytes.Index(data, lineStartMagic); at >= 0 {
		return at + 1
	}
	return -1
}

// lineStartMagic is the frame magic where a line would start.
var lineStartMagic = []byte("\n" + batchFormat.Magic)
