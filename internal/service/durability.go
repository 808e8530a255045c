// Durability: crash-safe snapshots of the live aggregate plus restart
// recovery. The snapshot codec (internal/notary) gives the aggregate a
// versioned, checksummed on-disk form; this file adds the operational half —
// atomic writes (tmp + fsync + rename), periodic snapshotting, retention,
// and startup recovery that loads the newest intact snapshot and replays
// only the record log's tail past its record count. A notary that loses its
// aggregate on restart breaks the paper's multi-year collection; with this
// in place a crash costs no acknowledged record. The merge loop writes each
// shard to the log — one frame, one write — before the shard merges, and a
// stream is acknowledged after its shards merged, so an acknowledged record
// is in the kernel: a SIGKILL takes only streams still in flight, whose
// feeders have no reply and send them again. (The log is not fsynced: the
// guarantee is against the process dying, not the machine.) The log holds
// exactly the merged shards, in merge order, so a snapshot at generation G
// plus the log's records past G is exactly the merged state.
//
// The log (serve -out) is a sequence of entries, read by notary.ReadLog: TLSB
// frames, one per merged shard (up to DefaultFlushEvery records), which is
// what this build appends; TSV lines, which is what builds before it wrote
// and what a log they started still begins with; and #base directives. A
// frame the crash cut short is a torn entry exactly as a cut line is.

package service

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlsage/internal/core"
	"tlsage/internal/notary"
)

// snapshot file naming: snap-<generation, zero-padded>.tlsnap, so lexical
// and numeric order agree and the newest snapshot is the last name.
const (
	snapshotPrefix = "snap-"
	snapshotSuffix = ".tlsnap"
	snapshotTmpPat = "snap-*.tmp"
)

// The snapshot cadence `tlstrend serve` runs at: a snapshot after
// DefaultSnapshotEvery new records or every DefaultSnapshotInterval when
// records arrived, keeping DefaultSnapshotKeep of them — the newest plus two
// fallbacks for torn/corrupt recovery.
const (
	DefaultSnapshotEvery    = 50000
	DefaultSnapshotInterval = 30 * time.Second
	DefaultSnapshotKeep     = 3
)

// DurabilityOptions configures the snapshot manager attached with
// WithDurability.
type DurabilityOptions struct {
	// Dir is the snapshot directory (created if missing). Empty disables
	// durability.
	Dir string
	// EveryRecords snapshots after this many new records reach the
	// aggregate, checked at ingest flush boundaries. 0 disables the
	// record-count trigger.
	EveryRecords uint64
	// Interval snapshots on a timer whenever the generation has moved.
	// 0 disables the timer.
	Interval time.Duration
	// Logf receives snapshot-failure warnings. It is required: a caller
	// that wants them dropped passes a func that drops them.
	Logf func(format string, args ...any)
}

// snapshotName returns the file name for a snapshot at gen.
func snapshotName(gen uint64) string {
	return fmt.Sprintf("%s%020d%s", snapshotPrefix, gen, snapshotSuffix)
}

// parseSnapshotName extracts the generation from a snapshot file name.
func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[len(snapshotPrefix):len(name)-len(snapshotSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// listSnapshots returns the snapshot files in dir, newest (highest
// generation) first. A missing directory yields an empty list.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir) // sorted by name, which snapshotName makes oldest first
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if _, ok := parseSnapshotName(e.Name()); ok && !e.IsDir() {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	slices.Reverse(out)
	return out, nil
}

// WriteStudySnapshot atomically writes one snapshot of the study into dir
// (notary.ReplaceFile: encode to a temp file, fsync, rename into place, fsync
// the directory), then prunes snapshots beyond keep (<= 0 means
// DefaultSnapshotKeep). A reader can never observe a torn file under the
// final name. It returns the snapshot path and the generation it captured.
func WriteStudySnapshot(dir string, study *core.Study, keep int) (string, uint64, error) {
	var gen uint64
	err := notary.ReplaceFile(dir, snapshotTmpPat, func(w io.Writer) (name string, err error) {
		gen, err = study.WriteSnapshot(w)
		return snapshotName(gen), err
	})
	if err != nil {
		return "", 0, err
	}
	if keep <= 0 {
		keep = DefaultSnapshotKeep
	}
	if snaps, err := listSnapshots(dir); err == nil {
		for _, old := range snaps[min(keep, len(snaps)):] {
			_ = os.Remove(old)
		}
	}
	return filepath.Join(dir, snapshotName(gen)), gen, nil
}

// RecoveryInfo reports what RecoverStudy reconstructed.
type RecoveryInfo struct {
	// SnapshotPath is the snapshot that loaded cleanly ("" when recovery
	// fell back to a full log replay or an empty study).
	SnapshotPath string
	// SnapshotRecords is the record count the snapshot covered.
	SnapshotRecords uint64
	// ReplayedRecords counts log-tail records applied on top.
	ReplayedRecords uint64
	// LogBase is the generation the log's first #base directive declares it
	// was truncated at (0 when the log starts at generation zero). A base
	// above SnapshotRecords means generations SnapshotRecords+1..LogBase are
	// in neither source.
	LogBase uint64
	// TornLine is the 1-based log entry — a line, or a frame — replay stopped
	// at because it was malformed or cut short (0 = the whole log parsed).
	// Everything from this entry on is not reflected in the recovered study.
	TornLine int
	// CorruptSnapshots counts snapshot files skipped for failing their
	// checksum or decode (torn writes, flipped bits).
	CorruptSnapshots int
	// LogTruncated reports that the log ended in a torn entry (the usual
	// signature of a crash mid-write); the valid prefix was kept.
	LogTruncated bool
}

// Records is the total record count recovered.
func (ri RecoveryInfo) Records() uint64 { return ri.SnapshotRecords + ri.ReplayedRecords }

// RecoverStudy rebuilds a live study after a restart: it loads the newest
// snapshot in dir that passes its checksum — torn or corrupted files are
// skipped with a logged warning, never a crash — then replays only the log's
// tail past the snapshot's record count. Either source may be absent: no
// usable snapshot degrades to a full log replay, no log to the bare
// snapshot, neither to an empty study. A torn final log entry (crash
// mid-write: a cut line, a cut frame) is dropped with a warning and the valid
// prefix kept; a frame that passes its checksum and does not decode is no
// crash's doing and fails the recovery. Leftover .tmp files from interrupted
// snapshot writes are removed. logf receives the warnings and is required.
func RecoverStudy(dir, logPath string, logf func(format string, args ...any)) (*core.Study, RecoveryInfo, error) {
	var info RecoveryInfo
	var agg *notary.Aggregate
	if dir != "" {
		snaps, err := listSnapshots(dir)
		if err != nil {
			return nil, info, fmt.Errorf("service: listing snapshots in %s: %w", dir, err)
		}
		for _, path := range snaps {
			a, err := readSnapshotFile(path)
			if err != nil {
				info.CorruptSnapshots++
				logf("service: skipping unusable snapshot %s: %v", path, err)
				continue
			}
			agg = a
			info.SnapshotPath = path
			info.SnapshotRecords = a.Generation()
			break
		}
		// Interrupted snapshot writes leave temp files behind; they were
		// never visible to recovery, so clear them out.
		if tmps, err := filepath.Glob(filepath.Join(dir, snapshotTmpPat)); err == nil {
			for _, t := range tmps {
				_ = os.Remove(t)
			}
		}
	}
	var study *core.Study
	if agg != nil {
		study = core.NewStudyFromAggregate(agg)
	} else {
		study = core.NewLiveStudy()
	}
	if logPath != "" {
		// The tail folds into a shard of the study's, merged straight into its
		// aggregate: nothing has read the study, so its first read builds the
		// frame whole. A torn tail's valid prefix is in the shard.
		tail := notary.NewShardBuilder(study.NewShard)
		n, base, torn, err := replayLogTail(logPath, info.SnapshotRecords, tail)
		if err != nil {
			// A frame that passed its checksum is not a torn tail and is not
			// trimmed: say what an operator can do about it.
			hint := ""
			if undecodable := (*notary.BatchError)(nil); errors.As(err, &undecodable) {
				hint = " (no crash writes such a frame; move the log aside to start from the snapshots alone)"
			}
			return nil, info, fmt.Errorf("service: replaying %s: %w%s", logPath, err, hint)
		}
		study.Aggregate().Merge(tail.Flush())
		info.ReplayedRecords, info.LogBase = n, base
		if torn != nil {
			info.LogTruncated, info.TornLine = true, torn.Line
			logf("service: log %s: dropping torn tail from entry %d (%v); %d replayed records kept",
				logPath, torn.Line, torn.Err, n)
		}
		if base > info.SnapshotRecords {
			logf("service: log %s resumes at generation %d but the best snapshot covers %d; records %d..%d are unrecoverable",
				logPath, base, info.SnapshotRecords, info.SnapshotRecords+1, base)
		}
	}
	return study, info, nil
}

// replayLogTail delivers the records of the log at path past generation skip
// to sink (notary.ReadLogTail). A missing log delivers nothing. A malformed
// line or a cut frame — the torn tail a crash mid-write leaves — ends the
// replay with everything before it delivered, and is returned as torn rather
// than err.
func replayLogTail(path string, skip uint64, sink notary.Sink) (delivered, base uint64, torn *notary.LineError, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil, nil
	}
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	delivered, base, err = notary.ReadLogTail(f, skip, sink)
	if errors.As(err, &torn) {
		err = nil
	}
	return delivered, base, torn, err
}

// OpenIngestLog opens the serve -out log for writing, consistently with the
// state RecoverStudy just rebuilt (gen is the recovered study's generation,
// tornLine the RecoveryInfo.TornLine it reported: the 1-based entry, a line
// or a frame, that recovery dropped with everything after it).
//
// restart says nothing but the log still needs the records it holds: the
// recovered state was compacted into a fresh snapshot (and, on an edge, all
// of it has shipped). The log is then truncated and restarted with a #base
// directive recording the generation it resumes at — the next recovery
// aligns the snapshot's record count against base instead of assuming the
// log starts at generation zero. Otherwise the log is the only durable copy
// of what recovery just replayed, so truncating it would demote durable
// records to memory-only; instead the torn tail (if any) is trimmed off and
// the log is opened in append mode, on a line boundary: a crash can cut a
// TSV line inside its last field, where what is left still reads as a record
// and is not torn, and the frame appended next must not be read as the rest
// of that line. (After a frame the newline is a blank line, which every
// reader skips.) Appending fresh records after a torn entry would fuse them
// into one malformed entry and poison the next replay; after the trim the
// file holds exactly the records recovery kept.
func OpenIngestLog(path string, gen uint64, restart bool, tornLine int) (*os.File, error) {
	if !restart && gen > 0 {
		// Reads start at offset 0; with O_APPEND every write goes to the end,
		// wherever the trim leaves it.
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		if err := endAtLastEntry(f, tornLine); err != nil {
			f.Close()
			return nil, fmt.Errorf("service: reopening %s at generation %d after its last whole entry: %w", path, gen, err)
		}
		return f, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if gen > 0 {
		if _, err := f.WriteString(notary.LogBaseDirective(gen)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// endAtLastEntry truncates the log f where its 1-based entry torn begins (0:
// no entry is torn), then appends a newline if what is left does not end in
// one.
func endAtLastEntry(f *os.File, torn int) error {
	if torn > 0 {
		off, err := notary.LogEntryOffset(f, torn)
		if err == nil {
			err = f.Truncate(off)
		}
		if err != nil {
			return err
		}
	}
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.WriteString("\n")
	return err
}

// readSnapshotFile decodes one snapshot file.
func readSnapshotFile(path string) (*notary.Aggregate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return notary.ReadSnapshot(f)
}

// snapshotManager drives periodic snapshots of a served study: a
// record-count trigger checked synchronously at ingest flush boundaries, an
// optional wall-clock ticker, and a final snapshot on Close (the SIGTERM
// path). Writes are serialized; the flush-boundary check uses TryLock so
// ingest streams never queue behind an in-progress snapshot.
type snapshotManager struct {
	study *core.Study
	opts  DurabilityOptions

	mu      sync.Mutex    // serializes snapshot writes
	lastGen atomic.Uint64 // generation of the newest on-disk snapshot
	lastAt  atomic.Int64  // unix nanos of the last successful write (0 = none this process)
	written atomic.Uint64 // successful writes this process
	errs    atomic.Uint64 // failed writes this process

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newSnapshotManager(study *core.Study, opts DurabilityOptions) *snapshotManager {
	m := &snapshotManager{
		study: study,
		opts:  opts,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	// Seed the record-count trigger from what is already durable, so a
	// recovered-and-recompacted study does not immediately re-snapshot.
	if snaps, err := listSnapshots(opts.Dir); err == nil && len(snaps) > 0 {
		if gen, ok := parseSnapshotName(filepath.Base(snaps[0])); ok {
			m.lastGen.Store(gen)
		}
	}
	go m.run()
	return m
}

// run is the timer loop; the record-count trigger arrives via noteProgress
// on the ingest goroutines instead.
func (m *snapshotManager) run() {
	defer close(m.done)
	if m.opts.Interval <= 0 {
		<-m.stop
		return
	}
	t := time.NewTicker(m.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.mu.Lock()
			m.snapshotLocked()
			m.mu.Unlock()
		}
	}
}

// noteProgress is the flush-boundary hook: snapshot if EveryRecords new
// records have accrued since the last snapshot. Contention is shed rather
// than queued — if another snapshot is in flight this flush simply skips,
// and a later flush re-checks.
func (m *snapshotManager) noteProgress() {
	every := m.opts.EveryRecords
	if every == 0 || !m.mu.TryLock() {
		return
	}
	defer m.mu.Unlock()
	if _, _, gen, _ := m.study.Counts(); gen-m.lastGen.Load() >= every { // err is always nil
		m.snapshotLocked()
	}
}

// snapshotLocked writes one snapshot if the generation moved since the last
// one. Callers hold m.mu.
func (m *snapshotManager) snapshotLocked() {
	_, _, gen, _ := m.study.Counts() // err is always nil
	if gen == m.lastGen.Load() {
		return
	}
	_, gen, err := WriteStudySnapshot(m.opts.Dir, m.study, DefaultSnapshotKeep)
	if err != nil {
		m.errs.Add(1)
		m.opts.Logf("service: snapshot failed: %v", err)
		return
	}
	m.lastGen.Store(gen)
	m.lastAt.Store(time.Now().UnixNano())
	m.written.Add(1)
}

// close stops the timer loop and writes a final snapshot — the SIGTERM
// half of durability: a drained server's last records are on disk before
// the process exits.
func (m *snapshotManager) close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
	m.mu.Lock()
	m.snapshotLocked()
	m.mu.Unlock()
}

// status reports the healthz gauges: the generation of the newest durable
// snapshot, its age (negative when no snapshot has been written by this
// process yet), and the write/error counters.
func (m *snapshotManager) status() (gen uint64, age time.Duration, written, errs uint64) {
	age = -1
	if at := m.lastAt.Load(); at > 0 {
		age = time.Since(time.Unix(0, at))
	}
	return m.lastGen.Load(), age, m.written.Load(), m.errs.Load()
}
