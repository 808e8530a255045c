package notary

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"

	"tlsage/internal/registry"
)

// buildCorpus writes n random records through a LogWriter and returns the
// log bytes plus the serial-reference aggregate.
func buildCorpus(t testing.TB, seed int64, n int) ([]byte, *Aggregate) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	all := registry.AllSuites()
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	want := NewAggregate()
	for i := 0; i < n; i++ {
		r := randomRecord(rnd, all)
		want.Add(r)
		if err := lw.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// aggregatesEqual compares two aggregates the way the merge property test
// does: Pos[c].Sum within epsilon (float addition across shards is not
// associative) — 1e-9, of the sum once that is above one — everything else
// exactly.
func aggregatesEqual(t *testing.T, want, got *Aggregate) {
	t.Helper()
	for _, m := range want.Months() {
		wms, gms := want.Stats(m), got.Stats(m)
		if gms == nil {
			t.Fatalf("month %v missing from parallel aggregate", m)
		}
		for c := range wms.Pos {
			if diff, eps := wms.Pos[c].Sum-gms.Pos[c].Sum, 1e-9*max(1, wms.Pos[c].Sum); diff > eps || diff < -eps {
				t.Fatalf("month %v Pos[%v].Sum off by %g", m, PosClass(c), diff)
			}
			gms.Pos[c].Sum = wms.Pos[c].Sum
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("parallel aggregate differs from serial ReadLog")
	}
}

// Every error the parallel reader stops with is the one serial ReadLog
// reports, for every worker count and run size: a malformed line (the earliest
// wins when there are several, as serial stops there), a #base directive that
// rewinds, a malformed line before a read error, a reader that stops returning
// anything (io.ErrNoProgress), and in a log of frames a
// frame cut short or one that passes its checksum and does not decode (a
// *BatchError naming the frame's index in the whole log).
func TestReadLogParallelErrorParity(t *testing.T) {
	log, _ := buildCorpus(t, 7, 300)
	lines := bytes.Split(bytes.TrimSuffix(log, []byte("\n")), []byte("\n"))
	corrupt := func(lines [][]byte, at int) []byte {
		cp := slices.Clone(lines)
		cp[at] = []byte("garbage\tline")
		return bytes.Join(cp, []byte("\n"))
	}
	check := func(name string, src func() io.Reader, runSizes []int) {
		t.Helper()
		serialErr := ReadLog(src(), NewAggregate())
		if serialErr == nil {
			t.Fatalf("%s: serial reader accepted the log", name)
		}
		for _, workers := range []int{2, 4, 16} {
			for _, cs := range runSizes {
				agg, err := readLogParallel(src(), workers, cs, nil)
				if err == nil {
					t.Fatalf("%s workers=%d run=%d: parallel reader accepted the log", name, workers, cs)
				}
				if agg != nil {
					t.Errorf("%s: non-nil aggregate alongside error", name)
				}
				if err.Error() != serialErr.Error() {
					t.Fatalf("%s workers=%d run=%d: error %q, serial %q", name, workers, cs, err, serialErr)
				}
			}
		}
	}
	of := func(b []byte) func() io.Reader { return func() io.Reader { return bytes.NewReader(b) } }

	lineRuns := []int{7, 64, 100, 1 << 12, 1 << 22}
	for _, at := range []int{3, 50, len(lines) / 2, len(lines) - 1} {
		check(fmt.Sprintf("corrupt@%d", at), of(corrupt(lines, at)), lineRuns)
	}
	// Two malformed lines: the earliest must win even when a later run
	// errors first.
	check("double-corrupt", of(corrupt(bytes.Split(corrupt(lines, 20), []byte("\n")), 250)), lineRuns)
	check("rewinding base", of(bytes.Join(slices.Insert(slices.Clone(lines), 150, []byte("#base 1")), []byte("\n"))), lineRuns)
	check("malformed line, then a read error", func() io.Reader {
		return io.MultiReader(bytes.NewReader(corrupt(lines, 50)), iotest.ErrReader(errors.New("disk gone")))
	}, lineRuns)
	check("a reader that returns nothing", func() io.Reader { return io.MultiReader(bytes.NewReader(log), iotest.ErrReader(nil)) }, lineRuns)

	recs := buildBatchRecords(41, 60)
	frames := encodeFrames(recs, 5)
	frameLen := len(encodeFrames(recs[:5], 5))
	frameRuns := []int{1, frameLen / 2, frameLen + 1, 3 * frameLen, 1 << 22}
	check("cut last frame", of(frames[:len(frames)-10]), frameRuns)
	junk := reframe(BatchVersion, appendRecordBinary(appendCount(nil, 2), recs[0]))
	check("a frame that does not decode", of(slices.Concat(encodeFrames(recs[:40], 5), junk, encodeFrames(recs[40:], 5))), frameRuns)
}

// newlineFree yields n bytes holding no newline and counts what was taken.
type newlineFree struct{ n, taken int }

func (r *newlineFree) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	p = p[:min(len(p), r.n)]
	for i := range p {
		p[i] = 'x'
	}
	r.n -= len(p)
	r.taken += len(p)
	return len(p), nil
}

// A newline-free input fails at the ceiling instead of being buffered whole:
// neither reader takes more than the ceiling plus one block from it.
func TestReadLogNewlineFreeInputIsBounded(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, cs := range []int{1 << 16, defaultChunkSize, 3 << 20} {
			src := &newlineFree{n: 64 << 20}
			agg, err := readLogParallel(src, workers, cs, nil)
			if err != bufio.ErrTooLong || agg != nil {
				t.Errorf("workers=%d chunk=%d: err %v (aggregate %v), want bufio.ErrTooLong", workers, cs, err, agg != nil)
			}
			if src.taken > maxLogLine+cs {
				t.Errorf("workers=%d chunk=%d: read %d bytes of a newline-free input, want at most %d",
					workers, cs, src.taken, maxLogLine+cs)
			}
		}
	}
}
