package notary

import (
	"bytes"
	"testing"
)

// TestReadLogTailBaseDirective pins the generation arithmetic of rebased
// logs: a #base directive declares the log was truncated at some absolute
// generation, so skip (a snapshot's record count) aligns against base+line
// instead of assuming the log starts at generation zero.
func TestReadLogTailBaseDirective(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(LogBaseDirective(40))
	lw := NewLogWriter(&buf)
	for i := 0; i < 10; i++ {
		if err := lw.Observe(sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	log := buf.Bytes() // records carrying generations 41..50

	cases := []struct {
		skip, delivered uint64
	}{
		{0, 10},  // full replay of what the log holds
		{40, 10}, // snapshot exactly at the base
		{45, 5},  // snapshot past the base: only the tail
		{50, 0},  // snapshot covers the whole log
		{60, 0},  // snapshot beyond the log: nothing, no error
		{20, 10}, // snapshot older than the base: the gap is simply absent
	}
	for _, c := range cases {
		var n uint64
		got, base, err := ReadLogTail(bytes.NewReader(log), c.skip,
			SinkFunc(func(*Record) error { n++; return nil }))
		if err != nil {
			t.Fatalf("skip=%d: %v", c.skip, err)
		}
		if got != c.delivered || n != c.delivered || base != 40 {
			t.Fatalf("skip=%d: delivered %d (sink saw %d), base %d; want %d, base 40",
				c.skip, got, n, base, c.delivered)
		}
	}
}
