package notary

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"tlsage/internal/timeline"
)

// hostileDateLine is a well-formed log line but for its year: one such line
// used to be ingested, after which the study's every snapshot and delta
// carried a month the decoder refuses.
func hostileDateLine() string {
	line := string(sampleRecord().AppendTSV(nil))
	return "9223372036854775807-05-10" + line[strings.IndexByte(line, '\t'):]
}

func TestDateBoundsOnIngest(t *testing.T) {
	var le *LineError
	agg := NewAggregate()
	if err := ReadLog(strings.NewReader(Header()+hostileDateLine()), agg); !errors.As(err, &le) || le.Line != 4 {
		t.Fatalf("hostile year: err = %v, want a *LineError on line 4", err)
	}
	if agg.TotalRecords() != 0 {
		t.Fatal("the hostile line reached the aggregate")
	}

	good := string(sampleRecord().AppendTSV(nil))
	rest := good[strings.IndexByte(good, '\t'):]
	for date, ok := range map[string]bool{
		"0001-01-01": true, "9999-12-31": true, "2015-02-31": true, // range-checked, not calendar-checked
		"0000-06-03": false, "10000-06-03": false, "2015-00-03": false, "2015-13-03": false,
		"2015-06-00": false, "2015-06-32": false, "2015-06--3": false, "-2015-06-03": false,
		"2015-06-9223372036854775807": false,
	} {
		if _, err := parseTSV(date + rest); (err == nil) != ok {
			t.Errorf("TSV date %q: err = %v, want accepted = %v", date, err, ok)
		}
	}

	// The binary record path shares the rule, as a *BatchError.
	for _, d := range []timeline.Date{
		{Year: 10000, Month: time.May, Day: 10}, {Year: 0, Month: time.May, Day: 10},
		{Year: 2015, Month: time.May, Day: 32}, {Year: 2015, Month: time.May, Day: 0},
		{Year: math.MaxInt / 2, Month: time.May, Day: 10},
	} {
		r := sampleRecord()
		r.Date = d
		var be *BatchError
		if _, _, err := ReadBatches(bytes.NewReader(encodeBatch([]*Record{r})), NewAggregate()); !errors.As(err, &be) {
			t.Errorf("TLSB date %v: err = %v, want a *BatchError", d, err)
		}
	}
}

// Whatever ReadLog or ReadBatches accepts, the resulting aggregate survives
// EncodeSnapshot → DecodeSnapshot: input that was acknowledged can never
// make a collector's own snapshots (or an edge's deltas) undecodable.
func TestAcceptedInputSurvivesSnapshot(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	num := func() int {
		switch rnd.Intn(6) {
		case 0:
			return rnd.Intn(3) // 0, 1, 2
		case 1:
			return []int{9999, 10000, 31, 32, 12, 13, math.MaxInt32, math.MaxInt / 2, math.MaxInt}[rnd.Intn(9)]
		case 2:
			return -rnd.Intn(40)
		default:
			return 1 + rnd.Intn(40)
		}
	}
	base := buildBatchRecords(9, 64)
	accepted, refused := 0, 0
	check := func(kind string, agg *Aggregate, err error) {
		t.Helper()
		if err != nil {
			refused++
			return
		}
		accepted++
		back, err := DecodeSnapshot(EncodeSnapshot(nil, agg))
		if err != nil {
			t.Fatalf("%s: accepted input, but the aggregate's snapshot does not decode: %v", kind, err)
		}
		if !reflect.DeepEqual(back, agg) {
			t.Fatalf("%s: aggregate changed across encode/decode", kind)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		r := base[rnd.Intn(len(base))].Clone()
		y, m, d := 2000+num(), num(), num()
		if rnd.Intn(3) == 0 {
			y = num()
		}

		line := string(r.AppendTSV(nil))
		line = fmt.Sprintf("%d-%d-%d", y, m, d) + line[strings.IndexByte(line, '\t'):]
		agg := NewAggregate()
		check("tsv "+line[:strings.IndexByte(line, '\t')], agg, ReadLog(strings.NewReader(line), agg))

		if y < 0 || m < 0 || d < 0 {
			continue // the binary date is unsigned: there is nothing to encode
		}
		r.Date = timeline.Date{Year: y, Month: time.Month(m), Day: d}
		agg = NewAggregate()
		_, _, err := ReadBatches(bytes.NewReader(encodeBatch([]*Record{r})), agg)
		check("tlsb "+r.Date.String(), agg, err)
	}
	if accepted < 100 || refused < 100 {
		t.Fatalf("vacuous: %d inputs accepted, %d refused", accepted, refused)
	}
}
