package main

import (
	"fmt"
	"sync"
	"time"
)

// tally counts one generator's operations. A non-2xx reply, a shed stream, a
// timeout or a failed check is a failure, and a failed operation contributes
// no latency sample.
type tally struct {
	attempted, failed int
	errs              []string // the first few, for the report
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) absorb(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// maxFailures stops a generator that is hammering a dead server.
const maxFailures = 20

// window is what one generator recorded while the measured window was open.
type window struct {
	lat   latencies // ms per completed operation
	late  latencies // ms the open-loop generator started behind schedule
	units int       // records acknowledged or queries answered
	// done and per hold every completed operation's finishing time and
	// units, for the per-slice rates.
	done []time.Time
	per  []int
}

func (w *window) completed(at time.Time, units int) {
	w.units += units
	w.done = append(w.done, at)
	w.per = append(w.per, units)
}

// rateSlices is how many equal slices a measured window is cut into. The
// throughput reported is the median of the slices' rates, not total over
// elapsed: a neighbour's burst or a GC pause that slows one second of ten
// then moves the result by nothing instead of by a tenth of its size.
const rateSlices = 10

// sliceRates cuts [start, start+d) into rateSlices slices and returns the
// units per second the generators completed in each.
func sliceRates(start time.Time, d time.Duration, wins ...window) []float64 {
	width := d / rateSlices
	if width <= 0 {
		return nil
	}
	sums := make([]float64, rateSlices)
	for _, w := range wins {
		for i, at := range w.done {
			if k := int(at.Sub(start) / width); k >= 0 && k < rateSlices {
				sums[k] += float64(w.per[i])
			}
		}
	}
	for k := range sums {
		sums[k] /= width.Seconds()
	}
	return sums
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }

// feeder is one ingest connection. Streams are consecutive slices of the
// corpus, walked cyclically; acks counts every acknowledged stream since the
// server started, so the reference study can be brought level afterwards.
type feeder struct {
	tally
	parts      []chunk
	next, step int
	kind       opKind
	tee        bool
	// send delivers one stream; started is when its first byte went out.
	send    func(part chunk, opID uint64) (a ack, started time.Time, err error)
	acks    map[chunk]int
	lastGen uint64
	// onAck, when set, is told the generation and time of every ack.
	onAck func(gen uint64, at time.Time)
}

func (f *feeder) one(w *window, tr *tracer, due time.Time) {
	part := f.parts[f.next%len(f.parts)]
	f.next += f.step
	id := tr.begin()
	t0 := time.Now()
	a, started, err := f.send(part, id)
	end := time.Now()
	f.attempted++
	if err == nil && a.Generation < f.lastGen {
		err = fmt.Errorf("ingest: generation went back from %d to %d", f.lastGen, a.Generation)
	}
	if err != nil {
		f.fail(err)
		return
	}
	f.lastGen = a.Generation
	f.acks[part]++
	if f.onAck != nil {
		f.onAck(a.Generation, end)
	}
	tr.finish("op.ingest", t0, end, opRecord{id: id, kind: f.kind, part: part, tee: f.tee})
	if w == nil {
		return
	}
	w.completed(end, part.len())
	if due.IsZero() {
		w.lat = append(w.lat, msSince(started, end))
	} else {
		// Open loop: the clock starts when the stream was due, so a stall
		// is charged to every stream it delayed.
		w.lat = append(w.lat, msSince(due, end))
		w.late = append(w.late, msSince(due, t0))
	}
}

// closedLoop sends the next stream as soon as the previous one is acked,
// until stop reports true.
func (f *feeder) closedLoop(stop func() bool, w *window, tr *tracer) {
	for f.failed < maxFailures && !stop() {
		f.one(w, tr, time.Time{})
	}
}

// openLoop sends one stream every period from start until deadline, whether
// or not the server keeps up.
func (f *feeder) openLoop(start time.Time, period time.Duration, deadline time.Time, w *window, tr *tracer) {
	onSchedule(start, period, deadline, func(due time.Time) bool {
		f.one(w, tr, due)
		return f.failed < maxFailures
	})
}

// onSchedule calls op at start, start+period, ... until deadline or until op
// returns false. It never skips a slot: when the caller falls behind, the
// overdue operations go out back to back, each told when it was due, so a
// stall is charged to every operation it delayed.
func onSchedule(start time.Time, period time.Duration, deadline time.Time, op func(due time.Time) bool) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if !op(due) {
			return
		}
	}
}

// asker is one dashboard connection replaying the query mix.
type asker struct {
	tally
	cl      *client
	base    func() string
	mix     *queryMix
	lastGen uint64
	hits    int // answers served from the cache while the window was open
}

// one asks the next query of the mix. A zero due means closed loop: the
// latency runs from the request; otherwise it runs from when the query was
// due.
func (a *asker) one(w *window, tr *tracer, due time.Time) {
	text, hot := a.mix.draw()
	id := tr.begin()
	t0 := time.Now()
	ans, _, err := a.cl.query(a.base(), text, id)
	end := time.Now()
	a.attempted++
	switch {
	case err != nil:
	case !hot && ans.Hit:
		err = fmt.Errorf("unique query %q was answered from the cache", text)
	case ans.Generation < a.lastGen:
		err = fmt.Errorf("query: X-Generation went back from %d to %d", a.lastGen, ans.Generation)
	}
	if err != nil {
		a.fail(err)
		return
	}
	tr.finish("op.query", t0, end, opRecord{id: id, kind: opQuery, text: text,
		hit: ans.Hit, bumped: ans.Generation != a.lastGen})
	a.lastGen = ans.Generation
	if w == nil {
		return
	}
	w.completed(end, 1)
	if ans.Hit {
		a.hits++
	}
	if due.IsZero() {
		w.lat = append(w.lat, msSince(t0, end))
	} else {
		w.lat = append(w.lat, msSince(due, end))
		w.late = append(w.late, msSince(due, t0))
	}
}

func (a *asker) closedLoop(stop func() bool, w *window, tr *tracer) {
	for a.failed < maxFailures && !stop() {
		a.one(w, tr, time.Time{})
	}
}

func (a *asker) openLoop(start time.Time, period time.Duration, deadline time.Time, w *window, tr *tracer) {
	onSchedule(start, period, deadline, func(due time.Time) bool {
		a.one(w, tr, due)
		return a.failed < maxFailures
	})
}

// until returns a stop function that turns true at the deadline.
func until(deadline time.Time) func() bool {
	return func() bool { return !time.Now().Before(deadline) }
}

// together runs the generators, one goroutine each, and waits for all of
// them. The workloads never pass more than two.
func together(gens ...func()) {
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g()
		}()
	}
	wg.Wait()
}
