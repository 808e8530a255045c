package main

import (
	"runtime"
	"time"
)

// On a shared host the same work costs up to twice as much CPU from one
// minute to the next: neighbours compete for cache, memory bandwidth and the
// sibling hardware thread. No amount of averaging inside a 10 s window
// removes that, but measuring the machine next to the workload does.

// sink keeps the compiler from discarding the sampler's work.
var sink uint64

// pace samples the machine's speed while a window is open: every pacePeriod
// a goroutine pinned to its own OS thread does a small fixed piece of work —
// map updates and a byte scan, about a millisecond — and notes the thread CPU
// time it took. CPU time, not wall time, so waiting for a core on a saturated
// box does not count; and sampled during the window, with the workload busy
// on the other core, so it sees the same cache, memory and sibling-thread
// contention the server sees.
type pace struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // µs of CPU per sample
}

const pacePeriod = 50 * time.Millisecond

// paceReferenceUS is the pace the reported numbers are scaled to: what a
// sample costs on the two-core reference box when its host is quiet.
const paceReferenceUS = 1000.0

func startPace() *pace {
	p := &pace{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		m := make(map[uint64]uint64, 1<<15)
		buf := make([]byte, 1<<18)
		tick := time.NewTicker(pacePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			c0 := threadCPU()
			var s uint64
			for k := uint64(0); k < 8000; k++ {
				m[k*0x9e3779b97f4a7c15&0x7fff] += k
			}
			for _, b := range buf {
				s = s*31 + uint64(b)
			}
			sink += s
			if c1 := threadCPU(); c1 > c0 {
				p.samples = append(p.samples, float64(c1-c0)/1e3)
			}
		}
	}()
	return p
}

// finish stops the sampler and returns the median sample in µs and how many
// there were.
func (p *pace) finish() (float64, int) {
	close(p.stop)
	<-p.done
	return median(p.samples), len(p.samples)
}
