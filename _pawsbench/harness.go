package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sample is one completed or failed operation.
type sample struct {
	label string
	ms    float64
	err   error
}

// phase is what one timed phase measured.
type phase struct {
	samples []sample
	// ops are the operations run, in order, so that they can be replayed.
	ops        []op
	rounds     int
	failed     int
	wall       time.Duration
	cpuMS      float64
	allocBytes uint64
	gcCycles   uint32
	gcPauseMS  float64
}

func (p *phase) okLatencies() []float64 {
	var ms []float64
	for _, s := range p.samples {
		if s.err == nil {
			ms = append(ms, s.ms)
		}
	}
	return ms
}

// timed runs whole rounds in a closed loop — one operation in flight —
// until d has passed and at least minOps operations have run, measuring
// process CPU, heap allocation and GC over the whole phase. round returns
// the next round's operations.
func timed(ctx context.Context, round func() []op, d time.Duration, minOps int, t *tracer) *phase {
	p := &phase{}
	ctx = withTracer(ctx, t)
	before := readUsage()
	start := time.Now()
	for p.rounds == 0 || time.Since(start) < d || len(p.samples) < minOps {
		for _, o := range round() {
			t.beginOp(o.label)
			begin := time.Now()
			verify, err := o.run(ctx, t)
			ms := msSince(begin)
			t.endOp(ms)
			if verify != nil {
				verify()
			}
			p.samples = append(p.samples, sample{label: o.label, ms: ms, err: err})
			p.ops = append(p.ops, o)
			if err != nil {
				p.failed++
			}
		}
		p.rounds++
	}
	p.wall = time.Since(start)
	after := readUsage()
	p.cpuMS = float64(after.cpu-before.cpu) / float64(time.Millisecond)
	p.allocBytes = after.alloc - before.alloc
	p.gcCycles = after.numGC - before.numGC
	p.gcPauseMS = float64(after.pauseNs-before.pauseNs) / 1e6
	return p
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

type usage struct {
	cpu     time.Duration
	alloc   uint64
	numGC   uint32
	pauseNs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the percentiles the tail is chosen from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail is a latency tail: the pct-th percentile of a sample set and how
// many samples lie beyond it.
type tail struct {
	pct    float64
	value  float64
	beyond int
}

// tailOf applies the tail rule: the highest percentile of tailPercentiles
// with at least ten samples beyond it (nearest rank). Below forty samples
// no such percentile exists and the median stands alone.
func tailOf(xs []float64) tail {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		// The epsilon keeps float error from pushing an exact rank up.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank >= 1 && n-rank >= 10 {
			return tail{pct: p, value: s[rank-1], beyond: n - rank}
		}
	}
	return tail{pct: 50, value: median(s), beyond: n / 2}
}
