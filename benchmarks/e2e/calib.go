package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// A shared machine's speed drifts by tens of percent over minutes, which
// would drown the changes this benchmark exists to see. So every timed
// phase also times a reference kernel that no commit can change — sorting
// the same 65,536 pseudo-random uint64s with the standard library — once
// after each operation (facade workloads) or each round of cycles (serve
// workload), while nothing else runs. Latency and throughput are reported
// in units of the kernel's median time in that phase ("ref"). Samples
// taken between operations track the speed the operations ran at; samples
// taken only before and after a phase do not (README.md, "Why ref units").

var refInput = func() []uint64 {
	r := rand.New(rand.NewSource(1))
	xs := make([]uint64, 1<<16)
	for i := range xs {
		xs[i] = r.Uint64()
	}
	return xs
}()

// refClock collects reference-kernel times during one timed phase.
type refClock struct {
	buf     []uint64
	samples []float64 // seconds
}

// refRuns is how many times the kernel runs per sample. One run takes a
// few milliseconds, short enough for a single scheduler hiccup to move
// it; the median over every run of the phase absorbs those.
const refRuns = 3

// sample runs the kernel refRuns times. It first finishes a garbage
// collection, so the collector's work left over from the operation just
// timed neither slows the kernel nor carries over into the next operation.
func (c *refClock) sample() {
	runtime.GC()
	if c.buf == nil {
		c.buf = make([]uint64, len(refInput))
	}
	for range refRuns {
		copy(c.buf, refInput)
		start := time.Now()
		slices.Sort(c.buf)
		c.samples = append(c.samples, time.Since(start).Seconds())
	}
}

// report sets op_p50_ref and ops_per_ref from the phase's operation
// latencies (seconds) and its completed operations over its busy time.
// The raw numbers go with them, into the human-readable report and the
// -json line, so a shift in the kernel itself can be seen.
func (c *refClock) report(out *outcome, durs []float64, completed int, busy time.Duration) {
	ref, p50, perSecond := median(c.samples), median(durs), float64(completed)/busy.Seconds()
	out.values["op_p50_ref"] = p50 / ref
	out.values["ops_per_ref"] = perSecond * ref
	out.raw["op_p50_s"], out.raw["ops_per_s"], out.raw["ref_s"] = p50, perSecond, ref
	out.notes = append(out.notes, fmt.Sprintf("(op p50 %.4g s, %.4g ops/s, 1 ref = %.4g ms)", p50, perSecond, ref*1e3))
}
