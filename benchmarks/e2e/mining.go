package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"permine"
	"permine/internal/embound"
	"permine/internal/obs"
	"permine/internal/pil"
	"permine/internal/query"
)

// mineOp is one timed permine.Mine call.
type mineOp struct {
	input   int
	traced  bool
	dur     time.Duration
	memHigh int64 // high-water of the run's pil.MemTracker, bytes
	digest  [32]byte
	err     error

	// Traced calls only: the layer measurements taken after the call.
	sums      levelSums
	counts    map[string]float64 // countValues of the result
	em, scan3 time.Duration
	derive    time.Duration
	alloc     uint64 // bytes allocated by the process during the call
	gcs       uint32 // GC cycles completed during the call
}

// runMining times the facade: one caller mines the workload's inputs in
// turn (a closed loop), each call with two workers.
func runMining(ctx context.Context, w workload, o options) (*outcome, error) {
	sp := w.spec
	if o.quick {
		sp = sp.quick()
	}
	p := sp.params()

	// Set-up: generate the inputs, then mine the warm-up input, untimed.
	var setups []float64
	var spent time.Duration
	var inputs []*permine.Sequence
	for o.moreSetups(len(setups), spent) {
		runtime.GC() // as in a fresh process, no earlier set-up's garbage is collected on the clock
		start := time.Now()
		inputs = inputs[:0]
		for i := 0; i < sp.inputs; i++ {
			s, err := sp.input(o.seed, i)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, s)
		}
		warm, err := sp.warmupInput()
		if err != nil {
			return nil, err
		}
		if _, err := permine.Mine(ctx, permine.AlgoMPPm, warm, p); err != nil {
			return nil, fmt.Errorf("warm-up mine: %w", err)
		}
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
	}

	out := newOutcome()
	out.values["setup_s"] = median(setups)
	var tr *obs.Tracer
	col := &obs.Collector{}
	if o.trace {
		tr = obs.NewTracer(col)
	}
	var clock refClock
	ops, busy := minePhase(ctx, inputs, p, o.phase, tr, &clock)
	out.spans = col.Spans()

	// Output checks, off the clock: every timed result must match a
	// reference mine of its input with the two-pointer join on one worker.
	ref := p
	ref.Join, ref.Workers = permine.JoinTwoPointer, 1
	refs := make([][32]byte, len(inputs))
	for i, s := range inputs {
		res, err := permine.Mine(ctx, permine.AlgoMPPm, s, ref)
		if err != nil {
			return nil, fmt.Errorf("reference mine of input %d: %w", i, err)
		}
		refs[i] = digest(res)
		if o.tamper != nil {
			o.tamper(&refs[i])
		}
	}
	for i := range ops {
		op := &ops[i]
		if op.err == nil && op.digest != refs[op.input] {
			op.err = fmt.Errorf("input %d: result digest differs from the reference mine", op.input)
		}
		out.attempted++
		out.fail(op.err)
	}

	if !o.trace {
		var durs, highs []float64
		for _, op := range ops {
			if op.err == nil {
				durs = append(durs, op.dur.Seconds())
				highs = append(highs, float64(op.memHigh)/1e6)
			}
		}
		clock.report(out, durs, len(durs), busy)
		out.values["mem_high_mb"] = median(highs)
		return out, nil
	}
	layerValues(out.values, ops)
	return out, nil
}

// minePhase runs one timed phase: mine the inputs in turn until the phase
// length has passed and every input has been mined at least once, timing
// the reference kernel after each call. With a tracer, passes over the
// inputs alternate between untraced and traced (and there are at least
// two), so drift during the phase cannot pass for tracing overhead; traced
// calls have their layers measured afterwards. busy is the phase's time
// outside the reference kernel.
func minePhase(ctx context.Context, inputs []*permine.Sequence, p permine.Params, d time.Duration, tr *obs.Tracer, clock *refClock) (ops []mineOp, busy time.Duration) {
	passes := 1
	if tr != nil {
		passes = 2
	}
	start := time.Now()
	for i := 0; i < passes*len(inputs) || time.Since(start) < d; i++ {
		if ctx.Err() != nil {
			break
		}
		var opTr *obs.Tracer
		if (i/len(inputs))%2 == 1 {
			opTr = tr
		}
		opStart := time.Now()
		ops = append(ops, mineOne(ctx, inputs[i%len(inputs)], i%len(inputs), p, opTr))
		busy += time.Since(opStart)
		clock.sample()
	}
	return ops, busy
}

// mineOne times one permine.Mine of input idx, s.
func mineOne(ctx context.Context, s *permine.Sequence, idx int, p permine.Params, tr *obs.Tracer) mineOp {
	op := mineOp{input: idx, traced: tr != nil}
	mem := pil.NewMemTracker(nil)
	p.Mem = mem
	opCtx, opSpan := tr.Start(ctx, "bench.op", obs.KV("input", idx))
	defer opSpan.End()

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	// The span rides in the context, so the miner's mine.level spans nest
	// under it.
	mineCtx, span := obs.Start(opCtx, "permine.Mine")
	start := time.Now()
	res, err := permine.Mine(mineCtx, permine.AlgoMPPm, s, p)
	op.dur = time.Since(start)
	span.End()
	if tr != nil {
		runtime.ReadMemStats(&after)
		op.alloc = after.TotalAlloc - before.TotalAlloc
		op.gcs = after.NumGC - before.NumGC
	}
	if err != nil {
		op.err = fmt.Errorf("input %d: %w", idx, err)
		return op
	}
	op.memHigh = mem.High()
	op.digest = digest(res)
	op.sums = sumLevels(res.Levels)
	if op.err = op.sums.check(); op.err != nil || tr == nil {
		return op
	}
	op.counts = countValues(res, op.sums)
	op.em, op.scan3, op.derive, op.err = measureLayers(opCtx, s, res)
	return op
}

// errNotDerivable reports a top-K query the result cache's derivation rules
// refused; at the workloads' parameters that never happens.
var errNotDerivable = errors.New("top-K query not derivable from the full result")

// measureLayers times the layers a mine is made of, each called on its own
// on the same input: the e_m bound, the level-3 seeding scan, and the
// result cache's top-K derivation from the finished result.
func measureLayers(ctx context.Context, s *permine.Sequence, res *permine.Result) (em, scan3, derive time.Duration, err error) {
	// A mine computes e_m first, on a heap the previous reference sample
	// collected; collect the mine's garbage so the separate call does too.
	runtime.GC()
	p := res.Params
	em, err = timed(ctx, "embound.Em", func() error {
		_, err := embound.Em(s, p.Gap, p.EmOrder)
		return err
	})
	if err != nil {
		return
	}
	scan3, err = timed(ctx, "pil.ScanKPacked", func() error {
		_, err := pil.ScanKPacked(s, p.Gap, startLen)
		return err
	})
	if err != nil {
		return
	}
	q := p
	q.TopK = topK
	derive, err = timed(ctx, "query.FromCached", func() error {
		if _, ok := query.FromCached(res, q); !ok {
			return errNotDerivable
		}
		return nil
	})
	return
}

// timed runs fn inside a child span of the one ctx carries and returns
// its wall time.
func timed(ctx context.Context, name string, fn func() error) (time.Duration, error) {
	_, span := obs.Start(ctx, name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	span.RecordError(err)
	span.End()
	return d, err
}

// layerValues reduces a traced facade run to the per-layer metrics. Counts
// come from the first traced mine of each input, so they repeat exactly
// across runs of one seed; times are medians per traced call.
func layerValues(vals map[string]float64, ops []mineOp) {
	var base, durs []float64
	times, counts := series{}, series{}
	seen := map[int]bool{}
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		if !op.traced {
			base = append(base, op.dur.Seconds())
			continue
		}
		durs = append(durs, op.dur.Seconds())
		times.addDur("embound.em_s", op.em)
		times.addDur("pil.scan3_s", op.scan3)
		times.addDur("query.derive_s", op.derive)
		times.addDur("mine.gen_s", op.sums.gen)
		times.addDur("mine.count_s", op.sums.count)
		times.addDur("mine.self_s", op.dur-op.em-op.scan3-op.sums.gen-op.sums.count)
		times.add("mine.alloc_mb", float64(op.alloc)/1e6)
		times.add("mine.gc_cycles", float64(op.gcs))
		if !seen[op.input] {
			seen[op.input] = true
			for name, v := range op.counts {
				counts.add(name, v)
			}
		}
	}
	times.medians(vals)
	counts.medians(vals)
	for _, name := range serverLayerMetrics {
		vals[name] = 0
	}
	vals["trace_overhead_frac"] = overhead(median(durs), median(base))
}

// overhead is the traced median over the untraced one, minus one.
func overhead(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}
