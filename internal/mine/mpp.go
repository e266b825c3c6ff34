package mine

import (
	"errors"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/seq"
)

// MPP runs the paper's MPP algorithm (Figure 3) on subject sequence s.
//
// Params.MaxLen is the user's estimate n of the longest frequent pattern
// length; MPP guarantees completeness for patterns of length <= n and is
// best-effort beyond. MaxLen == 0 or MaxLen > l1 is clamped to l1 (the
// paper's worst case).
func MPP(s *seq.Sequence, params core.Params) (*core.Result, error) {
	p, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	if err := p.Context().Err(); err != nil {
		return nil, &core.CancelledError{Algorithm: core.AlgoMPP, Level: p.StartLen, Err: err}
	}
	start := time.Now()
	counter, err := combinat.NewCounter(s.Len(), p.Gap)
	if err != nil {
		return nil, err
	}
	n := p.MaxLen
	if n == 0 || n > counter.L1() {
		n = counter.L1()
	}
	if n < p.StartLen {
		n = p.StartLen
	}

	res := &core.Result{
		Algorithm: core.AlgoMPP,
		Params:    p,
		SeqName:   s.Name(),
		SeqLen:    s.Len(),
		N:         n,
	}
	r := &runner{s: s, p: p, counter: counter, n: n, res: res}
	r.run(r.seed())
	return finishLevelRun(res, start, r.err)
}

// finishLevelRun maps the end of a level-loop run to its return shape. A
// finished run (err == nil) and a budget stop — the memory budget's
// *core.ResourceExhaustedError or the enumeration baseline's
// core.ErrBudgetExceeded — ship the completed levels as a sorted result,
// Truncated on a stop, alongside err; every other abort (cancellation,
// overflow guard) returns no result at all.
func finishLevelRun(res *core.Result, start time.Time, err error) (*core.Result, error) {
	if err != nil && !errors.Is(err, core.ErrMemoryExceeded) && !errors.Is(err, core.ErrBudgetExceeded) {
		return nil, err
	}
	res.Truncated = err != nil
	res.SortPatterns()
	res.Elapsed = time.Since(start)
	return res, err
}
