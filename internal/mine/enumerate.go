package mine

import (
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/seq"
)

// Enumerate runs the no-pruning baseline the paper compares against in
// Table 3: at every level all |Σ|^i patterns are candidates (the Apriori
// property does not hold, so nothing can be pruned on support grounds).
//
// It is MPP's level loop in exhaustive mode: L̂i is every pattern of
// non-zero support, so each level joins every such pattern with every
// symbol whose suffix pattern has non-zero support — the other candidates
// have support zero by construction — while the per-level Candidates
// metric reports the full |Σ|^i the baseline is semantically charged for,
// as in the paper's Table 3. Params.MaxLen and Params.Hooks are ignored;
// the query layer filters the plain result.
//
// The run stops with Result.Truncated = true (and a wrapped
// core.ErrBudgetExceeded) when the cumulative physical counting work
// (|Σ|^StartLen for the seed, plus |L̂i|·|Σ| joins per level) would exceed
// Params.CandidateBudget; completed levels remain valid.
func Enumerate(s *seq.Sequence, params core.Params) (*core.Result, error) {
	p, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	p.Hooks = nil
	if err := p.Context().Err(); err != nil {
		return nil, &core.CancelledError{Algorithm: core.AlgoEnumerate, Level: p.StartLen, Err: err}
	}
	start := time.Now()
	counter, err := combinat.NewCounter(s.Len(), p.Gap)
	if err != nil {
		return nil, err
	}
	res := &core.Result{
		Algorithm: core.AlgoEnumerate,
		Params:    p,
		SeqName:   s.Name(),
		SeqLen:    s.Len(),
		N:         counter.L2(),
	}
	if sigmaPow(s.Alphabet().Size(), p.StartLen) > p.CandidateBudget {
		return finishLevelRun(res, start, budgetStop(p.StartLen))
	}
	r := &runner{s: s, p: p, counter: counter, n: counter.L2(), res: res, exhaustive: true}
	defer r.release()
	r.run(r.seed())
	return finishLevelRun(res, start, r.err)
}
