package mine

import (
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/embound"
	"permine/internal/obs"
	"permine/internal/seq"
)

// MPPm runs the paper's MPPm algorithm: MPP with the longest-pattern
// estimate n derived automatically from the e_m bound (Theorem 2 /
// Equation 5) instead of a user guess. Params.MaxLen is ignored;
// Params.EmOrder is the paper's m.
func MPPm(s *seq.Sequence, params core.Params) (*core.Result, error) {
	p, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	if err := p.Context().Err(); err != nil {
		return nil, &core.CancelledError{Algorithm: core.AlgoMPPm, Level: p.StartLen, Err: err}
	}
	start := time.Now()
	counter, err := combinat.NewCounter(s.Len(), p.Gap)
	if err != nil {
		return nil, err
	}

	// e_m decides n, so the run's own trace records it.
	_, emSpan := obs.Start(p.Context(), "mine.em", obs.KV("m", p.EmOrder))
	em, chunks, err := embound.EmWorkers(s, p.Gap, p.EmOrder, p.Workers)
	emSpan.SetAttr("e_m", em)
	emSpan.SetAttr("chunks", chunks)
	emSpan.RecordError(err)
	emSpan.End()
	if err != nil {
		return nil, err
	}

	res := &core.Result{
		Algorithm: core.AlgoMPPm,
		Params:    p,
		SeqName:   s.Name(),
		SeqLen:    s.Len(),
		AutoN:     true,
		Em:        em,
		EmOrder:   p.EmOrder,
	}
	r := &runner{s: s, p: p, counter: counter, res: res}
	hat := r.seed()
	r.n = estimateN(counter, p, hat, em)
	res.N = r.n
	r.run(hat)
	return finishLevelRun(res, start, r.err)
}

// estimateN implements MPPm's automatic choice of n: for every
// StartLen < k <= l1, length-k frequent patterns can exist only if some
// length-StartLen pattern has support at least
// λ'(k, k−StartLen) · ρs · N_StartLen (Theorem 2 applied to the pattern's
// StartLen-character prefix). n is the largest k passing the test.
func estimateN(counter *combinat.Counter, p core.Params, start []hatEntry, em int64) int {
	var maxSup int64
	for _, e := range start {
		maxSup = max(maxSup, e.sup)
	}
	k0 := p.StartLen
	n := k0
	nk0 := counter.NlFloat(k0)
	for k := k0 + 1; k <= counter.L1(); k++ {
		th := embound.LambdaPrime(counter, k, k-k0, p.EmOrder, em) * p.MinSupport * nk0
		if core.Meets(maxSup, th) {
			n = k
		}
	}
	return n
}
