package mine

import (
	"fmt"
	"math/big"
	"sort"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/pil"
	"permine/internal/seq"
)

// Enumerate runs the no-pruning baseline the paper compares against in
// Table 3: at every level all |Σ|^i patterns are candidates (the Apriori
// property does not hold, so nothing can be pruned on support grounds).
//
// Only candidates whose support can be non-zero (both parents have
// non-empty PILs) are physically counted — the rest have support zero by
// construction — but the per-level Candidates metric reports the full
// |Σ|^i the baseline is semantically charged for, as in the paper's
// Table 3.
//
// The run stops with Result.Truncated = true (and a wrapped
// core.ErrBudgetExceeded) when the cumulative *physical* counting work
// (PIL joins plus the |Σ|^StartLen seed scan) would exceed
// Params.CandidateBudget; completed levels remain valid.
func Enumerate(s *seq.Sequence, params core.Params) (*core.Result, error) {
	p, err := params.Normalize()
	if err != nil {
		return nil, err
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

	alphaN := int64(s.Alphabet().Size())
	sigmaPow := func(i int) *big.Int {
		return new(big.Int).Exp(big.NewInt(alphaN), big.NewInt(int64(i)), nil)
	}
	var work int64 // physical counting operations performed

	finish := func(truncated bool) (*core.Result, error) {
		res.Truncated = truncated
		res.SortPatterns()
		res.Elapsed = time.Since(start)
		if truncated {
			return res, fmt.Errorf("mine: enumeration stopped at level %d: %w",
				len(res.Levels)+p.StartLen, core.ErrBudgetExceeded)
		}
		return res, nil
	}

	ctx := p.Context()
	if err := ctx.Err(); err != nil {
		return nil, &core.CancelledError{Algorithm: core.AlgoEnumerate, Level: p.StartLen, Err: err}
	}

	// Enumeration joins on the heap (no arenas), so the memory budget is
	// charged over the retained per-level lists instead of slab growth:
	// heldBytes is the current level's, credited back once the next level
	// replaces it.
	mem := p.Mem
	if mem == nil {
		mem = pil.NewMemTracker(nil)
	}

	i := p.StartLen
	seedWork := int64(1)
	for k := 0; k < i; k++ {
		seedWork *= alphaN
	}
	if work += seedWork; work > p.CandidateBudget {
		return finish(true)
	}
	start3, err := pil.ScanKPacked(s, p.Gap, i)
	if err != nil {
		return nil, err
	}
	nonzero := make(map[string]pil.List, len(start3))
	sups := make(map[string]int64, len(start3))
	var heldBytes int64
	for _, cl := range start3 {
		chars := s.Alphabet().DecodePacked(cl.Code, i)
		nonzero[chars] = cl.List
		sups[chars] = cl.Sup
		heldBytes += pil.EntryBytes * int64(len(cl.List))
	}
	mem.Charge(heldBytes)
	r := &runner{s: s, p: p, counter: counter, n: counter.L2(), res: res}
	recordEnumLevel(r, i, sigmaPow(i), nonzero, sups, levelStats{})

	for len(nonzero) > 0 {
		next := i + 1
		if counter.Nl(next).Sign() == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, &core.CancelledError{Algorithm: core.AlgoEnumerate, Level: next, Err: err}
		}
		if work += int64(len(nonzero)) * alphaN; work > p.CandidateBudget {
			return finish(true)
		}
		if p.MemoryBudget > 0 && mem.Used() > p.MemoryBudget {
			res.Truncated = true
			res.SortPatterns()
			res.Elapsed = time.Since(start)
			return res, &core.ResourceExhaustedError{
				Algorithm: core.AlgoEnumerate, Level: next,
				Budget: p.MemoryBudget, Used: mem.Used(),
			}
		}
		levelStart := time.Now()
		var st levelStats
		nextPILs := make(map[string]pil.List)
		nextSups := make(map[string]int64)
		// Extend every non-zero pattern by every symbol; the
		// candidate's PIL joins prefix (the pattern) with suffix
		// (pattern[1:] + symbol), which must itself be non-zero.
		pats := make([]string, 0, len(nonzero))
		for chars := range nonzero {
			pats = append(pats, chars)
		}
		sort.Strings(pats)
		for pi, p1 := range pats {
			if pi%cancelBatch == 0 && ctx.Err() != nil {
				return nil, &core.CancelledError{Algorithm: core.AlgoEnumerate, Level: next, Err: ctx.Err()}
			}
			for c := 0; c < int(alphaN); c++ {
				suffix := p1[1:] + string(s.Alphabet().Symbol(c))
				sufList, ok := nonzero[suffix]
				if !ok {
					continue
				}
				cand := p1 + string(s.Alphabet().Symbol(c))
				st.joins++
				st.entries += int64(len(nonzero[p1]) + len(sufList))
				list, sup, _ := pil.JoinInto(nil, nonzero[p1], sufList, 0, 0, p.Gap)
				if len(list) > 0 {
					nextPILs[cand] = list
					nextSups[cand] = sup
				}
			}
		}
		st.count = time.Since(levelStart)
		var levelBytes int64
		for _, list := range nextPILs {
			levelBytes += pil.EntryBytes * int64(len(list))
		}
		// Both levels are live until nonzero is replaced below, so charge
		// the new one before crediting the old: the high-water sees both.
		mem.Charge(levelBytes)
		mem.Charge(-heldBytes)
		heldBytes = levelBytes
		recordEnumLevel(r, next, sigmaPow(next), nextPILs, nextSups, st)
		res.Levels[len(res.Levels)-1].Elapsed += time.Since(levelStart)
		nonzero = nextPILs
		sups = nextSups
		i = next
	}
	return finish(false)
}

// recordEnumLevel records metrics and frequent patterns for one
// enumeration level. Candidates is the analytic |Σ|^i charge (saturated to
// int64 range); sups holds each pattern's support, computed during the
// join pass so no list is re-scanned here.
func recordEnumLevel(r *runner, i int, charge *big.Int, pils map[string]pil.List, sups map[string]int64, st levelStats) {
	nl := r.counter.NlFloat(i)
	thFreq := r.p.MinSupport * nl
	var frequent int64
	pats := make([]string, 0, len(pils))
	for chars := range pils {
		pats = append(pats, chars)
	}
	sort.Strings(pats)
	for _, chars := range pats {
		sup := sups[chars]
		if core.Meets(sup, thFreq) {
			frequent++
			r.res.Patterns = append(r.res.Patterns, core.Pattern{
				Chars:   chars,
				Support: sup,
				Ratio:   float64(sup) / nl,
			})
		}
	}
	cand := int64(1<<63 - 1)
	if charge.IsInt64() {
		cand = charge.Int64()
	}
	zero := cand - int64(len(pils))
	if zero < 0 {
		zero = 0 // saturated charge
	}
	lm := core.LevelMetrics{
		Level:        i,
		Candidates:   cand,
		Frequent:     frequent,
		Kept:         int64(len(pils)),
		ZeroSupport:  zero,
		PILJoins:     st.joins,
		PILEntries:   st.entries,
		Lambda:       0,
		CountElapsed: st.count,
	}
	r.res.Levels = append(r.res.Levels, lm)
	r.p.ReportLevel(lm)
}
