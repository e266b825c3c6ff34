// Package mine implements the paper's mining algorithms: the MPP
// level-wise miner (Figure 3), MPPm with automatic estimation of the
// longest-pattern length via the e_m bound, the adaptive refinement of
// Section 6, and the no-pruning enumeration baseline of Table 3.
package mine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/obs"
	"permine/internal/pil"
	"permine/internal/seq"
)

// runner drives one level-wise mining pass shared by MPP, MPPm and
// Enumerate.
//
// The level kernel is allocation-free in steady state: patterns travel as
// packed uint64 codes (decoded to characters only when a frequent pattern
// is emitted), candidate generation is a linear merge over code-sorted
// slices, and every join output is carved from per-worker pil.Arena slabs
// recycled double-buffered across levels. The scratch slices below are
// reused from level to level for the same reason.
type runner struct {
	s       *seq.Sequence
	p       core.Params
	counter *combinat.Counter
	n       int // effective longest-pattern estimate (clamped to l1)
	res     *core.Result
	err     error // set when a level is aborted (e.g. overflow guard)

	// exhaustive is Enumerate's mode, read once per level and never inside
	// gen, countCandidates or collectLevel: L̂i is every counted pattern
	// (thresholds), a level is charged all |Σ|^i candidates, and
	// Params.CandidateBudget stops the run between levels.
	exhaustive bool

	// wide is set once the pattern length exceeds the alphabet's packed-
	// code capacity (seq.Alphabet.MaxPackedLen); beyond it hat entries are
	// keyed by explicit character strings instead of uint64 codes.
	wide bool

	arenas  []pil.Arena   // two per worker: arenas[2*w+parity(level)]
	joinScr []joinScratch // one per worker: cached suffix-run join state

	// mem accounts the run's retained PIL bytes against p.MemoryBudget:
	// Params.Mem when the caller installed one (the server's per-job
	// tracker), else ownMem so enforcement never depends on the caller.
	mem    *pil.MemTracker
	ownMem pil.MemTracker

	// Per-level scratch, reused across levels.
	hatBuf    [2][]hatEntry // double-buffered hat storage
	cands     []candidate
	joined    []countedList
	groups    []groupRun
	spans     [][2]int32
	spanStart []int32
	order     []int32
	prefU     []uint64 // packed prefix/suffix keys of the current hat
	sufU      []uint64
	prefS     []string // character prefix/suffix keys (wide levels)
	sufS      []string
}

// hatEntry is one pattern of L̂i: its identity (packed code, or chars on
// wide levels), its PIL and its support. A level's hat is sorted by
// pattern (ascending code, or ascending chars when wide).
type hatEntry struct {
	code  uint64
	chars string // set only on wide levels
	list  pil.List
	sup   int64
}

// candidate is a level-(i+1) candidate pattern: its parents P1 = prefix
// and P2 = suffix as indices into the current hat, plus its packed code
// (unused on wide levels, where the chars are derived from the parents
// only for candidates that survive counting).
type candidate struct {
	code   uint64
	prefix int32
	suffix int32
}

// countedList is the join output for one candidate: its support, or −1
// when the join stopped below the level's L̂ cut, and its list, nil unless
// the support reached that cut.
type countedList struct {
	list pil.List
	sup  int64
}

// supportCountLimit is the Nl ceiling beyond which int64 support counts
// could overflow (supports are bounded by Nl; a wide safety margin below
// 2^63 is kept). The paper's regimes sit far below it — hitting the
// guard means W and l are pathological for exact counting.
const supportCountLimit = 4e18

// checkOverflow aborts a level whose supports could exceed int64.
func (r *runner) checkOverflow(level int) error {
	if r.counter.NlFloat(level) > supportCountLimit {
		return fmt.Errorf("mine: N%d exceeds %g; int64 support counting would overflow (reduce the gap flexibility or sequence length)", level, float64(supportCountLimit))
	}
	return nil
}

// stealBatch is how many prefix groups a counting worker claims per grab
// of the shared work index. A group is one prefix pattern with all of its
// extension candidates (at most |Σ|), so a batch is on the order of
// 64·|Σ| candidates. Batches keep the atomic traffic and context checks
// invisible next to the joins while still letting workers steal around
// groups with unusually large PILs; the context is checked once per
// batch, bounding cancellation latency well below one level.
const stealBatch = 16

// cancelled wraps a context error observed at the given level into the
// typed core.CancelledError for this run's algorithm.
func (r *runner) cancelled(level int, err error) error {
	return &core.CancelledError{Algorithm: r.res.Algorithm, Level: level, Err: err}
}

// initMem wires the runner's memory tracker into its arenas. Must be
// called after r.arenas is sized and before any level is counted.
func (r *runner) initMem() {
	r.mem = r.p.Mem
	if r.mem == nil {
		r.mem = &r.ownMem
	}
	for i := range r.arenas {
		r.arenas[i].SetTracker(r.mem)
	}
}

// exhausted builds the typed budget-abort error for the given level.
func (r *runner) exhausted(level int) error {
	return &core.ResourceExhaustedError{
		Algorithm: r.res.Algorithm,
		Level:     level,
		Budget:    r.p.MemoryBudget,
		Used:      r.mem.Used(),
	}
}

// checkMemory aborts a run whose retained PIL bytes exceed the budget.
// Called between levels; the in-level guard lives in countCandidates.
func (r *runner) checkMemory(level int) error {
	if r.p.MemoryBudget > 0 && r.mem.Used() > r.p.MemoryBudget {
		return r.exhausted(level)
	}
	return nil
}

// lambda returns the pruning factor applied at level i: λ(n, n−i) for
// i <= n, and 1 beyond n (Figure 3 lines 6–7: best-effort region).
func (r *runner) lambda(i int) float64 {
	if i >= r.n {
		return 1
	}
	return r.counter.Lambda(r.n, r.n-i)
}

// levelStats accumulates the physical counting work of one level, feeding
// the telemetry fields of core.LevelMetrics.
type levelStats struct {
	joins     int64 // PIL merge joins performed
	entries   int64 // prefix entries those joins visited plus their suffix lengths
	abandoned int64 // joins stopped by the L̂ bound, support unknown
	twoPtr    int64 // joins executed by each strategy; sum == joins
	cum       int64
	cumFalls  int64 // joins whose cum selection was capped by maxCumSpan
	gen       time.Duration
	count     time.Duration
}

// annotateLevelSpan attaches one level's metrics to its tracing span so a
// trace of a mining job carries the paper's Table 3 live.
func annotateLevelSpan(span *obs.Span, lm core.LevelMetrics) {
	if span == nil {
		return
	}
	span.SetAttr("level", lm.Level)
	span.SetAttr("candidates", lm.Candidates)
	span.SetAttr("frequent", lm.Frequent)
	span.SetAttr("kept", lm.Kept)
	span.SetAttr("pruned_by_lambda", lm.PrunedByLambda)
	span.SetAttr("zero_support", lm.ZeroSupport)
	span.SetAttr("abandoned", lm.Abandoned)
	span.SetAttr("pil_joins", lm.PILJoins)
	span.SetAttr("pil_entries", lm.PILEntries)
	span.SetAttr("join_twoptr", lm.JoinTwoPointer)
	span.SetAttr("join_cum", lm.JoinCum)
	span.SetAttr("cum_span_fallbacks", lm.CumSpanFallbacks)
	span.SetAttr("lambda", lm.Lambda)
	span.SetAttr("gen_ms", float64(lm.GenElapsed)/float64(time.Millisecond))
	span.SetAttr("count_ms", float64(lm.CountElapsed)/float64(time.Millisecond))
}

// run executes the level loop starting from the given start-level PILs
// (code-sorted, zero-support patterns absent). It fills r.res.Patterns
// and r.res.Levels.
func (r *runner) run(start []pil.CodeList) {
	ctx := r.p.Context()
	i := r.p.StartLen
	alpha := r.s.Alphabet()
	alphaN := int64(alpha.Size())
	r.arenas = make([]pil.Arena, 2*r.workers())
	r.initMem()

	// Level StartLen: every |Σ|^StartLen combination is a candidate
	// (built by direct scan, so the candidate count is analytic).
	candCount := sigmaPow(alpha.Size(), i)
	// work is the exhaustive mode's CandidateBudget charge: the seed scan,
	// which Enumerate checked before scanning, then |L̂i|·|Σ| per level.
	work := candCount
	hat := r.hatBuf[i&1][:0]
	for _, cl := range start {
		hat = append(hat, hatEntry{code: cl.Code, list: cl.List, sup: cl.Sup})
	}
	r.hatBuf[i&1] = hat
	if i > alpha.MaxPackedLen() { // StartLen beyond capacity: widen the seed
		r.widen(hat, i)
	}
	// The scanned seed lists are read until level StartLen+1 is counted:
	// charge them like arena slabs, and credit them then, or when a run
	// that never gets there ends.
	var seedBytes int64
	for _, cl := range start {
		seedBytes += pil.EntryBytes * int64(len(cl.List))
	}
	r.mem.Charge(seedBytes)
	defer func() { r.mem.Charge(-seedBytes) }()

	_, seedSpan := obs.Start(ctx, "mine.level")
	hat = r.collectLevel(i, candCount, hat, r.thresholds(i), levelStats{})
	annotateLevelSpan(seedSpan, r.res.Levels[len(r.res.Levels)-1])
	seedSpan.End()

	for len(hat) > 0 {
		next := i + 1
		if r.counter.Nl(next).Sign() == 0 {
			break // next > l2: no offset sequences exist
		}
		if err := ctx.Err(); err != nil {
			r.err = r.cancelled(next, err)
			break
		}
		if r.exhaustive {
			joins := int64(len(hat)) * alphaN
			if work > r.p.CandidateBudget-joins {
				r.err = budgetStop(next)
				break
			}
			work += joins
		}
		if err := r.checkOverflow(next); err != nil {
			r.err = err
			break
		}
		if err := r.checkMemory(next); err != nil {
			r.err = err
			break
		}
		if !r.wide && next > alpha.MaxPackedLen() {
			r.widen(hat, i)
		}
		lctx, span := obs.Start(ctx, "mine.level")
		levelStart := time.Now()
		th := r.thresholds(next)
		var st levelStats
		cands := r.gen(hat, i)
		st.gen = time.Since(levelStart)
		countStart := time.Now()
		counted := r.countCandidates(lctx, next, hat, cands, th.cut, &st)
		st.count = time.Since(countStart)
		if i == r.p.StartLen {
			r.mem.Charge(-seedBytes)
			seedBytes = 0
		}
		if r.err != nil {
			span.SetAttr("level", next)
			span.RecordError(r.err)
			span.End()
			break
		}
		charge := int64(len(cands))
		if r.exhaustive {
			charge = sigmaPow(alpha.Size(), next)
		}
		kept := r.collectLevel(next, charge, counted, th, st)
		// collectLevel timed only itself; the level spans gen, count and collect.
		r.res.Levels[len(r.res.Levels)-1].Elapsed = time.Since(levelStart)
		annotateLevelSpan(span, r.res.Levels[len(r.res.Levels)-1])
		span.End()
		hat = kept
		i = next
	}
}

// sigmaPow returns |Σ|^i, saturated to math.MaxInt64: the candidate
// count of a level at which every pattern is a candidate.
func sigmaPow(sigma, i int) int64 {
	pow := int64(1)
	for ; i > 0; i-- {
		if pow > math.MaxInt64/int64(sigma) {
			return math.MaxInt64
		}
		pow *= int64(sigma)
	}
	return pow
}

// budgetStop is the error of an enumeration run whose CandidateBudget
// would be exceeded by counting the given level.
func budgetStop(level int) error {
	return fmt.Errorf("mine: enumeration stopped at level %d: %w", level, core.ErrBudgetExceeded)
}

// workers returns the effective counting worker count (>= 1).
func (r *runner) workers() int {
	if r.p.Workers < 1 {
		return 1
	}
	return r.p.Workers
}

// widen decodes the packed codes of a length-k hat into character strings
// and switches the runner to the wide (string-keyed) path: the next level
// would not fit a uint64 code. Character order equals code order, so the
// hat stays sorted under its new keys.
func (r *runner) widen(hat []hatEntry, k int) {
	alpha := r.s.Alphabet()
	for j := range hat {
		hat[j].chars = alpha.DecodePacked(hat[j].code, k)
	}
	r.wide = true
}

// levelThresholds are one level's support cut-offs: freq admits a pattern
// to Li, and a support of at least cut admits it to L̂i — cut is
// core.SupportCut of λ·ρs·N_i, the integer form of core.Meets, or 0 in
// exhaustive mode. λ ≤ 1, so every pattern meeting freq also reaches cut.
type levelThresholds struct {
	nl   float64 // N_i
	lam  float64 // λ(n, n−i)
	freq float64 // ρs·N_i
	cut  int64   // smallest support in L̂i
}

// thresholds samples the effective ρs once for level i. run passes the
// result to both countCandidates and collectLevel, so the joins that
// commit their lists are exactly the entries collectLevel keeps. A top-K
// heap's rising K-th ratio thus tightens both thresholds for whole levels
// at a time, pruning candidate subtrees against the current K-th support,
// not the user's floor.
//
// In exhaustive mode λ is 0 and so is cut, which the join kernels read as
// "never stop, keep every output": L̂i is every counted pattern of
// non-zero support, and no join is abandoned.
func (r *runner) thresholds(i int) levelThresholds {
	nl := r.counter.NlFloat(i)
	freq := r.p.EffectiveMinSupport() * nl
	if r.exhaustive {
		return levelThresholds{nl: nl, freq: freq}
	}
	lam := r.lambda(i)
	return levelThresholds{nl: nl, lam: lam, freq: freq, cut: core.SupportCut(lam * freq)}
}

// collectLevel applies the Li / L̂i thresholds th to the counted entries
// of level i, records metrics and frequent patterns, and returns L̂i
// (compacted in place) for candidate generation. entries holds the
// candidates whose joins finished with a non-zero support, in pattern
// order; the rest of candidates are the level's zero-support and
// abandoned joins (st.abandoned). An entry below th.cut carries a nil
// list (its join committed nothing); only its support is read.
//
// Query hooks (Params.Hooks) thread the interactive layer in here:
// Emit/OnFrequent filter and observe emitted patterns, and KeepCandidate
// drops hat entries whose descendants are known useless (counted in
// PrunedByLambda). Plain runs (nil hooks) keep the no-decode fast path
// for infrequent entries.
func (r *runner) collectLevel(i int, candidates int64, entries []hatEntry, th levelThresholds, st levelStats) []hatEntry {
	start := time.Now()
	alpha := r.s.Alphabet()
	hooks := r.p.Hooks

	kept := entries[:0]
	var frequent int64
	for _, e := range entries {
		chars := e.chars
		haveChars := r.wide
		if core.Meets(e.sup, th.freq) {
			frequent++
			if !haveChars {
				chars = alpha.DecodePacked(e.code, i)
				haveChars = true
			}
			if hooks == nil || hooks.Emit == nil || hooks.Emit(chars) {
				p := core.Pattern{
					Chars:   chars,
					Support: e.sup,
					Ratio:   float64(e.sup) / th.nl,
				}
				r.res.Patterns = append(r.res.Patterns, p)
				if hooks != nil && hooks.OnFrequent != nil {
					hooks.OnFrequent(p)
				}
			}
		}
		if e.sup >= th.cut {
			if hooks != nil && hooks.KeepCandidate != nil {
				if !haveChars {
					chars = alpha.DecodePacked(e.code, i)
				}
				if !hooks.KeepCandidate(chars) {
					continue
				}
			}
			kept = append(kept, e)
		}
	}
	zero := candidates - int64(len(entries)) - st.abandoned
	if zero < 0 {
		zero = 0 // analytic candidate counts can saturate below the entry count
	}
	lm := core.LevelMetrics{
		Level:            i,
		Candidates:       candidates,
		Frequent:         frequent,
		Kept:             int64(len(kept)),
		PrunedByLambda:   int64(len(entries)) - int64(len(kept)),
		ZeroSupport:      zero,
		Abandoned:        st.abandoned,
		PILJoins:         st.joins,
		PILEntries:       st.entries,
		JoinTwoPointer:   st.twoPtr,
		JoinCum:          st.cum,
		CumSpanFallbacks: st.cumFalls,
		Lambda:           th.lam,
		Elapsed:          time.Since(start),
		GenElapsed:       st.gen,
		CountElapsed:     st.count,
	}
	r.res.Levels = append(r.res.Levels, lm)
	r.p.ReportLevel(lm)
	return kept
}

// gen implements Gen(L̂i): join every P1, P2 in L̂i with
// suffix(P1) == prefix(P2) into the candidate P1[0] + P2. The hat is
// sorted by pattern, so entries sharing a (k−1)-prefix form contiguous
// runs; genSpans matches every P1's suffix against those runs with one
// integer sort and a linear merge — no maps, no string sorts — and the
// emission loop below yields candidates already in pattern order (the
// candidate P1·c inherits P1's rank, then the extension symbol's).
func (r *runner) gen(hat []hatEntry, k int) []candidate {
	n := len(hat)
	r.spans = sliceFor(r.spans, n)
	r.order = sliceFor(r.order, n)
	if r.wide {
		r.prefS = sliceFor(r.prefS, n)
		r.sufS = sliceFor(r.sufS, n)
		for j, e := range hat {
			r.prefS[j] = e.chars[:k-1]
			r.sufS[j] = e.chars[1:]
		}
		genSpans(r.prefS, r.sufS, r.order, r.spans)
	} else {
		sigma := uint64(r.s.Alphabet().Size())
		powKm1 := uint64(1)
		for j := 1; j < k; j++ {
			powKm1 *= sigma
		}
		r.prefU = sliceFor(r.prefU, n)
		r.sufU = sliceFor(r.sufU, n)
		for j, e := range hat {
			r.prefU[j] = e.code / sigma
			r.sufU[j] = e.code % powKm1
		}
		genSpans(r.prefU, r.sufU, r.order, r.spans)
	}

	sigma := uint64(r.s.Alphabet().Size())
	cands := r.cands[:0]
	for i1 := range hat {
		lo, hi := r.spans[i1][0], r.spans[i1][1]
		for j := lo; j < hi; j++ {
			c := candidate{prefix: int32(i1), suffix: j}
			if !r.wide {
				c.code = hat[i1].code*sigma + hat[j].code%sigma
			}
			cands = append(cands, c)
		}
	}
	r.cands = cands

	// Counting order: candidates are stored in pattern order (prefix-major
	// over the hat), but the counting loop walks groups sorted by the
	// prefix's *suffix key* — r.order, a by-product of the span merge. All
	// groups sharing a suffix key join against the same contiguous run of
	// suffix PILs, so visiting them back to back keeps that run cache-hot
	// instead of re-fetching it from memory once per extension symbol.
	groups := r.groups[:0]
	candStart := int32(0)
	r.spanStart = sliceFor(r.spanStart, n)
	for i1 := range hat {
		r.spanStart[i1] = candStart
		candStart += r.spans[i1][1] - r.spans[i1][0]
	}
	// uses counts the groups sharing each suffix run: r.order puts equal
	// suffix keys back to back, and distinct keys have disjoint prefix
	// runs, so runs of an identical span in this walk are exactly the
	// groups that will join against the same suffix PILs. countCandidates
	// uses the count to decide whether building a pil.CumTable for those
	// PILs pays for itself.
	curSpan := [2]int32{-1, -1}
	runStart := 0
	flush := func(end int) {
		for j := runStart; j < end; j++ {
			groups[j].uses = int32(end - runStart)
		}
	}
	for _, i1 := range r.order {
		lo, hi := r.spans[i1][0], r.spans[i1][1]
		if hi > lo {
			if sp := (r.spans[i1]); sp != curSpan {
				flush(len(groups))
				runStart = len(groups)
				curSpan = sp
			}
			s := r.spanStart[i1]
			groups = append(groups, groupRun{prefix: i1, start: s, end: s + (hi - lo)})
		}
	}
	flush(len(groups))
	r.groups = groups
	return cands
}

// sliceFor resizes buf to length n, reusing its backing array.
func sliceFor[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// genSpans computes, for every hat index i, the contiguous run [lo, hi)
// of hat indices whose (k−1)-prefix key equals i's (k−1)-suffix key —
// i.e. the set of P2 parents joinable after P1 = hat[i]. prefixes is
// ascending (the hat is pattern-sorted); suffixes is matched against it
// by sorting the index vector order and merging, O(n log n) integer or
// string-slice work with no hashing.
func genSpans[K cmp.Ordered](prefixes, suffixes []K, order []int32, spans [][2]int32) {
	n := len(prefixes)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(suffixes[a], suffixes[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	oi := 0
	for gi := 0; gi < n; {
		ge := gi + 1
		for ge < n && prefixes[ge] == prefixes[gi] {
			ge++
		}
		for oi < n && suffixes[order[oi]] < prefixes[gi] {
			spans[order[oi]] = [2]int32{0, 0}
			oi++
		}
		for oi < n && suffixes[order[oi]] == prefixes[gi] {
			spans[order[oi]] = [2]int32{int32(gi), int32(ge)}
			oi++
		}
		gi = ge
	}
	for ; oi < n; oi++ {
		spans[order[oi]] = [2]int32{0, 0}
	}
}

// groupRun is one prefix group of the candidate list: cands[start:end)
// all extend the same parent P1 = hat[prefix], so they share P1's PIL as
// join prefix. gen emits groups sorted by P1's suffix key (see the
// counting-order note there), not by candidate position; uses is the
// number of consecutive groups joining against the same suffix run.
type groupRun struct {
	prefix     int32
	start, end int32
	uses       int32
}

// joinScratch is one counting worker's cached join state for the suffix
// run of the group it is processing (indexed by position within the run):
// the strategy chosen for each list, the cumulative tables built for the
// lists that warrant one, and whether the choice was capped away from the
// cumulative table by maxCumSpan.
type joinScratch struct {
	strat  []core.JoinStrategy
	capped []bool
	tables []pil.CumTable
}

// maxCumSpan caps a CumTable's X span (8 MiB of int64 per table) so a
// pathological dense-and-long list cannot balloon worker memory. Lists
// capped here fall back to the two-pointer scan, and the capped joins are
// surfaced as LevelMetrics.CumSpanFallbacks.
const maxCumSpan = 1 << 20

// joinChoice picks the join strategy for suffix list s, joined by uses
// groups of candidates. forced pins the choice, subject only to the span
// memory guard (a guarded list degrades to the two-pointer scan, which
// needs no table).
//
// Under JoinAuto the cumulative table wins whenever its O(span) build
// amortizes over the uses joins it serves and the span fits maxCumSpan:
// per prefix entry it answers the whole window with two loads and a
// subtraction. Sparser lists stay on the two-pointer scan, whose cost
// tracks the live entries rather than the span. The returned cumCapped
// flag reports that the cumulative table was chosen (by amortization or
// by force) but maxCumSpan blocked it, the fallback metric.
func joinChoice(forced core.JoinStrategy, s pil.List, uses int32) (strat core.JoinStrategy, cumCapped bool) {
	span := int(s[len(s)-1].X) - int(s[0].X) + 1
	switch forced {
	case core.JoinTwoPointer:
		return core.JoinTwoPointer, false
	case core.JoinAuto:
		if span > 4*int(uses)*len(s) {
			return core.JoinTwoPointer, false
		}
	}
	if span > maxCumSpan {
		return core.JoinTwoPointer, true
	}
	return core.JoinCum, false
}

// countCandidates computes the PIL and support of every candidate by
// joining the parents' PILs, fanning out over Params.Workers goroutines
// that claim stealBatch-sized runs of prefix groups from a shared atomic
// index (so a worker stuck on oversized PILs never idles the rest).
//
// Groups are walked in the suffix-key order prepared by gen: all groups
// sharing a suffix key join against the same contiguous run of suffix
// PILs, so consecutive groups hit warm cache lines instead of streaming
// every suffix list from memory once per extension symbol. Results are
// still written at each candidate's own index, so the output order (and
// therefore the mined result) is independent of the walk order and of
// how workers interleave.
//
// Join outputs land in the claiming worker's arena for the level's
// parity; every arena of that parity holds only lists dead since two
// levels ago and is reset here before counting starts. Both kernels take
// cut, the level's L̂ cut: a join commits its output only when its
// support reaches cut, so each arena holds just the lists of L̂ (gen
// never joins the others), and a join stops as soon as its support
// provably stays below cut. A stopped join is counted in st.abandoned and
// yields no entry, since its support is unknown; it could not have been
// kept, nor frequent (λ ≤ 1). Workers carry pprof labels
// (permine_phase/permine_level) so CPU profiles taken via -pprof-addr
// attribute time to mining phases.
//
// Zero-support and stopped joins yield no entry; order follows cands. The
// context is checked every batch (in every worker); on cancellation
// counting stops early, r.err is set to a typed core.CancelledError and
// nil is returned — partial counts are never reported as results.
func (r *runner) countCandidates(ctx context.Context, level int, hat []hatEntry, cands []candidate, cut int64, st *levelStats) []hatEntry {
	n := len(cands)
	r.joined = sliceFor(r.joined, n)
	joined := r.joined
	groups := r.groups
	parity := level & 1
	workers := r.workers()
	if len(r.joinScr) < workers {
		r.joinScr = make([]joinScratch, workers)
	}
	for w := 0; w < workers; w++ {
		r.arenas[2*w+parity].Reset()
	}
	gap := r.p.Gap
	forced := r.p.Join

	mem, memBudget := r.mem, r.p.MemoryBudget

	var stop, memHit atomic.Bool
	var nextIdx atomic.Int64
	var joins, entries, abandoned atomic.Int64
	var twoPtrJoins, cumJoins, cumFalls atomic.Int64
	work := func(w int) {
		arena := &r.arenas[2*w+parity]
		sc := &r.joinScr[w]
		curLo, curW := int32(-1), int32(-1)
		var nJoins, nEntries, nAbandoned int64
		var nTwoPtr, nCum, nFalls int64
		defer func() {
			joins.Add(nJoins)
			entries.Add(nEntries)
			abandoned.Add(nAbandoned)
			twoPtrJoins.Add(nTwoPtr)
			cumJoins.Add(nCum)
			cumFalls.Add(nFalls)
		}()
		for {
			if stop.Load() {
				return
			}
			if ctx.Err() != nil {
				stop.Store(true)
				return
			}
			if memBudget > 0 && mem.Used() > memBudget {
				memHit.Store(true)
				stop.Store(true)
				return
			}
			from := int(nextIdx.Add(stealBatch)) - stealBatch
			if from >= len(groups) {
				return
			}
			to := from + stealBatch
			if to > len(groups) {
				to = len(groups)
			}
			for gi := from; gi < to; gi++ {
				g := groups[gi]
				spanLo, width := cands[g.start].suffix, g.end-g.start
				if spanLo != curLo || width != curW {
					// New suffix run: pick a strategy per list and
					// build the tables the choices need. Runs repeat
					// across consecutive groups (gen's suffix-key
					// order), so this amortizes.
					curLo, curW = spanLo, width
					for int32(len(sc.tables)) < width {
						sc.tables = append(sc.tables, pil.CumTable{})
						sc.tables[len(sc.tables)-1].SetTracker(mem)
						sc.strat = append(sc.strat, core.JoinAuto)
						sc.capped = append(sc.capped, false)
					}
					for j := int32(0); j < width; j++ {
						s := hat[spanLo+j].list
						sc.strat[j], sc.capped[j] = joinChoice(forced, s, g.uses)
						if sc.strat[j] == core.JoinCum {
							sc.tables[j].Build(s)
						}
					}
				}
				prefix := hat[g.prefix].list
				for idx := g.start; idx < g.end; idx++ {
					suffix := &hat[cands[idx].suffix]
					var list pil.List
					var sup int64
					var visited int
					j := idx - g.start
					if sc.strat[j] == core.JoinCum {
						list, sup, visited = pil.JoinCum(arena, prefix, &sc.tables[j], cut, gap)
						nCum++
					} else {
						list, sup, visited = pil.JoinInto(arena, prefix, suffix.list, suffix.sup, cut, gap)
						nTwoPtr++
					}
					if sc.capped[j] {
						nFalls++
					}
					if visited < len(prefix) {
						nAbandoned++
						sup = -1 // stopped: unknown, and below cut
					}
					joined[idx] = countedList{list: list, sup: sup}
					nJoins++
					nEntries += int64(visited + len(suffix.list))
				}
			}
		}
	}
	if workers <= 1 || len(groups) < stealBatch {
		work(0)
	} else {
		labels := pprof.Labels("permine_phase", "count", "permine_level", strconv.Itoa(level))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pprof.Do(ctx, labels, func(context.Context) { work(w) })
			}(w)
		}
		wg.Wait()
	}
	st.joins += joins.Load()
	st.entries += entries.Load()
	st.abandoned += abandoned.Load()
	st.twoPtr += twoPtrJoins.Load()
	st.cum += cumJoins.Load()
	st.cumFalls += cumFalls.Load()
	if err := ctx.Err(); err != nil {
		r.err = r.cancelled(level, err)
		return nil
	}
	if memHit.Load() {
		// The in-flight level's partial counts are discarded; completed
		// levels stay valid and travel with the error as a partial result.
		r.err = r.exhausted(level)
		return nil
	}
	out := r.hatBuf[level&1][:0]
	for idx, c := range cands {
		if joined[idx].sup <= 0 {
			continue
		}
		e := hatEntry{code: c.code, list: joined[idx].list, sup: joined[idx].sup}
		if r.wide {
			e.chars = hat[c.prefix].chars[:1] + hat[c.suffix].chars
		}
		out = append(out, e)
	}
	r.hatBuf[level&1] = out
	return out
}
