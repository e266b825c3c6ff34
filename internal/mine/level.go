// Package mine implements the paper's mining algorithms: the MPP
// level-wise miner (Figure 3), MPPm with automatic estimation of the
// longest-pattern length via the e_m bound, the adaptive refinement of
// Section 6, and the no-pruning enumeration baseline of Table 3.
package mine

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
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
// The level kernel is allocation-free in steady state: a pattern is keyed
// by its two parents in the previous level's hat (hatEntry), so candidate
// generation is integer counting passes at every length; a level's
// characters sit in one byte buffer, read only to emit patterns and call
// the query hooks; and every join output is carved from per-worker
// pil.Arena slabs recycled double-buffered across levels. The scratch
// slices below are reused from level to level for the same reason.
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

	arenas  []pil.Arena   // two per worker: arenas[2*w+parity(level)]
	joinScr []joinScratch // one per worker: cached suffix-run join state

	// mem accounts the run's retained PIL bytes against p.MemoryBudget:
	// Params.Mem when the caller installed one (the server's per-job
	// tracker), else ownMem so enforcement never depends on the caller.
	mem    *pil.MemTracker
	ownMem pil.MemTracker

	// Per-level scratch, reused across levels. hatBuf and chars are
	// double-buffered by level parity: level i's entries and characters
	// are read while level i+1's are written.
	hatBuf [2][]hatEntry
	chars  [2][]byte // level i's characters, i bytes per hat entry
	cands  []candidate
	joined []countedList
	groups []groupRun
	runs   []int32 // gen: hat indices by prefix key
	uses   []int32 // gen: groups by suffix key
	at     []int32 // gen: next group slot by suffix key
}

// hatEntry is one counted pattern P of level i, and after collectLevel
// one pattern of L̂i: its generation keys, its PIL and its support. pre
// and suf stand for P's (i−1)-prefix and (i−1)-suffix: they are the
// indices in L̂(i−1) of the parents P1 and P2 that P was joined from, so
// Gen's test suffix(P1) == prefix(P2) is P1.suf == P2.pre. Both parents
// of a length-1 pattern are the empty pattern, so level 1 has pre = suf
// = 0 throughout (seed). A level's hat is in pattern order, so pre
// ascends. P's characters are bytes [j·i, (j+1)·i) of the level's
// character buffer, j being P's index.
type hatEntry struct {
	pre, suf int32
	list     pil.List
	sup      int64
}

// candidate is a level-(i+1) candidate P1·c: its parents P1 = prefix and
// P2 = suffix as indices into the current hat, c being P2's last
// character. Once counted, the two indices are the entry's pre and suf.
type candidate struct {
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
	cum       int64 // of either table layout
	compact   int64 // the cum joins on the compact layout
	cumFalls  int64 // joins whose dense-table choice was capped by maxCumSpan
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
	span.SetAttr("cum_compact", lm.CumCompact)
	span.SetAttr("cum_span_fallbacks", lm.CumSpanFallbacks)
	span.SetAttr("lambda", lm.Lambda)
	span.SetAttr("gen_ms", float64(lm.GenElapsed)/float64(time.Millisecond))
	span.SetAttr("count_ms", float64(lm.CountElapsed)/float64(time.Millisecond))
}

// run executes the level loop from hat, the start level's counted
// entries as seed built them, and fills r.res.Patterns and r.res.Levels.
// It does nothing when the seed was cancelled (r.err set).
func (r *runner) run(hat []hatEntry) {
	if r.err != nil {
		return
	}
	ctx := r.p.Context()
	i := r.p.StartLen
	alpha := r.s.Alphabet()
	alphaN := int64(alpha.Size())

	// Level StartLen: every |Σ|^StartLen combination is a candidate, as in
	// the paper's direct scan, so the candidate count is analytic.
	candCount := sigmaPow(alpha.Size(), i)
	// work is the exhaustive mode's CandidateBudget charge: the seed,
	// which Enumerate checked before building it, then |L̂i|·|Σ| per level.
	work := candCount

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
		lctx, span := obs.Start(ctx, "mine.level")
		levelStart := time.Now()
		th := r.thresholds(next)
		var st levelStats
		cands := r.gen(hat)
		st.gen = time.Since(levelStart)
		countStart := time.Now()
		counted := r.countCandidates(lctx, next, hat, cands, th.cut, &st)
		st.count = time.Since(countStart)
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

// seed builds the start level, of length StartLen, with the loop's own
// gen and countCandidates, and returns its counted entries. Level 1 is the
// length-1 lists (pil.Singles), one entry per symbol that occurs, in
// symbol-code order; every entry has pre = suf = 0, so gen joins every
// pair. Each level up to StartLen is counted with cut 0, which keeps every
// non-zero pattern, so the start level holds exactly the lists, supports
// and order of the paper's direct scan (pil.ScanKPacked). The levels below
// StartLen are not collected: they record no metrics and call no hooks.
// The memory budget is first checked at level StartLen+1, so the seed is
// built whole, and its joins are all two-pointer (countCandidates). Each
// level passes the overflow guard first, as every later level does. On
// overflow or cancellation r.err is set and nil is returned.
func (r *runner) seed() []hatEntry {
	r.arenas = make([]pil.Arena, 2*r.workers())
	r.initMem()
	alpha := r.s.Alphabet()
	hat, chars := r.hatBuf[1][:0], r.chars[1][:0]
	// Level 1's lists go to an arena of its parity, which the count of
	// level 3 resets once they are dead.
	for c, l := range pil.Singles(&r.arenas[1], r.s) {
		if len(l) > 0 {
			hat = append(hat, hatEntry{list: l, sup: int64(len(l))})
			chars = append(chars, alpha.Symbol(c))
		}
	}
	r.hatBuf[1], r.chars[1] = hat, chars
	ctx := r.p.Context()
	for i := 2; i <= r.p.StartLen && len(hat) > 0; i++ {
		if err := r.checkOverflow(i); err != nil {
			r.err = err
			return nil
		}
		var st levelStats
		hat = r.countCandidates(ctx, i, hat, r.gen(hat), 0, &st)
	}
	return hat
}

// levelThresholds are one level's support cut-offs, as integers: a
// support of at least freq admits a pattern to Li, and one of at least cut
// admits it to L̂i. Each is core.SupportCut of its threshold, ρs·N_i and
// λ·ρs·N_i, the integer form of core.Meets; cut is 0 in exhaustive mode.
// λ ≤ 1, so every pattern reaching freq also reaches cut.
type levelThresholds struct {
	nl   float64 // N_i
	lam  float64 // λ(n, n−i)
	freq int64   // smallest support in Li
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
	th := levelThresholds{nl: nl, freq: core.SupportCut(freq)}
	if !r.exhaustive {
		th.lam = r.lambda(i)
		th.cut = core.SupportCut(th.lam * freq)
	}
	return th
}

// collectLevel applies the Li / L̂i thresholds th to the counted entries
// of level i, records metrics and frequent patterns, and returns L̂i
// (compacted in place, with the level's characters) for candidate
// generation. entries holds the candidates whose joins finished with a
// non-zero support, in pattern order; the rest of candidates are the
// level's zero-support and abandoned joins (st.abandoned). An entry below
// th.cut carries a nil list (its join committed nothing); only its
// support is read.
//
// Query hooks (Params.Hooks) thread the interactive layer in here:
// Emit/OnFrequent filter and observe emitted patterns, and KeepCandidate
// drops hat entries whose descendants are known useless (counted in
// PrunedByLambda). A pattern's characters become a string only when it
// is emitted or offered to KeepCandidate.
func (r *runner) collectLevel(i int, candidates int64, entries []hatEntry, th levelThresholds, st levelStats) []hatEntry {
	start := time.Now()
	hooks := r.p.Hooks
	chars := r.chars[i&1]

	kept := entries[:0]
	var frequent int64
	for j, e := range entries {
		pat := chars[j*i : (j+1)*i]
		var str string // pat as a string once needed; patterns are never empty
		if e.sup >= th.freq {
			frequent++
			str = string(pat)
			if hooks == nil || hooks.Emit == nil || hooks.Emit(str) {
				p := core.Pattern{
					Chars:   str,
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
				if str == "" {
					str = string(pat)
				}
				if !hooks.KeepCandidate(str) {
					continue
				}
			}
			copy(chars[len(kept)*i:], pat)
			kept = append(kept, e)
		}
	}
	r.chars[i&1] = chars[:len(kept)*i]
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
		CumCompact:       st.compact,
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
// suffix(P1) == prefix(P2), that is P1.suf == P2.pre, into the candidate
// P1·c, c being P2's last character. The hat is in pattern order, so pre
// ascends and the entries sharing a prefix key form one run: a counting
// pass over pre finds every run, and each P1 joins the run of its suf.
// Candidates come out prefix-major over the hat, which is pattern order
// (P1·c inherits P1's rank, then c's).
func (r *runner) gen(hat []hatEntry) []candidate {
	keys := 0 // every pre and suf is below keys
	for _, e := range hat {
		keys = max(keys, int(e.pre)+1, int(e.suf)+1)
	}
	// runs[v] .. runs[v+1] are the hat indices whose pre is v.
	runs := sliceFor(r.runs, keys+1)
	clear(runs)
	for _, e := range hat {
		runs[e.pre+1]++
	}
	for v := 1; v <= keys; v++ {
		runs[v] += runs[v-1]
	}

	// Counting order: the counting loop walks the prefix groups by P1's
	// suffix key, not by P1. All groups sharing a suffix key join against
	// the same run of suffix PILs, so visiting them back to back keeps
	// that run cache-hot instead of re-fetching it from memory once per
	// extension symbol. A counting pass over suf buckets the groups, and
	// a bucket's size is the uses count of each of its groups:
	// countCandidates reads it to decide whether building a pil.CumTable
	// for those PILs pays for itself.
	uses := sliceFor(r.uses, keys)
	clear(uses)
	for _, e := range hat {
		if runs[e.suf] < runs[e.suf+1] {
			uses[e.suf]++
		}
	}
	at := sliceFor(r.at, keys)
	var nGroups int32
	for v, u := range uses {
		at[v] = nGroups
		nGroups += u
	}
	groups := sliceFor(r.groups, int(nGroups))
	cands := r.cands[:0]
	for i1, e := range hat {
		lo, hi := runs[e.suf], runs[e.suf+1]
		if lo == hi {
			continue
		}
		first := int32(len(cands))
		groups[at[e.suf]] = groupRun{prefix: int32(i1), start: first, end: first + hi - lo, uses: uses[e.suf]}
		at[e.suf]++
		for j := lo; j < hi; j++ {
			cands = append(cands, candidate{prefix: int32(i1), suffix: j})
		}
	}
	r.runs, r.uses, r.at, r.cands, r.groups = runs, uses, at, cands, groups
	return cands
}

// sliceFor resizes buf to length n, reusing its backing array.
func sliceFor[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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
// the kernel chosen for each list, the cumulative tables built for the
// lists that take one, and whether the choice was capped away from the
// dense table by maxCumSpan.
type joinScratch struct {
	kern   []joinKernel
	capped []bool
	tables []pil.CumTable
}

// joinKernel is the kernel that joins against one suffix list: the
// two-pointer merge (pil.JoinInto), or pil.JoinCum on a table in the
// dense or the compact layout. Both table layouts are the cum strategy.
type joinKernel uint8

const (
	twoPointer joinKernel = iota
	denseCum
	compactCum
)

// maxCumSpan caps a dense table's X span (8 MiB of int64 per table) so a
// pathological dense-and-long list cannot balloon worker memory. Lists
// capped here take the compact layout, which needs no cap (pil.CumTable),
// and the capped joins are surfaced as LevelMetrics.CumSpanFallbacks.
const maxCumSpan = 1 << 20

// compactWordsPerUse is the compact layout's amortization rule: a list
// takes a compact table when its words, one per 64 span positions, are at
// most compactWordsPerUse·uses·|S|, so a table is never more than a small
// multiple of the lists it serves.
const compactWordsPerUse = 4

// joinChoice picks the join kernel for suffix list s, joined by uses
// groups of candidates. forced pins the strategy: twoptr takes the
// two-pointer merge, cum a table whatever the list's density.
//
// Under JoinAuto the dense table wins whenever its O(span) build
// amortizes over the uses joins it serves, span <= 4·uses·|S|: per
// prefix entry it answers the whole window with two loads and a
// subtraction. Sparser lists take the compact layout when its span/64
// words amortize by the same rule, compactWordsPerUse·uses·|S|: two
// ranks and two loads per prefix entry, and no walk over the suffix.
// Only lists sparser still stay on the two-pointer merge, whose cost
// tracks the live entries rather than the span. A dense choice whose
// span passes maxCumSpan takes the compact layout instead, and the
// returned capped flag reports it, the fallback metric.
func joinChoice(forced core.JoinStrategy, s pil.List, uses int32) (kern joinKernel, capped bool) {
	if forced == core.JoinTwoPointer {
		return twoPointer, false
	}
	span := int(s[len(s)-1].X) - int(s[0].X) + 1
	amortized := int(uses) * len(s)
	if forced == core.JoinAuto && span > 4*amortized {
		if (span+63)/64 > compactWordsPerUse*amortized {
			return twoPointer, false
		}
		return compactCum, false
	}
	if span > maxCumSpan {
		return compactCum, true
	}
	return denseCum, false
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
// levels ago and is reset here before counting starts. Every kernel takes
// cut, the level's L̂ cut: a join commits its output only when its
// support reaches cut, so each arena holds just the lists of L̂ (gen
// never joins the others), and a join stops as soon as its support
// provably stays below cut. A stopped join is counted in st.abandoned and
// yields no entry, since its support is unknown; it could not have been
// kept, nor frequent (λ ≤ 1). Workers carry pprof labels
// (permine_phase/permine_level) so CPU profiles taken via -pprof-addr
// attribute time to mining phases.
//
// Zero-support and stopped joins yield no entry. The others become the
// level's entries in cands order, each keyed by its parents (pre, suf =
// prefix, suffix), and their characters, P1's followed by P2's last, go
// to the level's character buffer. The context is checked every batch
// (in every worker); on cancellation counting stops early, r.err is set
// to a typed core.CancelledError and nil is returned — partial counts are
// never reported as results.
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
	if level <= r.p.StartLen {
		// The seed is built whole, as the paper's scan built it, and
		// without cumulative tables: a table stays charged for the rest
		// of the run, and the seed's dense lists would take one for
		// nearly every suffix list. Its strategy counters are never
		// reported.
		memBudget, forced = 0, core.JoinTwoPointer
	}

	var stop, memHit atomic.Bool
	var nextIdx atomic.Int64
	var joins, entries, abandoned atomic.Int64
	var twoPtrJoins, cumJoins, compactJoins, cumFalls atomic.Int64
	work := func(w int) {
		arena := &r.arenas[2*w+parity]
		sc := &r.joinScr[w]
		curLo, curW := int32(-1), int32(-1)
		var nJoins, nEntries, nAbandoned int64
		var nTwoPtr, nCum, nCompact, nFalls int64
		defer func() {
			joins.Add(nJoins)
			entries.Add(nEntries)
			abandoned.Add(nAbandoned)
			twoPtrJoins.Add(nTwoPtr)
			cumJoins.Add(nCum)
			compactJoins.Add(nCompact)
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
						sc.kern = append(sc.kern, twoPointer)
						sc.capped = append(sc.capped, false)
					}
					for j := int32(0); j < width; j++ {
						s := hat[spanLo+j].list
						sc.kern[j], sc.capped[j] = joinChoice(forced, s, g.uses)
						switch sc.kern[j] {
						case denseCum:
							sc.tables[j].Build(s)
						case compactCum:
							sc.tables[j].BuildCompact(s)
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
					if sc.kern[j] == twoPointer {
						list, sup, visited = pil.JoinInto(arena, prefix, suffix.list, suffix.sup, cut, gap)
						nTwoPtr++
					} else {
						list, sup, visited = pil.JoinCum(arena, prefix, &sc.tables[j], cut, gap)
						nCum++
						if sc.kern[j] == compactCum {
							nCompact++
						}
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
	st.compact += compactJoins.Load()
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
	k := level - 1 // the hat's pattern length
	prev := r.chars[k&1]
	out := r.hatBuf[level&1][:0]
	chars := r.chars[level&1][:0]
	for idx, c := range cands {
		if joined[idx].sup <= 0 {
			continue
		}
		out = append(out, hatEntry{pre: c.prefix, suf: c.suffix, list: joined[idx].list, sup: joined[idx].sup})
		p1 := int(c.prefix) * k
		chars = append(chars, prev[p1:p1+k]...)
		chars = append(chars, prev[(int(c.suffix)+1)*k-1])
	}
	r.hatBuf[level&1], r.chars[level&1] = out, chars
	return out
}
