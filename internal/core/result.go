package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Pattern is one mined frequent pattern in shorthand notation: only the
// characters are stored; every adjacent pair is implicitly separated by
// g(N, M) gaps per the run's Params.
type Pattern struct {
	// Chars is the shorthand pattern string, e.g. "ATC".
	Chars string
	// Support is sup(P): the number of distinct matching offset
	// sequences.
	Support int64
	// Ratio is sup(P)/Nl, the quantity compared against MinSupport.
	Ratio float64
}

// Len returns the pattern length |P| (number of characters).
func (p Pattern) Len() int { return len(p.Chars) }

// Expand renders the pattern in the paper's explicit notation, e.g.
// "Ag(8,10)Tg(8,10)C".
func (p Pattern) Expand(n, m int) string {
	var b strings.Builder
	for i := 0; i < len(p.Chars); i++ {
		if i > 0 {
			fmt.Fprintf(&b, "g(%d,%d)", n, m)
		}
		b.WriteByte(p.Chars[i])
	}
	return b.String()
}

// String implements fmt.Stringer.
func (p Pattern) String() string {
	return fmt.Sprintf("%s sup=%d ratio=%.3g", p.Chars, p.Support, p.Ratio)
}

// LevelMetrics records what happened at one level (pattern length) of a
// level-wise mining run. It is the raw material of the paper's Table 3:
// where the candidates went (kept, pruned by λ, zero support), how much
// physical counting work the level cost, and how the time split between
// candidate generation and support counting.
type LevelMetrics struct {
	// Level is the pattern length i.
	Level int
	// Candidates is |Ci|: candidates generated and counted.
	Candidates int64
	// Frequent is |Li|: candidates meeting ρs·Ni.
	Frequent int64
	// Kept is |L̂i|: candidates meeting λ(n,n−i)·ρs·Ni and carried into
	// candidate generation for the next level.
	Kept int64
	// PrunedByLambda counts candidates whose PIL join finished with a
	// non-zero support below λ(n,n−i)·ρs·Ni, so the λ pruning of Theorem 1
	// dropped them from L̂i, plus those a query hook's KeepCandidate
	// dropped. Candidates == ZeroSupport + PrunedByLambda + Abandoned +
	// Kept.
	PrunedByLambda int64
	// ZeroSupport counts generated candidates whose PIL join finished and
	// produced no offset sequence at all (dead on arrival, no threshold
	// needed).
	ZeroSupport int64
	// Abandoned counts candidates whose PIL join stopped early because
	// its support provably stayed below L̂i's threshold: the suffix
	// support left to read, times the gap width W, could no longer close
	// the distance. Their supports are unknown, so they are in neither
	// ZeroSupport nor PrunedByLambda; none could have been kept or
	// frequent.
	Abandoned int64
	// PILJoins is the number of PIL merge joins performed to count this
	// level's candidates (0 for the direct-scan seed level).
	PILJoins int64
	// PILEntries is the PIL entries those joins read: the prefix entries
	// each join visited before it finished or stopped (a finished join
	// visits its whole prefix), plus its suffix list's length.
	PILEntries int64
	// JoinTwoPointer and JoinCum split PILJoins by the strategy that
	// executed each join (the two-pointer window merge, the
	// cumulative-support table in either of its layouts). Their sum
	// equals PILJoins; under Params.Join == JoinAuto the split records
	// what the density/reuse heuristic chose.
	JoinTwoPointer int64
	JoinCum        int64
	// CumCompact counts the JoinCum joins that read the table's compact
	// layout (a rank-indexed bitvector with prefix sums of Y by entry)
	// rather than its dense one: lists too sparse for a dense table, and
	// dense choices capped by CumSpanFallbacks' span limit.
	CumCompact int64
	// JoinBitap is always 0. It counted the joins of the retired
	// bit-parallel bitmap kernel, and stays so that readers of the JSON
	// and tools summing the three-way split keep working.
	JoinBitap int64
	// CumSpanFallbacks counts joins whose strategy selection favored the
	// dense cumulative table (or was forced to a table) but whose suffix
	// X span exceeded the maxCumSpan memory cap in internal/mine, so the
	// join read the compact layout instead; every one is also counted in
	// CumCompact. A non-zero count flags regimes where the strategy
	// selector is running capped — the cap used to be silent, which hid
	// selection regressions.
	CumSpanFallbacks int64
	// Lambda is the pruning factor λ(n, n−i) applied at this level.
	Lambda float64
	// Elapsed is wall-clock time spent on this level; GenElapsed and
	// CountElapsed split out candidate generation vs support counting.
	Elapsed      time.Duration
	GenElapsed   time.Duration
	CountElapsed time.Duration
}

// Result is the outcome of a mining run.
type Result struct {
	// Algorithm that produced the result.
	Algorithm Algorithm
	// Params echoes the effective (normalised) parameters.
	Params Params
	// SeqName and SeqLen identify the subject sequence.
	SeqName string
	SeqLen  int

	// N is the effective longest-pattern estimate used (after clamping
	// to l1, or as chosen by MPPm/adaptive refinement).
	N int
	// AutoN reports whether N was derived automatically (MPPm/adaptive).
	AutoN bool
	// Em is the measured e_m bound (MPPm only, else 0).
	Em int64
	// EmOrder is the m used to measure Em (MPPm only, else 0).
	EmOrder int

	// Patterns are all frequent patterns found, sorted by length then
	// lexicographically.
	Patterns []Pattern
	// Levels holds per-level candidate metrics in level order.
	Levels []LevelMetrics
	// Rounds, for the adaptive algorithm, records the n used in each
	// refinement round (nil otherwise).
	Rounds []int

	// Elapsed is the total wall-clock time of the run, including any
	// e_m measurement.
	Elapsed time.Duration
	// Truncated is set when a budget stopped the run early: the
	// enumeration baseline's candidate budget, or any miner's memory
	// budget (results are complete only up to the last finished level).
	Truncated bool
}

// Longest returns the length of the longest frequent pattern found
// (0 if none).
func (r *Result) Longest() int {
	longest := 0
	for _, p := range r.Patterns {
		if p.Len() > longest {
			longest = p.Len()
		}
	}
	return longest
}

// ByLength returns the frequent patterns of exactly length l.
func (r *Result) ByLength(l int) []Pattern {
	var out []Pattern
	for _, p := range r.Patterns {
		if p.Len() == l {
			out = append(out, p)
		}
	}
	return out
}

// Pattern returns the mined pattern with the given characters, if present.
func (r *Result) Pattern(chars string) (Pattern, bool) {
	for _, p := range r.Patterns {
		if p.Chars == chars {
			return p, true
		}
	}
	return Pattern{}, false
}

// Level returns the metrics row for pattern length l, if recorded.
func (r *Result) Level(l int) (LevelMetrics, bool) {
	for _, lv := range r.Levels {
		if lv.Level == l {
			return lv, true
		}
	}
	return LevelMetrics{}, false
}

// SortPatterns orders Patterns by length, then lexicographically. The
// miners call it before returning so output is deterministic.
func (r *Result) SortPatterns() {
	sort.Slice(r.Patterns, func(i, j int) bool {
		if len(r.Patterns[i].Chars) != len(r.Patterns[j].Chars) {
			return len(r.Patterns[i].Chars) < len(r.Patterns[j].Chars)
		}
		return r.Patterns[i].Chars < r.Patterns[j].Chars
	})
}

// Summary renders a short human-readable digest of the run.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s (L=%d) gap=%s ρs=%.4g%%: %d frequent patterns, longest %d, n=%d",
		r.Algorithm, r.SeqName, r.SeqLen, r.Params.Gap, r.Params.MinSupport*100,
		len(r.Patterns), r.Longest(), r.N)
	if r.AutoN {
		fmt.Fprintf(&b, " (auto, e_%d=%d)", r.EmOrder, r.Em)
	}
	fmt.Fprintf(&b, ", %v", r.Elapsed.Round(time.Millisecond))
	if r.Truncated {
		b.WriteString(" [truncated by candidate budget]")
	}
	return b.String()
}
