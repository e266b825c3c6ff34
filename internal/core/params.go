// Package core defines the shared mining model: parameters, patterns,
// results and per-level metrics. The algorithms themselves live in
// internal/mine; this package keeps the vocabulary they exchange.
package core

import (
	"context"
	"encoding/json"
	"fmt"

	"permine/internal/combinat"
	"permine/internal/pil"
)

// Algorithm selects a mining strategy.
type Algorithm int

const (
	// AlgoMPP is the paper's MPP: apriori-like level-wise mining with
	// λ(n, n-i) pruning, guided by a user estimate n of the longest
	// frequent pattern length.
	AlgoMPP Algorithm = iota
	// AlgoMPPm is the paper's MPPm: MPP with n estimated automatically
	// from the e_m bound (Theorem 2).
	AlgoMPPm
	// AlgoAdaptive is the adaptive refinement sketched in the paper's
	// Section 6: run MPP with a small n, grow n to the longest pattern
	// found, repeat to fixpoint.
	AlgoAdaptive
	// AlgoEnumerate is the no-pruning baseline that counts every
	// candidate (the paper's "enumeration algorithm", Table 3).
	AlgoEnumerate
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoMPP:
		return "MPP"
	case AlgoMPPm:
		return "MPPm"
	case AlgoAdaptive:
		return "MPP-adaptive"
	case AlgoEnumerate:
		return "enumerate"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// JoinStrategy selects how the level-wise miners join PILs when counting
// candidate supports. All strategies compute identical results (the
// differential and fuzz suites prove byte-identical frequent-pattern
// output); the choice is purely a performance knob, so it is excluded
// from result caching identity, like Params.Workers.
type JoinStrategy int

const (
	// JoinAuto picks a kernel per suffix list from the density/reuse
	// heuristic in internal/mine: the dense cumulative table, its compact
	// layout, or the two-pointer merge (the default and the right choice
	// outside of debugging and benchmarking).
	JoinAuto JoinStrategy = iota
	// JoinTwoPointer forces the sliding-window two-pointer merge
	// (pil.JoinInto) everywhere.
	JoinTwoPointer
	// JoinCum forces the cumulative-support table join (pil.JoinCum)
	// everywhere: the dense layout wherever its span cap allows, the
	// compact layout beyond it.
	JoinCum
)

// String implements fmt.Stringer; the names double as the CLI/API values.
func (s JoinStrategy) String() string {
	switch s {
	case JoinAuto:
		return "auto"
	case JoinTwoPointer:
		return "twoptr"
	case JoinCum:
		return "cum"
	default:
		return fmt.Sprintf("JoinStrategy(%d)", int(s))
	}
}

// ParseJoinStrategy maps a strategy name ("auto", "twoptr", "cum") to
// its JoinStrategy value. The empty string is JoinAuto.
func ParseJoinStrategy(name string) (JoinStrategy, error) {
	switch name {
	case "", "auto":
		return JoinAuto, nil
	case "twoptr", "two-pointer":
		return JoinTwoPointer, nil
	case "cum", "cumulative":
		return JoinCum, nil
	case "bitap", "bitmap":
		// The bit-parallel bitmap kernel is retired. Journals and cluster
		// peers from older binaries still name it, and every strategy
		// gives identical results, so the name maps to auto.
		return JoinAuto, nil
	default:
		return 0, fmt.Errorf("core: unknown join strategy %q (want auto, twoptr, cum)", name)
	}
}

// MarshalJSON renders the strategy by name, so journaled and forwarded
// Params stay readable and stable across enum reordering.
func (s JoinStrategy) MarshalJSON() ([]byte, error) {
	if s < JoinAuto || s > JoinCum {
		return nil, fmt.Errorf("core: cannot marshal %v", s)
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts a strategy name (absent/empty means auto).
func (s *JoinStrategy) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	v, err := ParseJoinStrategy(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Params carries every knob of a mining run. The zero value is not usable;
// construct with the fields below and call Validate (the miners do).
type Params struct {
	// Gap is the gap requirement [N, M] between successive pattern
	// characters.
	Gap combinat.Gap

	// MinSupport is the support-ratio threshold ρs in [0, 1]:
	// P is frequent iff sup(P)/Nl >= MinSupport. Note the paper quotes
	// percentages (0.003% == 0.00003 here).
	MinSupport float64

	// MaxLen is the user's estimate n of the longest frequent pattern
	// length (MPP). Zero means "no idea": MPP uses l1, the worst case.
	// Values above l1 are clamped to l1, as in the paper.
	MaxLen int

	// EmOrder is the paper's m for MPPm (the order of the e_m bound).
	// Zero defaults to 8. Ignored by the other algorithms.
	EmOrder int

	// StartLen is the first mined pattern length. The paper starts at 3
	// (shorter patterns are uninteresting on small alphabets); zero
	// defaults to 3. Must be >= 1.
	StartLen int

	// Workers bounds the number of goroutines used for candidate
	// counting and for MPPm's e_m sweep. Zero or one means sequential;
	// values above MaxWorkers are rejected. Results are deterministic for
	// any value.
	Workers int

	// CandidateBudget caps the total number of candidates the
	// AlgoEnumerate baseline may count before aborting with
	// ErrBudgetExceeded. Zero defaults to 4 << 20. Ignored by MPP/MPPm,
	// whose pruning keeps candidate sets small.
	CandidateBudget int64

	// MemoryBudget caps the bytes of PIL memory (arena slabs and
	// cumulative tables) one mining run may retain before it aborts
	// with a *ResourceExhaustedError carrying the completed levels as a
	// partial result. Zero means unlimited (memory is still tracked, just
	// not enforced); the budget is checked between levels and between
	// candidate batches, so a run may transiently overshoot by at most one
	// batch of slab growth.
	MemoryBudget int64

	// Mem optionally receives the run's byte charges. The permined server
	// installs a per-job tracker chained to a process-global governor so
	// every worker's slab growth feeds one shared high-water mark; nil
	// makes the miner account privately (the budget is still enforced).
	Mem *pil.MemTracker `json:"-"`

	// TopK, when positive, asks for the K best frequent patterns by
	// support ratio instead of all of them. Plain miners in internal/mine
	// ignore it; route top-K runs through internal/query (or the permine
	// facade), which threads a dynamically rising threshold into the
	// level loop and prunes candidate subtrees against the current K-th
	// support.
	TopK int

	// Motif, when non-empty, restricts mining to patterns containing
	// this character string as a substring (targeted mining). Like TopK
	// it is interpreted by internal/query; the motif must be a string
	// over the subject sequence's alphabet.
	Motif string

	// Join pins the PIL join strategy used for support counting
	// (default JoinAuto: per-suffix-list heuristic). Results are
	// identical for every value; the forced strategies exist for
	// debugging, benchmarking and the differential suites.
	Join JoinStrategy `json:"Join,omitempty"`

	// Hooks optionally threads query-layer behaviour (dynamic
	// thresholds, targeted candidate filters) into the level-wise
	// miners. Installed by internal/query; nil for plain runs.
	Hooks *MineHooks `json:"-"`

	// Ctx optionally carries a context for cooperative cancellation. The
	// miners check it between levels and between candidate batches; a
	// cancelled run returns a *CancelledError wrapping ctx.Err(). Nil
	// means context.Background() (never cancelled).
	Ctx context.Context `json:"-"`

	// Progress, when non-nil, is called after each completed level with
	// that level's metrics, from the mining goroutine. Long-running
	// callers (e.g. the permined job manager) use it to expose live
	// per-level progress. Ignored for mining semantics.
	Progress func(LevelMetrics) `json:"-"`
}

// MineHooks lets the query layer reach into the level-wise miners (MPP
// and MPPm honor them; Adaptive and Enumerate run plain and are filtered
// afterwards). All funcs are optional (nil = no-op). Hooks are invoked
// from the mining goroutine, between levels and per emitted/kept entry;
// implementations must be cheap and must not retain the chars strings
// beyond the call.
type MineHooks struct {
	// Threshold returns a support-ratio floor that may exceed
	// Params.MinSupport. It is sampled once per level, before thresholds
	// are computed, so a whole level sees one consistent effective ρs.
	// The returned value must be non-decreasing over the run (a top-K
	// heap's K-th ratio is). Nil means MinSupport.
	Threshold func() float64

	// Emit filters which frequent patterns are recorded in the result
	// (e.g. targeted mining keeps only patterns containing the motif).
	// Filtered patterns still count as frequent for pruning purposes.
	Emit func(chars string) bool

	// OnFrequent observes every emitted pattern (after Emit), e.g. to
	// feed a top-K heap that backs Threshold.
	OnFrequent func(p Pattern)

	// KeepCandidate filters which frequent patterns seed the next
	// level's candidate generation. Dropped entries count toward the
	// level's PrunedByLambda metric. Dropping an entry must be sound:
	// no wanted pattern may descend from it.
	KeepCandidate func(chars string) bool
}

// EffectiveMinSupport returns the support-ratio floor for one level:
// MinSupport, raised by Hooks.Threshold when installed and higher.
func (p Params) EffectiveMinSupport() float64 {
	rho := p.MinSupport
	if p.Hooks != nil && p.Hooks.Threshold != nil {
		if t := p.Hooks.Threshold(); t > rho {
			rho = t
		}
	}
	return rho
}

// Context returns the run's context: Ctx, or context.Background() when nil.
func (p Params) Context() context.Context {
	if p.Ctx == nil {
		return context.Background()
	}
	return p.Ctx
}

// ReportLevel invokes the Progress callback, if any, with one completed
// level's metrics.
func (p Params) ReportLevel(lm LevelMetrics) {
	if p.Progress != nil {
		p.Progress(lm)
	}
}

// CancelledError reports a mining run aborted by its context. It wraps
// context.Canceled or context.DeadlineExceeded (test with errors.Is) and
// records the level at which the abort was observed.
type CancelledError struct {
	// Algorithm that was running.
	Algorithm Algorithm
	// Level is the pattern length about to be (or being) counted when
	// cancellation was observed.
	Level int
	// Err is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Err error
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("core: %s cancelled at level %d: %v", e.Algorithm, e.Level, e.Err)
}

// Unwrap exposes the underlying context error to errors.Is/As.
func (e *CancelledError) Unwrap() error { return e.Err }

// ParseAlgorithm maps a lower-case algorithm name ("mpp", "mppm",
// "adaptive", "enumerate") to its Algorithm value.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "mpp":
		return AlgoMPP, nil
	case "mppm":
		return AlgoMPPm, nil
	case "adaptive", "mpp-adaptive":
		return AlgoAdaptive, nil
	case "enumerate", "enum":
		return AlgoEnumerate, nil
	default:
		return 0, fmt.Errorf("core: unknown algorithm %q (want mpp, mppm, adaptive, enumerate)", name)
	}
}

// ErrBudgetExceeded is returned (wrapped) by the enumeration baseline when
// the candidate budget would be exceeded.
var ErrBudgetExceeded = fmt.Errorf("core: candidate budget exceeded")

// ErrMemoryExceeded is the sentinel every *ResourceExhaustedError unwraps
// to, so callers can test the class with errors.Is without naming the
// typed error.
var ErrMemoryExceeded = fmt.Errorf("core: memory budget exceeded")

// ResourceExhaustedError reports a mining run aborted by its memory
// budget. The run's completed levels are returned alongside it as a
// partial Result (Truncated = true), mirroring the candidate-budget
// behaviour of the enumeration baseline.
type ResourceExhaustedError struct {
	// Algorithm that was running.
	Algorithm Algorithm
	// Level is the pattern length being (or about to be) counted when the
	// budget check fired; that level's partial counts are discarded.
	Level int
	// Budget is the configured MemoryBudget in bytes.
	Budget int64
	// Used is the bytes charged when the guard fired.
	Used int64
}

// Error implements error.
func (e *ResourceExhaustedError) Error() string {
	return fmt.Sprintf("core: %s exhausted its memory budget at level %d (%d of %d bytes)",
		e.Algorithm, e.Level, e.Used, e.Budget)
}

// Unwrap exposes ErrMemoryExceeded to errors.Is.
func (e *ResourceExhaustedError) Unwrap() error { return ErrMemoryExceeded }

// Defaults for Params fields.
const (
	DefaultStartLen        = 3
	DefaultEmOrder         = 8
	DefaultCandidateBudget = 4 << 20

	// MaxWorkers caps Params.Workers, which can come from outside the
	// program (a job's params). Each worker costs a goroutine per level
	// and two PIL arenas per run whether or not there is a core to run
	// it, so an unbounded count only burns memory.
	MaxWorkers = 1024
)

// Normalize fills defaults and validates; it returns the effective Params.
func (p Params) Normalize() (Params, error) {
	if err := p.Gap.Validate(); err != nil {
		return p, err
	}
	if p.MinSupport < 0 || p.MinSupport > 1 {
		return p, fmt.Errorf("core: MinSupport %v out of range [0,1]", p.MinSupport)
	}
	if p.StartLen == 0 {
		p.StartLen = DefaultStartLen
	}
	if p.StartLen < 1 {
		return p, fmt.Errorf("core: StartLen %d must be >= 1", p.StartLen)
	}
	if p.MaxLen < 0 {
		return p, fmt.Errorf("core: MaxLen %d must be >= 0", p.MaxLen)
	}
	if p.EmOrder == 0 {
		p.EmOrder = DefaultEmOrder
	}
	if p.EmOrder < 1 {
		return p, fmt.Errorf("core: EmOrder %d must be >= 1", p.EmOrder)
	}
	if p.Workers < 0 || p.Workers > MaxWorkers {
		return p, fmt.Errorf("core: Workers %d out of range [0,%d]", p.Workers, MaxWorkers)
	}
	if p.Workers == 0 {
		p.Workers = 1
	}
	if p.CandidateBudget == 0 {
		p.CandidateBudget = DefaultCandidateBudget
	}
	if p.CandidateBudget < 0 {
		return p, fmt.Errorf("core: CandidateBudget %d must be >= 0", p.CandidateBudget)
	}
	if p.MemoryBudget < 0 {
		return p, fmt.Errorf("core: MemoryBudget %d must be >= 0", p.MemoryBudget)
	}
	if p.TopK < 0 {
		return p, fmt.Errorf("core: TopK %d must be >= 0", p.TopK)
	}
	if p.Join < JoinAuto || p.Join > JoinCum {
		return p, fmt.Errorf("core: unknown join strategy %d", int(p.Join))
	}
	return p, nil
}
