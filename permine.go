// Package permine mines frequently occurring periodic patterns with a gap
// requirement from character sequences, implementing the algorithms of
// Zhang, Kao, Cheung and Yip, "Mining Periodic Patterns with Gap
// Requirement from Sequences" (SIGMOD 2005).
//
// # Model
//
// Given a subject sequence S over a finite alphabet (DNA, protein, or
// custom) and a gap requirement [N, M], a pattern
//
//	P = a1 g(N,M) a2 g(N,M) ... g(N,M) al
//
// matches S with respect to an offset sequence [c1..cl] when S[cj] = aj
// and every consecutive pair of offsets is separated by a gap of N to M
// positions. sup(P) counts the distinct matching offset sequences, and P
// is frequent when sup(P)/Nl meets the support threshold ρs, where Nl is
// the total number of length-l offset sequences.
//
// # Algorithms
//
//   - MPP: level-wise mining with the paper's apriori-like λ(n, n−i)
//     pruning, guided by a user estimate n of the longest frequent
//     pattern length (complete up to n, best-effort beyond).
//   - MPPm: MPP with n estimated automatically from the e_m bound.
//   - Adaptive: the refinement loop sketched in the paper's Section 6.
//   - Enumerate: the no-pruning baseline (for comparison only).
//
// # Quick start
//
//	s, _ := permine.NewDNASequence("demo", "ACGTACGTACGT...")
//	res, err := permine.MPPm(s, permine.Params{
//		Gap:        permine.Gap{N: 9, M: 12},
//		MinSupport: 0.00003, // 0.003%
//	})
//	for _, p := range res.Patterns { fmt.Println(p) }
//
// See the examples directory for runnable programs and DESIGN.md for the
// paper-to-module map.
package permine

import (
	"context"
	"io"
	"math/big"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/embound"
	"permine/internal/pattern"
	"permine/internal/query"
	"permine/internal/seq"
)

// Gap is the gap requirement [N, M] between successive pattern characters.
type Gap = combinat.Gap

// Params carries the mining parameters; see the field docs in
// internal/core. MinSupport is the ratio ρs in [0,1] (0.003% = 0.00003).
type Params = core.Params

// Pattern is one mined frequent pattern (shorthand characters + support).
type Pattern = core.Pattern

// Result is the outcome of a mining run: patterns, per-level metrics and
// run metadata.
type Result = core.Result

// LevelMetrics records candidate/pruning counts for one pattern length.
type LevelMetrics = core.LevelMetrics

// Algorithm identifies a mining strategy.
type Algorithm = core.Algorithm

// Algorithm values.
const (
	AlgoMPP       = core.AlgoMPP
	AlgoMPPm      = core.AlgoMPPm
	AlgoAdaptive  = core.AlgoAdaptive
	AlgoEnumerate = core.AlgoEnumerate
)

// ErrBudgetExceeded wraps enumeration-baseline truncation.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// CancelledError reports a mining run aborted by its context; it wraps
// context.Canceled or context.DeadlineExceeded (test with errors.Is).
type CancelledError = core.CancelledError

// ParseAlgorithm maps an algorithm name ("mpp", "mppm", "adaptive",
// "enumerate") to its Algorithm value.
func ParseAlgorithm(name string) (Algorithm, error) { return core.ParseAlgorithm(name) }

// JoinStrategy selects how PIL joins count candidate supports; see
// Params.Join. Every strategy computes identical results.
type JoinStrategy = core.JoinStrategy

// JoinStrategy values.
const (
	JoinAuto       = core.JoinAuto
	JoinTwoPointer = core.JoinTwoPointer
	JoinCum        = core.JoinCum
)

// Alphabet is a finite ordered symbol set.
type Alphabet = seq.Alphabet

// Sequence is a validated character sequence over an Alphabet.
type Sequence = seq.Sequence

// Built-in alphabets.
var (
	DNA     = seq.DNA
	Protein = seq.Protein
)

// NewAlphabet builds a custom alphabet from distinct single-byte symbols.
func NewAlphabet(name, symbols string) (*Alphabet, error) {
	return seq.NewAlphabet(name, symbols)
}

// NewSequence validates data against the alphabet and builds a Sequence.
func NewSequence(alpha *Alphabet, name, data string) (*Sequence, error) {
	return seq.New(alpha, name, data)
}

// NewDNASequence builds a DNA sequence, accepting lower-case input.
func NewDNASequence(name, data string) (*Sequence, error) {
	return seq.NewDNA(name, data)
}

// ReadFASTA parses all records of a FASTA stream.
func ReadFASTA(r io.Reader, alpha *Alphabet) ([]*Sequence, error) {
	return seq.ReadFASTA(r, alpha)
}

// WriteFASTA writes sequences as FASTA records (width <= 0 means 70).
func WriteFASTA(w io.Writer, width int, seqs ...*Sequence) error {
	return seq.WriteFASTA(w, width, seqs...)
}

// MPP runs the paper's MPP algorithm (Figure 3). Params.MaxLen is the
// estimate n of the longest frequent pattern length; 0 means the worst
// case n = l1.
func MPP(s *Sequence, p Params) (*Result, error) { return query.Mine(AlgoMPP, s, p) }

// MPPm runs the paper's MPPm algorithm: MPP with n chosen automatically
// via the e_m bound of Theorem 2. Params.EmOrder is the paper's m
// (default 8).
func MPPm(s *Sequence, p Params) (*Result, error) { return query.Mine(AlgoMPPm, s, p) }

// Adaptive runs the adaptive-n refinement of the paper's Section 6:
// repeated MPP runs growing n to the longest pattern found, to fixpoint.
func Adaptive(s *Sequence, p Params) (*Result, error) { return query.Mine(AlgoAdaptive, s, p) }

// Enumerate runs the no-pruning baseline (Table 3's "enumeration
// algorithm"). It is exponential; Params.CandidateBudget bounds the work
// and a truncated run returns a wrapped ErrBudgetExceeded.
func Enumerate(s *Sequence, p Params) (*Result, error) { return query.Mine(AlgoEnumerate, s, p) }

// Mine dispatches to the named algorithm under the given context. The
// context is checked between levels and candidate batches; a cancelled run
// returns a *CancelledError wrapping ctx.Err(). This is the entry point
// long-running callers (servers, pipelines) should prefer.
//
// All entry points route through the internal/query layer, so
// Params.TopK (the K best patterns by support ratio) and Params.Motif
// (only patterns containing a character string) work everywhere.
func Mine(ctx context.Context, algo Algorithm, s *Sequence, p Params) (*Result, error) {
	switch algo {
	case AlgoMPP, AlgoMPPm, AlgoAdaptive, AlgoEnumerate:
	default:
		return nil, &UnknownAlgorithmError{Algorithm: algo}
	}
	p.Ctx = ctx
	return query.Mine(algo, s, p)
}

// UnknownAlgorithmError reports a Mine call with an Algorithm value
// outside the defined set.
type UnknownAlgorithmError struct{ Algorithm Algorithm }

// Error implements error.
func (e *UnknownAlgorithmError) Error() string {
	return "permine: unknown algorithm " + e.Algorithm.String()
}

// MPPContext is MPP with cooperative cancellation via ctx.
func MPPContext(ctx context.Context, s *Sequence, p Params) (*Result, error) {
	return Mine(ctx, AlgoMPP, s, p)
}

// MPPmContext is MPPm with cooperative cancellation via ctx.
func MPPmContext(ctx context.Context, s *Sequence, p Params) (*Result, error) {
	return Mine(ctx, AlgoMPPm, s, p)
}

// AdaptiveContext is Adaptive with cooperative cancellation via ctx.
func AdaptiveContext(ctx context.Context, s *Sequence, p Params) (*Result, error) {
	return Mine(ctx, AlgoAdaptive, s, p)
}

// EnumerateContext is Enumerate with cooperative cancellation via ctx.
func EnumerateContext(ctx context.Context, s *Sequence, p Params) (*Result, error) {
	return Mine(ctx, AlgoEnumerate, s, p)
}

// Support computes sup(P) of the shorthand pattern (e.g. "ATC") on s
// under the gap requirement, using partial index lists; cost O(|P|·L).
// It is SupportOf on the pattern with g between every pair of characters.
func Support(s *Sequence, chars string, g Gap) (int64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if chars == "" {
		return 0, nil
	}
	p := &pattern.Pattern{Chars: chars, Gaps: make([]Gap, len(chars)-1)}
	for i := range p.Gaps {
		p.Gaps[i] = g
	}
	return pattern.Support(s, p)
}

// CountOffsets returns Nl: the exact number of distinct length-l offset
// sequences in a subject sequence of length L under the gap requirement
// (the paper's Section 4.1).
func CountOffsets(L, l int, g Gap) (*big.Int, error) {
	c, err := combinat.NewCounter(L, g)
	if err != nil {
		return nil, err
	}
	return new(big.Int).Set(c.Nl(l)), nil
}

// Em computes the paper's e_m bound (Section 4.2) for the sequence: the
// maximum multiplicity of any character pattern over the length-(m+1)
// offset sequences sharing a start position.
func Em(s *Sequence, g Gap, m int) (int64, error) {
	return embound.Em(s, g, m)
}

// SpanBounds returns the minimum and maximum sequence span of a length-l
// pattern under the gap requirement.
func SpanBounds(l int, g Gap) (minSpan, maxSpan int) {
	return combinat.MinSpan(l, g), combinat.MaxSpan(l, g)
}

// LengthBounds returns the paper's l1 and l2 for a subject sequence of
// length L: the longest pattern lengths whose maximum (resp. minimum)
// span fits in L.
func LengthBounds(L int, g Gap) (l1, l2 int) {
	return combinat.L1(L, g), combinat.L2(L, g)
}
