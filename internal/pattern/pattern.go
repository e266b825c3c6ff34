// Package pattern implements the paper's explicit pattern notation
// (Section 3): patterns written with characters, wild-card dots and
// g(N,M) gap groups, generalised to a *different* gap requirement between
// each pair of successive characters.
//
// The level-wise miners work in the paper's shorthand (one global gap
// requirement); this package adds the query side: parse any pattern the
// paper's notation can write, count its support, list its occurrences.
//
// Accepted syntax, mixable within one pattern:
//
//	"ATC"            shorthand: every pair separated by the default gap
//	"A..T.C"         dots: an exact gap of that many wild-cards
//	"Ag(8,10)Tg(9)C" explicit: g(N,M) range, g(N) exact
//
// A pattern must start and end with characters (as in the paper).
package pattern

import (
	"fmt"
	"strings"

	"permine/internal/combinat"
	"permine/internal/pil"
	"permine/internal/seq"
)

// Pattern is a parsed pattern: characters plus the gap requirement
// between each successive pair (len(Gaps) == len(Chars)-1).
type Pattern struct {
	Chars string
	Gaps  []combinat.Gap
}

// Len returns the number of characters (the paper's |P|; wild-cards do
// not count).
func (p *Pattern) Len() int { return len(p.Chars) }

// Uniform reports whether every gap equals g (then the pattern is
// expressible in the miner's shorthand).
func (p *Pattern) Uniform(g combinat.Gap) bool {
	for _, pg := range p.Gaps {
		if pg != g {
			return false
		}
	}
	return true
}

// MinSpan and MaxSpan return the span bounds of the pattern.
func (p *Pattern) MinSpan() int {
	span := p.Len()
	for _, g := range p.Gaps {
		span += g.N
	}
	return span
}

func (p *Pattern) MaxSpan() int {
	span := p.Len()
	for _, g := range p.Gaps {
		span += g.M
	}
	return span
}

// String renders the canonical explicit form, using dots for small exact
// gaps and g(N,M) otherwise, e.g. "A..Tg(9,12)C".
func (p *Pattern) String() string {
	var b strings.Builder
	for i := 0; i < len(p.Chars); i++ {
		if i > 0 {
			g := p.Gaps[i-1]
			switch {
			case g.N == g.M && g.N >= 1 && g.N <= 4:
				b.WriteString(strings.Repeat(".", g.N))
			case g.N == g.M:
				// Includes g(0): zero dots would be ambiguous with
				// the shorthand's default gap.
				fmt.Fprintf(&b, "g(%d)", g.N)
			default:
				fmt.Fprintf(&b, "g(%d,%d)", g.N, g.M)
			}
		}
		b.WriteByte(p.Chars[i])
	}
	return b.String()
}

// Validate checks the pattern against an alphabet and the gap invariants.
func (p *Pattern) Validate(alpha *seq.Alphabet) error {
	if p.Len() == 0 {
		return fmt.Errorf("pattern: empty pattern")
	}
	if len(p.Gaps) != p.Len()-1 {
		return fmt.Errorf("pattern: %d gaps for %d characters", len(p.Gaps), p.Len())
	}
	if err := alpha.Validate(p.Chars); err != nil {
		return err
	}
	for i, g := range p.Gaps {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("pattern: gap %d: %w", i, err)
		}
	}
	return nil
}

// Parse parses the pattern notation. defaultGap applies between adjacent
// characters written with no separator (the paper's shorthand).
func Parse(text string, defaultGap combinat.Gap) (*Pattern, error) {
	if err := defaultGap.Validate(); err != nil {
		return nil, fmt.Errorf("pattern: default gap: %w", err)
	}
	var (
		chars   []byte
		gaps    []combinat.Gap
		pending *combinat.Gap // explicit separator awaiting its right-hand character
	)
	i := 0
	for i < len(text) {
		switch c := text[i]; {
		case c == '.':
			// A run of dots: an exact gap of that size.
			j := i
			for j < len(text) && text[j] == '.' {
				j++
			}
			if len(chars) == 0 {
				return nil, fmt.Errorf("pattern: %q begins with a wild-card; patterns begin with characters", text)
			}
			if pending != nil {
				return nil, fmt.Errorf("pattern: %q has two separators in a row at %d", text, i)
			}
			n := j - i
			pending = &combinat.Gap{N: n, M: n}
			i = j
		case c == 'g' && i+1 < len(text) && text[i+1] == '(':
			if len(chars) == 0 {
				return nil, fmt.Errorf("pattern: %q begins with a gap; patterns begin with characters", text)
			}
			if pending != nil {
				return nil, fmt.Errorf("pattern: %q has two separators in a row at %d", text, i)
			}
			g, next, err := parseGapGroup(text, i)
			if err != nil {
				return nil, err
			}
			pending = &g
			i = next
		case c == ' ' || c == '\t':
			i++
		default:
			if len(chars) > 0 {
				if pending != nil {
					gaps = append(gaps, *pending)
					pending = nil
				} else {
					gaps = append(gaps, defaultGap)
				}
			}
			chars = append(chars, c)
			i++
		}
	}
	if len(chars) == 0 {
		return nil, fmt.Errorf("pattern: %q contains no characters", text)
	}
	if pending != nil {
		return nil, fmt.Errorf("pattern: %q ends with a gap; patterns end with characters", text)
	}
	return &Pattern{Chars: string(chars), Gaps: gaps}, nil
}

// parseGapGroup parses "g(N)" or "g(N,M)" starting at position i;
// returns the gap and the index just past the ')'.
func parseGapGroup(text string, i int) (combinat.Gap, int, error) {
	j := i + 2 // past "g("
	n, j, err := parseInt(text, j)
	if err != nil {
		return combinat.Gap{}, 0, fmt.Errorf("pattern: bad gap group at %d in %q: %w", i, text, err)
	}
	g := combinat.Gap{N: n, M: n}
	if j < len(text) && text[j] == ',' {
		m, j2, err := parseInt(text, j+1)
		if err != nil {
			return combinat.Gap{}, 0, fmt.Errorf("pattern: bad gap group at %d in %q: %w", i, text, err)
		}
		g.M = m
		j = j2
	}
	if j >= len(text) || text[j] != ')' {
		return combinat.Gap{}, 0, fmt.Errorf("pattern: unterminated gap group at %d in %q", i, text)
	}
	if err := g.Validate(); err != nil {
		return combinat.Gap{}, 0, fmt.Errorf("pattern: %q: %w", text, err)
	}
	return g, j + 1, nil
}

func parseInt(text string, i int) (int, int, error) {
	start := i
	v := 0
	for i < len(text) && text[i] >= '0' && text[i] <= '9' {
		v = v*10 + int(text[i]-'0')
		if v > 1<<24 {
			return 0, 0, fmt.Errorf("gap size too large")
		}
		i++
	}
	if i == start {
		return 0, 0, fmt.Errorf("expected a number at %d", start)
	}
	return v, i, nil
}

// PIL computes the partial index list of the pattern on s by chaining
// right-to-left joins with each pair's own gap requirement. Cost
// O(|P|·L).
func PIL(s *seq.Sequence, p *Pattern) (pil.List, error) {
	if err := p.Validate(s.Alphabet()); err != nil {
		return nil, err
	}
	singles := pil.Singles(nil, s)
	codes, _ := s.Alphabet().Encode(p.Chars)
	list := singles[codes[len(codes)-1]]
	for i := len(codes) - 2; i >= 0; i-- {
		list = pil.Join(singles[codes[i]], list, p.Gaps[i])
	}
	return list, nil
}

// Support computes sup(P) on s.
func Support(s *seq.Sequence, p *Pattern) (int64, error) {
	list, err := PIL(s, p)
	if err != nil {
		return 0, err
	}
	return list.Support(), nil
}

// Occurrence is one matching offset sequence (0-based positions).
type Occurrence []int

// Occurrences enumerates up to limit matching offset sequences in
// lexicographic position order (limit <= 0 means all — beware, supports
// can be astronomically large; prefer a limit).
func Occurrences(s *seq.Sequence, p *Pattern, limit int) ([]Occurrence, error) {
	if err := p.Validate(s.Alphabet()); err != nil {
		return nil, err
	}
	codes, _ := s.Alphabet().Encode(p.Chars)
	var out []Occurrence
	cur := make([]int, len(codes))
	var walk func(pos, depth int) bool // returns false to stop
	walk = func(pos, depth int) bool {
		if s.Code(pos) != codes[depth] {
			return true
		}
		cur[depth] = pos
		if depth == len(codes)-1 {
			out = append(out, append(Occurrence(nil), cur...))
			return !(limit > 0 && len(out) >= limit)
		}
		g := p.Gaps[depth]
		hi := pos + g.M + 1
		if hi >= s.Len() {
			hi = s.Len() - 1
		}
		for next := pos + g.N + 1; next <= hi; next++ {
			if !walk(next, depth+1) {
				return false
			}
		}
		return true
	}
	for x := 0; x+p.MinSpan() <= s.Len(); x++ {
		if !walk(x, 0) {
			break // limit reached
		}
	}
	return out, nil
}
