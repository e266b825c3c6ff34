package exp

import (
	"fmt"
	"io"
	"strings"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/gen"
	"permine/internal/mine"
	"permine/internal/seq"
)

// CaseConfig parameterises the Section 7 case study reproduction: genomes
// are segmented into fragments, each fragment mined with MPPm under gap
// [10,12] and ρs = 0.006%, and the frequent length-8 patterns are censused
// by their C/G content.
type CaseConfig struct {
	// GenomeLen is the synthetic genome length (default 200 kb, at most
	// 100 kb under Quick; the paper mined whole genomes of 0.6–1.8 Mb —
	// scaled down for laptop-runtime, same fragment semantics).
	GenomeLen int
	// FragLen is the fragment size (paper: 100 kb).
	FragLen int
	// Gap is the gap requirement (paper: [10,12]).
	Gap combinat.Gap
	// RhoPct is the support threshold in percent (paper: 0.006%).
	RhoPct float64
	// EmOrder is MPPm's m (default 6).
	EmOrder int
	// Seed drives the genome generators.
	Seed uint64
	// Quick shrinks genome count and size for smoke runs.
	Quick bool
	// Workers is passed to the miners.
	Workers int
}

func (c CaseConfig) withDefaults() CaseConfig {
	if c.GenomeLen == 0 {
		c.GenomeLen = 200_000
	}
	if c.FragLen == 0 {
		c.FragLen = 100_000
	}
	if c.Gap == (combinat.Gap{}) {
		c.Gap = combinat.Gap{N: 10, M: 12}
	}
	if c.RhoPct == 0 {
		c.RhoPct = 0.006
	}
	if c.EmOrder == 0 {
		// m = 6 keeps the e_m sweep cheap on 100 kb fragments; the
		// paper's §7 does not specify its m.
		c.EmOrder = 6
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Quick {
		c.GenomeLen = min(c.GenomeLen, 100_000)
	}
	return c
}

// FragmentCensus is the per-fragment outcome: how many length-8 patterns
// are frequent, split by C/G content — the paper's §7 headline statistic.
type FragmentCensus struct {
	Genome   string
	Fragment int
	FreqLen8 int  // frequent length-8 patterns in total
	ATOnly   int  // ... consisting only of A and T (of 256 possible)
	OneCG    int  // ... with exactly one C or G (of 2048 possible)
	MultiCG  int  // ... with more than one C or G (of 63232 possible)
	GOnly8   bool // the all-G length-8 pattern is frequent
	G16      bool // the all-G length-16 pattern is frequent
	Longest  int  // longest frequent pattern in the fragment
}

// CaseStudyResult aggregates the census over the bacterial-like and
// eukaryote-like genome sets.
type CaseStudyResult struct {
	Bacterial []FragmentCensus
	Eukaryote []FragmentCensus
}

// bacterialGenomes and eukaryoteGenomes name the synthetic stand-ins for
// the paper's organisms (DESIGN.md §5).
var bacterialGenomes = []string{"H.influenzae-like", "H.pylori-like", "M.genitalium-like", "M.pneumoniae-like"}
var eukaryoteGenomes = []string{"H.sapiens-like", "C.elegans-like", "D.melanogaster-like"}

// RunCaseStudy reproduces the paper's Section 7 experiment.
func RunCaseStudy(c CaseConfig) (*CaseStudyResult, error) {
	c = c.withDefaults()
	bacteria := bacterialGenomes
	euks := eukaryoteGenomes
	if c.Quick {
		bacteria = bacteria[:1]
		euks = euks[:1]
	}
	out := &CaseStudyResult{}
	for i, name := range bacteria {
		g, err := gen.BacterialLike(c.GenomeLen, c.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		rows, err := censusGenome(name, g, c)
		if err != nil {
			return nil, fmt.Errorf("case study %s: %w", name, err)
		}
		out.Bacterial = append(out.Bacterial, rows...)
	}
	for i, name := range euks {
		g, err := gen.EukaryoteLike(c.GenomeLen, c.Seed+100+uint64(i))
		if err != nil {
			return nil, err
		}
		rows, err := censusGenome(name, g, c)
		if err != nil {
			return nil, fmt.Errorf("case study %s: %w", name, err)
		}
		out.Eukaryote = append(out.Eukaryote, rows...)
	}
	return out, nil
}

// censusGenome fragments one genome, mines each fragment and censuses the
// frequent length-8 patterns.
func censusGenome(name string, g *seq.Sequence, c CaseConfig) ([]FragmentCensus, error) {
	var out []FragmentCensus
	for fi, frag := range g.Fragments(c.FragLen) {
		res, err := mine.MPPm(frag, core.Params{
			Gap:        c.Gap,
			MinSupport: c.RhoPct / 100,
			EmOrder:    c.EmOrder,
			Workers:    c.Workers,
		})
		if err != nil {
			return nil, err
		}
		fc := FragmentCensus{Genome: name, Fragment: fi, Longest: res.Longest()}
		for _, p := range res.ByLength(8) {
			fc.FreqLen8++
			switch cg := countCG(p.Chars); {
			case cg == 0:
				fc.ATOnly++
			case cg == 1:
				fc.OneCG++
			default:
				fc.MultiCG++
			}
		}
		if _, ok := res.Pattern(strings.Repeat("G", 8)); ok {
			fc.GOnly8 = true
		}
		if _, ok := res.Pattern(strings.Repeat("G", 16)); ok {
			fc.G16 = true
		}
		out = append(out, fc)
	}
	return out, nil
}

func countCG(chars string) int {
	n := 0
	for i := 0; i < len(chars); i++ {
		if chars[i] == 'C' || chars[i] == 'G' {
			n++
		}
	}
	return n
}

// Averages summarises a fragment set: mean AT-only and multi-C/G frequent
// length-8 counts (the paper reports ~250/256 and ~3.9 for bacteria).
func Averages(rows []FragmentCensus) (atOnly, oneCG, multiCG float64) {
	if len(rows) == 0 {
		return 0, 0, 0
	}
	for _, r := range rows {
		atOnly += float64(r.ATOnly)
		oneCG += float64(r.OneCG)
		multiCG += float64(r.MultiCG)
	}
	n := float64(len(rows))
	return atOnly / n, oneCG / n, multiCG / n
}

// FprintCaseStudy renders the census in the style of the paper's §7
// narrative.
func FprintCaseStudy(w io.Writer, c CaseConfig, r *CaseStudyResult) error {
	c = c.withDefaults()
	if err := fprintf(w, "Case study (§7): gap %s, ρs=%.4g%%, %d kb fragments\n",
		c.Gap, c.RhoPct, c.FragLen/1000); err != nil {
		return err
	}
	printSet := func(label string, rows []FragmentCensus) error {
		if err := fprintf(w, "\n%s fragments:\n%-22s %-5s %-6s %-7s %-6s %-8s %-7s %-5s %-8s\n",
			label, "genome", "frag", "freq8", "ATonly", "1CG", "multiCG", "Gonly8", "G16", "longest"); err != nil {
			return err
		}
		for _, fc := range rows {
			if err := fprintf(w, "%-22s %-5d %-6d %-7d %-6d %-8d %-7v %-5v %-8d\n",
				fc.Genome, fc.Fragment, fc.FreqLen8, fc.ATOnly, fc.OneCG, fc.MultiCG,
				fc.GOnly8, fc.G16, fc.Longest); err != nil {
				return err
			}
		}
		at, one, multi := Averages(rows)
		return fprintf(w, "averages: AT-only %.1f/256, one-CG %.1f/2048, multi-CG %.1f/63232\n", at, one, multi)
	}
	if err := printSet("Bacterial-like", r.Bacterial); err != nil {
		return err
	}
	return printSet("Eukaryote-like", r.Eukaryote)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
