// Command mpp mines periodic patterns with a gap requirement from a
// sequence, using the algorithms of Zhang et al. (SIGMOD 2005).
//
// Input is FASTA on stdin or via -in; without input, -demo mines a
// generated genome-like sequence. Examples:
//
//	mpp -in genome.fa -gapmin 9 -gapmax 12 -support 0.003 -algo mppm
//	seqgen -kind genome -len 5000 | mpp -gapmin 9 -gapmax 12 -support 0.003
//	mpp -demo -algo adaptive -v
//	mpp -demo -topk 5              # only the 5 best patterns by ratio
//	mpp -demo -motif ACG           # only patterns containing ACG
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"permine"
	"permine/internal/seq"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("mpp", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "FASTA input file (default: stdin)")
		demo     = fs.Bool("demo", false, "mine a generated genome-like sequence instead of reading input")
		demoLen  = fs.Int("demolen", 1000, "length of the -demo sequence")
		seed     = fs.Uint64("seed", 20050711, "seed for -demo")
		alphabet = fs.String("alphabet", "dna", "alphabet: dna, protein, or a custom symbol string")
		gapMin   = fs.Int("gapmin", 9, "minimum gap N between successive pattern characters")
		gapMax   = fs.Int("gapmax", 12, "maximum gap M between successive pattern characters")
		support  = fs.Float64("support", 0.003, "support threshold ρs in percent (0.003 means 0.003%)")
		algo     = fs.String("algo", "mppm", "algorithm: mpp, mppm, adaptive, enumerate")
		maxLen   = fs.Int("n", 0, "MPP estimate of the longest frequent pattern length (0 = worst case l1)")
		emOrder  = fs.Int("m", 8, "MPPm e_m order")
		workers  = fs.Int("workers", 1, "worker goroutines for candidate counting and the e_m sweep (at most 1024)")
		topK     = fs.Int("topk", 0, "mine only the K best patterns by support ratio (0 = all)")
		motif    = fs.String("motif", "", "targeted mining: keep only patterns containing this character string")
		verbose  = fs.Bool("v", false, "print per-level metrics")
		maxPrint = fs.Int("top", 40, "print at most this many patterns (0 = all)")
		query    = fs.String("pattern", "", "query mode: report support and first occurrences of this pattern (paper notation, e.g. 'A..Tg(9,12)C') instead of mining")
		asJSON   = fs.Bool("json", false, "emit results as JSON (one object per subject sequence)")
		lvlOut   = fs.String("level-metrics", "", "write per-level metrics (the paper's Table 3 data) as JSON to this file ('-' = stdout)")
		version  = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(stdout, "mpp %s\n", permine.Version)
		return nil
	}

	alpha, err := seq.ParseAlphabet(*alphabet)
	if err != nil {
		return err
	}

	var subjects []*permine.Sequence
	switch {
	case *demo:
		s, err := permine.GenerateGenomeLike(*demoLen, *seed)
		if err != nil {
			return err
		}
		subjects = []*permine.Sequence{s}
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		subjects, err = permine.ReadFASTA(f, alpha)
		if err != nil {
			return err
		}
	default:
		subjects, err = permine.ReadFASTA(stdin, alpha)
		if err != nil {
			return fmt.Errorf("reading stdin (use -in FILE or -demo): %w", err)
		}
	}

	params := permine.Params{
		Gap:        permine.Gap{N: *gapMin, M: *gapMax},
		MinSupport: *support / 100,
		MaxLen:     *maxLen,
		EmOrder:    *emOrder,
		Workers:    *workers,
		TopK:       *topK,
		Motif:      *motif,
	}

	if *query != "" {
		p, err := permine.ParsePattern(*query, params.Gap)
		if err != nil {
			return err
		}
		for _, s := range subjects {
			sup, err := permine.SupportOf(s, p)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s on %s (L=%d): sup = %d\n", p, s.Name(), s.Len(), sup)
			occ, err := permine.Occurrences(s, p, 5)
			if err != nil {
				return err
			}
			for _, o := range occ {
				fmt.Fprintf(stdout, "  at %v\n", o)
			}
			if int64(len(occ)) < sup {
				fmt.Fprintf(stdout, "  ... and %d more occurrences\n", sup-int64(len(occ)))
			}
		}
		return nil
	}

	// Ctrl-C cancels mining cooperatively at the next level or candidate
	// batch instead of killing the process mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var levelDumps []levelDump
	for _, s := range subjects {
		res, err := mineOne(ctx, s, *algo, params)
		if errors.Is(err, permine.ErrBudgetExceeded) {
			// The enumeration baseline is exponential by design; a
			// truncated run still reports its completed levels.
			fmt.Fprintln(stdout, "note: enumeration candidate budget exhausted; results below cover completed levels only")
		} else if err != nil {
			return err
		}
		if *lvlOut != "" {
			levelDumps = append(levelDumps, levelDump{
				Sequence:    res.SeqName,
				SequenceLen: res.SeqLen,
				Algorithm:   res.Algorithm.String(),
				GapMin:      res.Params.Gap.N,
				GapMax:      res.Params.Gap.M,
				MinSupport:  res.Params.MinSupport,
				N:           res.N,
				Levels:      res.Levels,
			})
		}
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintln(stdout, res.Summary())
		if *verbose {
			fmt.Fprintf(stdout, "%-6s %-12s %-10s %-10s %-9s %-9s %-10s %-9s %-12s\n",
				"level", "candidates", "frequent", "kept", "pruned", "zerosup", "abandoned", "lambda", "elapsed")
			for _, lv := range res.Levels {
				fmt.Fprintf(stdout, "%-6d %-12d %-10d %-10d %-9d %-9d %-10d %-9.4f %-12v\n",
					lv.Level, lv.Candidates, lv.Frequent, lv.Kept, lv.PrunedByLambda,
					lv.ZeroSupport, lv.Abandoned, lv.Lambda, lv.Elapsed.Round(time.Microsecond))
			}
		}
		limit := *maxPrint
		if limit <= 0 || limit > len(res.Patterns) {
			limit = len(res.Patterns)
		}
		// Longest first: those are the interesting ones.
		for i := len(res.Patterns) - 1; i >= len(res.Patterns)-limit; i-- {
			p := res.Patterns[i]
			fmt.Fprintf(stdout, "  %-20s |P|=%-3d sup=%-10d ratio=%.4g%%\n",
				p.Chars, p.Len(), p.Support, p.Ratio*100)
		}
		if limit < len(res.Patterns) {
			fmt.Fprintf(stdout, "  ... and %d more (raise -top)\n", len(res.Patterns)-limit)
		}
	}
	if *lvlOut != "" {
		if err := writeLevelMetrics(*lvlOut, stdout, levelDumps); err != nil {
			return fmt.Errorf("writing level metrics: %w", err)
		}
	}
	return nil
}

// levelDump is one subject's per-level metrics for -level-metrics: the
// run identity plus the raw LevelMetrics rows (the paper's Table 3).
type levelDump struct {
	Sequence    string                 `json:"sequence"`
	SequenceLen int                    `json:"sequence_len"`
	Algorithm   string                 `json:"algorithm"`
	GapMin      int                    `json:"gap_min"`
	GapMax      int                    `json:"gap_max"`
	MinSupport  float64                `json:"min_support"`
	N           int                    `json:"n"`
	Levels      []permine.LevelMetrics `json:"levels"`
}

// writeLevelMetrics dumps the collected per-level metrics as indented
// JSON to path ("-" writes to stdout).
func writeLevelMetrics(path string, stdout io.Writer, dumps []levelDump) error {
	w := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dumps)
}

func mineOne(ctx context.Context, s *permine.Sequence, algo string, p permine.Params) (*permine.Result, error) {
	a, err := permine.ParseAlgorithm(strings.ToLower(algo))
	if err != nil {
		return nil, err
	}
	return permine.Mine(ctx, a, s, p)
}
