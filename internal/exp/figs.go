package exp

import (
	"fmt"
	"io"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/mine"
)

// Fig5Row is one point of Figure 5: MPP's execution time as a function of
// the user's estimate n at a fixed threshold.
type Fig5Row struct {
	N          int
	Seconds    float64
	Candidates int64
	Longest    int
	Complete   bool // Longest <= N: results guaranteed complete
}

// Fig5Ns is the paper's x-axis (10..60); no(ρs) is included implicitly
// because the sweep brackets it.
var Fig5Ns = []int{10, 13, 20, 30, 40, 50, 60}

// RunFig5 sweeps the MPP user input n at the configured threshold (paper:
// ρs = 0.003%, where no = 13).
func RunFig5(c Config) ([]Fig5Row, error) {
	c = c.withDefaults()
	s, err := c.subject()
	if err != nil {
		return nil, err
	}
	ns := Fig5Ns
	if c.Quick {
		ns = []int{10, 20, 40}
	}
	rows := make([]Fig5Row, 0, len(ns))
	for _, n := range ns {
		res, elapsed, err := timeRun(func() (*core.Result, error) {
			return mine.MPP(s, core.Params{Gap: c.Gap, MinSupport: c.rho(), MaxLen: n, Workers: c.Workers})
		})
		if err != nil {
			return nil, fmt.Errorf("fig5 n=%d: %w", n, err)
		}
		rows = append(rows, Fig5Row{
			N:          n,
			Seconds:    elapsed.Seconds(),
			Candidates: totalCandidates(res),
			Longest:    res.Longest(),
			Complete:   res.Longest() <= n,
		})
	}
	return rows, nil
}

// FprintFig5 renders the Figure 5 series.
func FprintFig5(w io.Writer, c Config, rows []Fig5Row) error {
	c = c.withDefaults()
	if err := fprintf(w, "Figure 5: MPP under different user input n (L=%d, gap=%s, ρs=%.4g%%)\n",
		c.L, c.Gap, c.RhoPct); err != nil {
		return err
	}
	if err := fprintf(w, "%-5s %-10s %-12s %-8s %-9s\n", "n", "time(s)", "candidates", "longest", "complete"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := fprintf(w, "%-5d %-10.3f %-12d %-8d %-9v\n",
			r.N, r.Seconds, r.Candidates, r.Longest, r.Complete); err != nil {
			return err
		}
	}
	return nil
}

// SweepRow is one point of the single-variable MPPm sweeps of Figures 6
// (gap flexibility W), 7 (minimum gap N) and 8 (sequence length L).
type SweepRow struct {
	X          int // the swept variable's value
	Seconds    float64
	Candidates int64
	AutoN      int
	Longest    int
	Patterns   int
}

// fig6Runs is how many times RunFig6 times each W; a row reports the
// fastest run. Figure 6's claim compares wall times, and at quick scale
// one MPPm takes about 0.1–0.2 s, close to a shared VM's noise.
const fig6Runs = 3

// RunFig6 varies the gap flexibility W from 4 to 8 with N fixed at 9
// (gap requirement [9, W+8]), MPPm with m = 8, ρs = 0.003%. The quick
// sweep keeps both ends: at L = 500, W = 4 picks a larger n than W = 6
// and counts more candidates, so the two run only about 20% apart.
func RunFig6(c Config) ([]SweepRow, error) {
	c = c.withDefaults()
	ws := []int{4, 5, 6, 7, 8}
	if c.Quick {
		ws = []int{4, 6, 8}
	}
	rows := make([]SweepRow, 0, len(ws))
	for _, wFlex := range ws {
		cc := c
		cc.Gap = combinat.Gap{N: c.Gap.N, M: c.Gap.N + wFlex - 1}
		s, err := cc.subject()
		if err != nil {
			return nil, err
		}
		var res *core.Result
		var elapsed time.Duration
		for run := 0; run < fig6Runs; run++ {
			r, t, err := runMPPm(s, cc)
			if err != nil {
				return nil, fmt.Errorf("fig6 W=%d: %w", wFlex, err)
			}
			if run == 0 || t < elapsed {
				res, elapsed = r, t
			}
		}
		rows = append(rows, SweepRow{
			X: wFlex, Seconds: elapsed.Seconds(), Candidates: totalCandidates(res),
			AutoN: res.N, Longest: res.Longest(), Patterns: len(res.Patterns),
		})
	}
	return rows, nil
}

// RunFig7 varies the minimum gap N from 8 to 12 with W fixed at 4 (gap
// requirement [N, N+3]), MPPm with m = 8, ρs = 0.003%.
func RunFig7(c Config) ([]SweepRow, error) {
	c = c.withDefaults()
	ns := []int{8, 9, 10, 11, 12}
	if c.Quick {
		ns = []int{8, 10, 12}
	}
	rows := make([]SweepRow, 0, len(ns))
	for _, n := range ns {
		cc := c
		cc.Gap = combinat.Gap{N: n, M: n + 3}
		s, err := cc.subject()
		if err != nil {
			return nil, err
		}
		res, elapsed, err := runMPPm(s, cc)
		if err != nil {
			return nil, fmt.Errorf("fig7 N=%d: %w", n, err)
		}
		rows = append(rows, SweepRow{
			X: n, Seconds: elapsed.Seconds(), Candidates: totalCandidates(res),
			AutoN: res.N, Longest: res.Longest(), Patterns: len(res.Patterns),
		})
	}
	return rows, nil
}

// RunFig8 varies the subject sequence length L from 1000 to 10000 (the
// paper's scalability experiment; MPPm, m = 10 there, configurable here).
func RunFig8(c Config) ([]SweepRow, error) {
	c = c.withDefaults()
	ls := []int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
	if c.Quick {
		ls = []int{1000, 3000, 5000}
	}
	rows := make([]SweepRow, 0, len(ls))
	for _, L := range ls {
		cc := c
		cc.L = L
		s, err := cc.subject()
		if err != nil {
			return nil, err
		}
		res, elapsed, err := runMPPm(s, cc)
		if err != nil {
			return nil, fmt.Errorf("fig8 L=%d: %w", L, err)
		}
		rows = append(rows, SweepRow{
			X: L, Seconds: elapsed.Seconds(), Candidates: totalCandidates(res),
			AutoN: res.N, Longest: res.Longest(), Patterns: len(res.Patterns),
		})
	}
	return rows, nil
}

// FprintSweep renders one of the Figure 6/7/8 series with the given axis
// label and title.
func FprintSweep(w io.Writer, title, xLabel string, rows []SweepRow) error {
	if err := fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if err := fprintf(w, "%-7s %-10s %-12s %-7s %-8s %-8s\n",
		xLabel, "time(s)", "candidates", "autoN", "longest", "#pat"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := fprintf(w, "%-7d %-10.3f %-12d %-7d %-8d %-8d\n",
			r.X, r.Seconds, r.Candidates, r.AutoN, r.Longest, r.Patterns); err != nil {
			return err
		}
	}
	return nil
}
