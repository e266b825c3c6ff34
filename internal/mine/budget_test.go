package mine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	seqgen "permine/internal/gen"
	"permine/internal/pil"
	"permine/internal/pool"
	"permine/internal/seq"
)

// budgetParams is a workload big enough that a tight memory budget bites
// mid-run: a genome-like sequence under a flexible gap, mined from level
// 3 with several counting levels ahead of it.
func budgetParams() core.Params {
	return core.Params{Gap: combinat.Gap{N: 2, M: 6}, MinSupport: 0.0002, Workers: 4}
}

// TestMemoryBudgetPartialResult: an over-budget MPP run terminates with a
// typed *core.ResourceExhaustedError and a partial result whose completed
// levels — metrics and emitted patterns both — are byte-identical to the
// same levels of an unconstrained run.
func TestMemoryBudgetPartialResult(t *testing.T) {
	s, err := seqgen.GenomeLike(20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MPP(s, budgetParams())
	if err != nil {
		t.Fatal(err)
	}

	tight := budgetParams()
	tight.MemoryBudget = 1 << 20
	part, err := MPP(s, tight)
	var re *core.ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("tight-budget MPP error = %v, want *core.ResourceExhaustedError", err)
	}
	if !errors.Is(err, core.ErrMemoryExceeded) {
		t.Errorf("error does not unwrap to ErrMemoryExceeded: %v", err)
	}
	if re.Used <= re.Budget {
		t.Errorf("error reports Used %d <= Budget %d", re.Used, re.Budget)
	}
	if part == nil || !part.Truncated {
		t.Fatalf("partial result = %+v, want non-nil with Truncated", part)
	}
	if len(part.Levels) == 0 || len(part.Levels) >= len(full.Levels) {
		t.Fatalf("partial completed %d of %d levels; the budget did not abort mid-run",
			len(part.Levels), len(full.Levels))
	}
	for i, lm := range part.Levels {
		want := full.Levels[i]
		if lm.Level != want.Level || lm.Candidates != want.Candidates ||
			lm.Frequent != want.Frequent || lm.Kept != want.Kept {
			t.Errorf("level %d diverged from the unconstrained run:\n got %+v\nwant %+v", i, lm, want)
		}
	}
	maxLen := part.Levels[len(part.Levels)-1].Level
	var want []core.Pattern
	for _, p := range full.Patterns {
		if len(p.Chars) <= maxLen {
			want = append(want, p)
		}
	}
	if len(part.Patterns) != len(want) {
		t.Fatalf("partial emitted %d patterns, want the %d full-run patterns of length <= %d",
			len(part.Patterns), len(want), maxLen)
	}
	for i := range want {
		if part.Patterns[i].Chars != want[i].Chars || part.Patterns[i].Support != want[i].Support {
			t.Errorf("pattern %d: got %q/%d, want %q/%d", i,
				part.Patterns[i].Chars, part.Patterns[i].Support, want[i].Chars, want[i].Support)
		}
	}
}

// TestMemoryBudgetMPPmAndAdaptive: the automatic-n and adaptive entry
// points ship the same partial-result contract.
func TestMemoryBudgetMPPmAndAdaptive(t *testing.T) {
	s, err := seqgen.GenomeLike(20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	tight := budgetParams()
	tight.MemoryBudget = 1 << 20

	res, err := MPPm(s, tight)
	if !errors.Is(err, core.ErrMemoryExceeded) {
		t.Fatalf("MPPm error = %v, want ErrMemoryExceeded", err)
	}
	if res == nil || !res.Truncated || len(res.Levels) == 0 {
		t.Fatalf("MPPm partial result = %+v", res)
	}

	res, err = Adaptive(s, tight)
	if !errors.Is(err, core.ErrMemoryExceeded) {
		t.Fatalf("Adaptive error = %v, want ErrMemoryExceeded", err)
	}
	if res == nil || !res.Truncated || res.Algorithm != core.AlgoAdaptive || len(res.Rounds) == 0 {
		t.Fatalf("Adaptive partial result = %+v", res)
	}
}

// TestMemoryBudgetHoldsOnlyHat: a join commits its output to its arena
// only when its support reaches the level's L̂ cut, so a run's PIL memory
// is about two consecutive L̂ levels rather than two whole counted levels.
// This 100 MiB budget is below what whole levels need here (kept until
// level i+2, their arenas overran it at level 8, with an unbudgeted
// high-water near 199 MB), yet the budgeted MPPm must finish and mine
// exactly what an unbudgeted one does.
//
// The run is then repeated level by level to check that every L̂ handed to
// gen still holds its lists: a kept entry whose join had not committed
// its list would join as empty as a prefix and panic in joinChoice as a
// suffix.
func TestMemoryBudgetHoldsOnlyHat(t *testing.T) {
	s, err := seqgen.GenomeLike(1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 9, M: 16}, MinSupport: 0.00003, EmOrder: 8, Workers: 2}
	full, err := MPPm(s, p)
	if err != nil {
		t.Fatal(err)
	}
	budgeted := p
	budgeted.MemoryBudget = 100 << 20
	got, err := MPPm(s, budgeted)
	if err != nil {
		t.Fatalf("MPPm under a %d B budget: %v", budgeted.MemoryBudget, err)
	}
	if got.Truncated || len(got.Levels) != len(full.Levels) {
		t.Fatalf("budgeted run completed %d of %d levels (truncated %v)", len(got.Levels), len(full.Levels), got.Truncated)
	}
	samePatterns(t, "budgeted MPPm", got.Patterns, full.Patterns)
	var missed int64
	for i, lm := range got.Levels {
		want := full.Levels[i]
		if lm.Candidates != want.Candidates || lm.Frequent != want.Frequent || lm.Kept != want.Kept ||
			lm.PrunedByLambda != want.PrunedByLambda || lm.ZeroSupport != want.ZeroSupport ||
			lm.Abandoned != want.Abandoned || lm.PILJoins != want.PILJoins {
			t.Errorf("level %d diverged from the unbudgeted run:\n got %+v\nwant %+v", lm.Level, lm, want)
		}
		missed += lm.PrunedByLambda + lm.Abandoned
	}
	if missed == 0 {
		t.Fatal("no join missed its level's L̂ cut; nothing was left out of the arenas")
	}

	np, err := budgeted.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	counter, err := combinat.NewCounter(s.Len(), np.Gap)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{s: s, p: np, counter: counter, n: full.N, res: &core.Result{Algorithm: core.AlgoMPPm}}
	levels := 0
	r.p.Progress = func(lm core.LevelMetrics) {
		// collectLevel compacts L̂ in place at the front of the level's
		// hat buffer and reports the level before the loop hands that
		// prefix to gen, so these are exactly the entries gen receives.
		levels++
		for j, e := range r.hatBuf[lm.Level&1][:lm.Kept] {
			if len(e.list) == 0 || e.list.Support() != e.sup {
				t.Errorf("level %d: L̂ entry %d (sup %d) holds a %d-entry list of support %d",
					lm.Level, j, e.sup, len(e.list), e.list.Support())
				return
			}
		}
	}
	r.run(r.seed())
	if r.err != nil {
		t.Fatal(r.err)
	}
	if levels != len(full.Levels) {
		t.Fatalf("level-by-level run reported %d levels, MPPm %d", levels, len(full.Levels))
	}
	r.res.SortPatterns()
	samePatterns(t, "level-by-level run", r.res.Patterns, full.Patterns)
}

// TestAbandonedJoinsMissTheCut drives the paper's regime (1 kb, gap
// [9,12], ρs 0.003%, m = 8, 2 workers) level by level and re-joins the
// parents of every candidate with the unbounded pil.Join: a join that
// stopped must have a full support below its level's L̂ cut, a finished
// one must report the full support, and a list is committed exactly when
// that support reaches the cut. The level's PILEntries must be the prefix
// entries each join visited plus its suffix length, and the mined result
// must still equal MPPm's.
func TestAbandonedJoinsMissTheCut(t *testing.T) {
	s, err := seqgen.GenomeLike(1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.00003, EmOrder: 8, Workers: 2}
	want, err := MPPm(s, p)
	if err != nil {
		t.Fatal(err)
	}
	np, err := p.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	counter, err := combinat.NewCounter(s.Len(), np.Gap)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{s: s, p: np, counter: counter, n: want.N, res: &core.Result{Algorithm: core.AlgoMPPm}}
	i := np.StartLen
	hat := r.collectLevel(i, 64, r.seed(), r.thresholds(i), levelStats{})
	var abandoned int64
	for len(hat) > 0 && counter.Nl(i+1).Sign() != 0 {
		next := i + 1
		th := r.thresholds(next)
		var st levelStats
		cands := r.gen(hat)
		counted := r.countCandidates(context.Background(), next, hat, cands, th.cut, &st)
		if r.err != nil {
			t.Fatal(r.err)
		}
		var stopped, entries int64
		for idx, c := range cands {
			prefix, suffix := hat[c.prefix].list, hat[c.suffix].list
			full := pil.Join(prefix, suffix, np.Gap)
			fullSup := full.Support()
			_, _, visited := pil.JoinInto(nil, prefix, suffix, hat[c.suffix].sup, th.cut, np.Gap)
			entries += int64(visited + len(suffix))
			got := r.joined[idx]
			if (got.sup < 0) != (visited < len(prefix)) {
				t.Fatalf("level %d: join of %v reported stopped %v, a two-pointer rerun joined %d of %d entries",
					next, c, got.sup < 0, visited, len(prefix))
			}
			switch {
			case got.sup < 0:
				stopped++
				if fullSup >= th.cut {
					t.Fatalf("level %d: join of %v stopped, but its full support %d reaches the cut %d",
						next, c, fullSup, th.cut)
				}
			case got.sup != fullSup:
				t.Fatalf("level %d: join of %v finished with support %d, full support %d", next, c, got.sup, fullSup)
			case (got.list != nil) != (fullSup >= th.cut):
				t.Fatalf("level %d: join of %v (support %d, cut %d) committed a list: %v",
					next, c, fullSup, th.cut, got.list != nil)
			}
		}
		if stopped != st.abandoned || entries != st.entries {
			t.Fatalf("level %d: %d joins stopped and %d entries read, levelStats counts %d and %d",
				next, stopped, entries, st.abandoned, st.entries)
		}
		abandoned += stopped
		hat = r.collectLevel(next, int64(len(cands)), counted, th, st)
		i = next
	}
	if abandoned == 0 {
		t.Fatal("no join was abandoned in the paper's regime")
	}
	if len(r.res.Levels) != len(want.Levels) {
		t.Fatalf("level-by-level run recorded %d levels, MPPm %d", len(r.res.Levels), len(want.Levels))
	}
	for k, lm := range r.res.Levels {
		w := want.Levels[k]
		if lm.Candidates != w.Candidates || lm.Kept != w.Kept || lm.Abandoned != w.Abandoned || lm.PILEntries != w.PILEntries {
			t.Errorf("level %d diverged from MPPm:\n got %+v\nwant %+v", lm.Level, lm, w)
		}
	}
	r.res.SortPatterns()
	samePatterns(t, "level-by-level run", r.res.Patterns, want.Patterns)
}

// TestSeedListsCharged: the seed's lists are arena slabs, charged to the
// run's tracker as they grow, so after every level the tracker holds
// exactly the arena slabs (two-pointer joins build no cumulative tables),
// the start level included. First L̂3 is empty, so the start level is the
// run's last: the slabs of its parity must hold at least its lists, as an
// independent scan builds them, and a seed-only MPP run's tracker must end
// where the watched run's does, at its high-water (slabs only grow). That
// run keeps the default join choice, which would take a cumulative table
// for the seed's dense lists: the seed must build none. Then a run that
// goes on is watched level by level.
func TestSeedListsCharged(t *testing.T) {
	s, err := seqgen.GenomeLike(1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 9, M: 12}
	counter, err := combinat.NewCounter(s.Len(), g)
	if err != nil {
		t.Fatal(err)
	}
	// watch runs MPP white-box, with its own tracker, and checks after
	// every level that the tracker holds exactly the arena slabs.
	watch := func(p core.Params, n int) *runner {
		np, err := p.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		np.Mem = nil
		r := &runner{s: s, p: np, counter: counter, n: n, res: &core.Result{Algorithm: core.AlgoMPP}}
		r.p.Progress = func(lm core.LevelMetrics) {
			if got, want := r.mem.Used(), slabBytes(r, -1); got != want {
				t.Errorf("level %d: tracker holds %d B, want the arena slabs' %d B", lm.Level, got, want)
			}
		}
		r.run(r.seed())
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	}

	seedOnly := core.Params{Gap: g, MinSupport: 0.5, Mem: pil.NewMemTracker(nil)}
	res, err := MPP(s, seedOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 1 || res.Levels[0].Kept != 0 {
		t.Fatalf("levels %+v; want only the seed level, with an empty L̂", res.Levels)
	}
	r := watch(seedOnly, res.N)
	start, err := pil.ScanKPacked(s, g, core.DefaultStartLen)
	if err != nil {
		t.Fatal(err)
	}
	var lists int64
	for _, cl := range start {
		lists += pil.EntryBytes * int64(len(cl.List))
	}
	if lists == 0 {
		t.Fatal("empty seed level")
	}
	if got := slabBytes(r, core.DefaultStartLen&1); got < lists {
		t.Errorf("the start level's arena slabs hold %d B, below its %d B of lists", got, lists)
	}
	if used := r.mem.Used(); seedOnly.Mem.Used() != used || seedOnly.Mem.High() != used {
		t.Errorf("MPP's tracker holds %d B (high %d B), want the watched run's %d B of slabs",
			seedOnly.Mem.Used(), seedOnly.Mem.High(), used)
	}

	goesOn := watch(core.Params{Gap: g, MinSupport: 0.00003, MaxLen: 6, Join: core.JoinTwoPointer}, 6)
	if levels := len(goesOn.res.Levels); levels < 3 {
		t.Fatalf("the run reported %d levels; want several", levels)
	}
}

// slabBytes sums the runner's arena slabs of one level parity, or of both
// when parity < 0; arena i serves the levels of parity i&1.
func slabBytes(r *runner, parity int) int64 {
	var b int64
	for i := range r.arenas {
		if parity < 0 || i&1 == parity {
			b += pil.EntryBytes * int64(r.arenas[i].Cap())
		}
	}
	return b
}

// samePatterns fails t unless got and want, both sorted, hold the same
// patterns with the same supports.
func samePatterns(t *testing.T, label string, got, want []core.Pattern) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Chars != want[i].Chars || got[i].Support != want[i].Support {
			t.Fatalf("%s: pattern %d is %q/%d, want %q/%d", label, i,
				got[i].Chars, got[i].Support, want[i].Chars, want[i].Support)
		}
	}
}

// TestMemoryBudgetEnumerate: the enumeration baseline charges its
// retained heap lists and aborts between levels with the typed error.
func TestMemoryBudgetEnumerate(t *testing.T) {
	s, err := seqgen.GenomeLike(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 2, M: 6}, MinSupport: 0.001, MemoryBudget: 1 << 10}
	res, err := Enumerate(s, p)
	var re *core.ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("Enumerate error = %v, want *core.ResourceExhaustedError", err)
	}
	if res == nil || !res.Truncated || len(res.Levels) == 0 {
		t.Fatalf("Enumerate partial result = %+v", res)
	}
}

// TestEnumerateTrackerHoldsLastLevel: the enumeration baseline runs on
// the shared level loop, so its tracker holds what MPP's does. After every
// level, the start level included, it holds exactly the arena slabs
// (two-pointer joins build no cumulative tables); after the run, exactly
// the slabs — never the sum of every level built. The run is repeated
// white-box, and Enumerate's own tracker must end where the watched run's
// does. The list bytes come from
// independent scans (enumeration prunes nothing, so level i holds every
// non-zero-support pattern of length i): the slabs of the last level's
// parity must hold that level's lists, and the high-water both of the
// last two levels' lists, which were live together while the last level
// was counted.
func TestEnumerateTrackerHoldsLastLevel(t *testing.T) {
	s, err := seqgen.GenomeLike(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 2, M: 4}
	p := core.Params{Gap: g, MinSupport: 0.001, CandidateBudget: 1 << 16, Join: core.JoinTwoPointer, Mem: pil.NewMemTracker(nil)}
	res, err := Enumerate(s, p)
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("Enumerate error = %v, want the candidate budget to stop it", err)
	}
	if len(res.Levels) < 3 {
		t.Fatalf("only %d levels before the budget stopped the run; want several to accumulate", len(res.Levels))
	}

	np, err := p.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	np.Mem = nil // the watched run keeps its own tracker
	counter, err := combinat.NewCounter(s.Len(), g)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{s: s, p: np, counter: counter, n: counter.L2(), res: &core.Result{Algorithm: core.AlgoEnumerate}, exhaustive: true}
	r.p.Progress = func(lm core.LevelMetrics) {
		if got, want := r.mem.Used(), slabBytes(r, -1); got != want {
			t.Errorf("level %d: tracker holds %d B, want the arena slabs' %d B", lm.Level, got, want)
		}
	}
	r.run(r.seed())
	if !errors.Is(r.err, core.ErrBudgetExceeded) || len(r.res.Levels) != len(res.Levels) {
		t.Fatalf("watched run: %d levels, error %v; Enumerate: %d levels", len(r.res.Levels), r.err, len(res.Levels))
	}
	if got, want := r.mem.Used(), slabBytes(r, -1); got != want {
		t.Errorf("tracker holds %d B after the run, want the arena slabs' %d B", got, want)
	}
	if p.Mem.Used() != r.mem.Used() || p.Mem.High() != r.mem.High() {
		t.Errorf("Enumerate's tracker ended at %d B (high %d B), the watched run's at %d B (high %d B)",
			p.Mem.Used(), p.Mem.High(), r.mem.Used(), r.mem.High())
	}

	listBytes := func(k int) int64 {
		lists, err := pil.ScanK(s, g, k)
		if err != nil {
			t.Fatal(err)
		}
		var b int64
		for _, l := range lists {
			b += pil.EntryBytes * int64(len(l))
		}
		return b
	}
	last := res.Levels[len(res.Levels)-1].Level
	lastBytes, prevBytes := listBytes(last), listBytes(last-1)
	if got := slabBytes(r, last&1); got < lastBytes {
		t.Errorf("level %d's arena slabs hold %d B, below that level's %d B of lists", last, got, lastBytes)
	}
	if high := p.Mem.High(); high < lastBytes+prevBytes {
		t.Errorf("high-water %d B is below levels %d and %d's %d + %d B of lists", high, last-1, last, prevBytes, lastBytes)
	}
}

// TestMemoryBudgetSharedTracker: a caller-installed tracker sees the
// run's charges and propagates them to its parent, and a second run on
// the same tracker accumulates (the governor's global view).
func TestMemoryBudgetSharedTracker(t *testing.T) {
	s, err := seqgen.GenomeLike(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	root := pil.NewMemTracker(nil)
	p := budgetParams()
	p.Mem = pil.NewMemTracker(root)
	if _, err := MPP(s, p); err != nil {
		t.Fatal(err)
	}
	if p.Mem.Used() == 0 {
		t.Fatal("caller tracker saw no charges from the run")
	}
	if root.Used() != p.Mem.Used() || root.High() != p.Mem.High() {
		t.Fatalf("parent tracker diverged: root %d/%d vs child %d/%d",
			root.Used(), root.High(), p.Mem.Used(), p.Mem.High())
	}
}

// chargedRun is what a run charged its tracker, and where: Used after each
// completed level (the Progress callback), then High and Used at the end.
type chargedRun struct {
	res        *core.Result
	err        error
	perLevel   []int64
	high, used int64
}

// mineCharged runs MPPm on s with a fresh tracker and records its charges.
func mineCharged(t *testing.T, s *seq.Sequence, p core.Params) chargedRun {
	t.Helper()
	var out chargedRun
	p.Mem = pil.NewMemTracker(nil)
	p.Progress = func(core.LevelMetrics) { out.perLevel = append(out.perLevel, p.Mem.Used()) }
	out.res, out.err = MPPm(s, p)
	out.high, out.used = p.Mem.High(), p.Mem.Used()
	return out
}

// sameCharges fails t unless two runs mined the same patterns with the
// same level counters and charged the same bytes at the same points.
func sameCharges(t *testing.T, label string, got, want chargedRun) {
	t.Helper()
	if got.high != want.high || got.used != want.used {
		t.Errorf("%s: High %d, Used %d; cold run High %d, Used %d", label, got.high, got.used, want.high, want.used)
	}
	if len(got.perLevel) != len(want.perLevel) {
		t.Fatalf("%s: %d levels reported, cold run %d", label, len(got.perLevel), len(want.perLevel))
	}
	for i := range want.perLevel {
		if got.perLevel[i] != want.perLevel[i] {
			t.Errorf("%s: Used %d after level %d, cold run %d", label, got.perLevel[i], i, want.perLevel[i])
		}
	}
	if (got.res == nil) != (want.res == nil) {
		t.Fatalf("%s: result %v, cold run %v", label, got.res != nil, want.res != nil)
	}
	if want.res != nil {
		samePatterns(t, label, got.res.Patterns, want.res.Patterns)
		sameCounters(t, label, got.res.Levels, want.res.Levels)
	}
}

// sameCounters fails t unless two runs' levels agree on every counter.
func sameCounters(t *testing.T, label string, got, want []core.LevelMetrics) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, cold run %d", label, len(got), len(want))
	}
	for i := range want {
		if a, b := untimed(got[i]), untimed(want[i]); a != b {
			t.Errorf("%s level %d counters differ:\n got %+v\nwant %+v", label, b.Level, a, b)
		}
	}
}

// untimed is m with its timings zeroed, so that two runs' levels compare
// by their counters alone.
func untimed(m core.LevelMetrics) core.LevelMetrics {
	m.Elapsed, m.GenElapsed, m.CountElapsed = 0, 0, 0
	return m
}

// TestPooledRunsChargeAsCold: a run charges its tracker the same bytes at
// the same points whatever the pools hold. One input is mined cold, with
// the pools bypassed, then with warm pools after a larger mine and after a
// smaller one: the patterns, every level counter, Used after each level
// and the tracker's final High and Used must match the cold run. One
// counting worker, so the arenas fill in the same order every run.
func TestPooledRunsChargeAsCold(t *testing.T) {
	s, err := seqgen.GenomeLike(3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	larger, err := seqgen.GenomeLike(12000, 12)
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := seqgen.GenomeLike(400, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.00003, EmOrder: 8, Workers: 1}

	defer pool.SetMode(pool.SetMode(pool.Cold))
	cold := mineCharged(t, s, p)
	if cold.err != nil {
		t.Fatal(cold.err)
	}
	pool.SetMode(pool.Warm)
	wide := p
	wide.Workers = 4
	if _, err := MPPm(larger, wide); err != nil {
		t.Fatal(err)
	}
	sameCharges(t, "after a larger mine", mineCharged(t, s, p), cold)
	if _, err := MPPm(smaller, p); err != nil {
		t.Fatal(err)
	}
	sameCharges(t, "after a smaller mine", mineCharged(t, s, p), cold)
}

// TestPooledBudgetStopAsCold: a memory budget stops a run with warm pools
// at the level, and with the Used, a cold run stops at.
func TestPooledBudgetStopAsCold(t *testing.T) {
	s, err := seqgen.GenomeLike(20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	larger, err := seqgen.GenomeLike(40000, 43)
	if err != nil {
		t.Fatal(err)
	}
	p := budgetParams()
	p.Workers = 1
	p.MemoryBudget = 1 << 20

	defer pool.SetMode(pool.SetMode(pool.Cold))
	cold := mineCharged(t, s, p)
	var coldErr *core.ResourceExhaustedError
	if !errors.As(cold.err, &coldErr) {
		t.Fatalf("cold run error = %v, want *core.ResourceExhaustedError", cold.err)
	}
	if len(cold.res.Levels) == 0 {
		t.Fatal("the budget stopped the cold run before its first level")
	}
	pool.SetMode(pool.Warm)
	if _, err := MPP(larger, budgetParams()); err != nil {
		t.Fatal(err)
	}
	warm := mineCharged(t, s, p)
	var warmErr *core.ResourceExhaustedError
	if !errors.As(warm.err, &warmErr) {
		t.Fatalf("warm run error = %v, want *core.ResourceExhaustedError", warm.err)
	}
	if warmErr.Level != coldErr.Level || warmErr.Used != coldErr.Used {
		t.Errorf("warm run stopped at level %d with Used %d; cold run at level %d with Used %d",
			warmErr.Level, warmErr.Used, coldErr.Level, coldErr.Used)
	}
	sameCharges(t, "budget stop after a larger mine", warm, cold)
}

// TestPooledScratchShrinks: a large mine's level scratch does not stay
// pinned by the smaller mines that reuse it. The large mine's slabs
// expire on their own once idle through two collections; its scratch,
// taken again by every small mine, must be cut to what they use, so the
// live heap soon returns near its level before the large mine.
func TestPooledScratchShrinks(t *testing.T) {
	smallSeq, err := seqgen.GenomeLike(1000, 21)
	if err != nil {
		t.Fatal(err)
	}
	largeSeq, err := seqgen.GenomeLike(3000, 22)
	if err != nil {
		t.Fatal(err)
	}
	small := func() {
		p := core.Params{Gap: combinat.Gap{N: 9, M: 12}, MinSupport: 0.003, Workers: 1}
		if _, err := MPP(smallSeq, p); err != nil {
			t.Fatal(err)
		}
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	small()
	base := live()
	// About 90,000 candidates at its largest level: megabytes of scratch.
	p := core.Params{Gap: combinat.Gap{N: 0, M: 2}, MinSupport: 0.00003, Workers: 1}
	if _, err := MPP(largeSeq, p); err != nil {
		t.Fatal(err)
	}
	large := live() - base
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		small()
		got := live() - base
		if got < 1<<20 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the heap stays %d bytes above its level before the large mine, which added %d", got, large)
		}
	}
}
