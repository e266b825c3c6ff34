package mine_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/gen"
	"permine/internal/mine"
	"permine/internal/seq"
)

// cancelParams uses a permissive-but-bounded regime (every level keeps
// candidates, MaxLen keeps the λ pruning meaningful) so each test sequence
// yields several levels and there is always a later level for cancellation
// to cut off.
func cancelParams(ctx context.Context) core.Params {
	return core.Params{
		Gap:        combinat.Gap{N: 2, M: 4},
		MinSupport: 0.0005,
		MaxLen:     6,
		Ctx:        ctx,
	}
}

func cancelSeq(t *testing.T) *seq.Sequence {
	t.Helper()
	s, err := gen.GenomeLike(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPreCancelledContext: every algorithm refuses to start under an
// already-cancelled context and surfaces context.Canceled.
func TestPreCancelledContext(t *testing.T) {
	s := cancelSeq(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	algos := map[string]func(*seq.Sequence, core.Params) (*core.Result, error){
		"MPP":       mine.MPP,
		"MPPm":      mine.MPPm,
		"Adaptive":  mine.Adaptive,
		"Enumerate": mine.Enumerate,
	}
	for name, run := range algos {
		res, err := run(s, cancelParams(ctx))
		if res != nil {
			t.Errorf("%s: got a result from a cancelled context", name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		var ce *core.CancelledError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err = %T, want *core.CancelledError", name, err)
		}
	}
}

// TestMPPCancelStopsWithinOneLevel cancels from the level-progress
// callback after the first completed level and asserts MPP aborts before
// counting the next one: the typed error records exactly StartLen+1 and no
// further progress callbacks fire.
func TestMPPCancelStopsWithinOneLevel(t *testing.T) {
	s := cancelSeq(t)
	ctx, cancel := context.WithCancel(context.Background())
	p := cancelParams(ctx)
	var reported []int
	p.Progress = func(lm core.LevelMetrics) {
		reported = append(reported, lm.Level)
		cancel() // cancel as soon as the first level completes
	}

	res, err := mine.MPP(s, p)
	if res != nil {
		t.Fatalf("got a result despite cancellation: %v", res.Summary())
	}
	var ce *core.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *core.CancelledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	wantLevel := core.DefaultStartLen + 1
	if ce.Level != wantLevel {
		t.Errorf("cancelled at level %d, want %d (one level past the cancellation point)", ce.Level, wantLevel)
	}
	if len(reported) != 1 || reported[0] != core.DefaultStartLen {
		t.Errorf("progress reported levels %v, want exactly [%d]", reported, core.DefaultStartLen)
	}

	// Sanity: the same run without cancellation reaches further levels.
	full, err := mine.MPP(s, cancelParams(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Levels) <= 1 {
		t.Fatalf("control run finished in %d levels; test sequence too shallow to exercise cancellation", len(full.Levels))
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after its
// first n calls, so a test can cancel at a chosen check.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelWhileSeeding: the start level is built by the loop's own
// counting, which checks the context, so a cancellation observed there
// reports the seed level being counted, before any level completes.
func TestCancelWhileSeeding(t *testing.T) {
	s := cancelSeq(t)
	for name, run := range map[string]func(*seq.Sequence, core.Params) (*core.Result, error){
		"MPP":  mine.MPP,
		"MPPm": mine.MPPm,
	} {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.n.Store(1) // the entry check passes; the seed's first count sees the cancellation
		p := cancelParams(ctx)
		p.Progress = func(lm core.LevelMetrics) {
			t.Errorf("%s: level %d completed after the cancellation", name, lm.Level)
		}
		res, err := run(s, p)
		var ce *core.CancelledError
		if res != nil || !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: result %v, error %v; want no result and a *core.CancelledError", name, res, err)
		}
		if ce.Level < 2 || ce.Level > core.DefaultStartLen {
			t.Errorf("%s: cancelled at level %d, want a seed level (2 to %d)", name, ce.Level, core.DefaultStartLen)
		}
	}
}

// TestMPPDeadlineExceeded: an expired deadline surfaces as a typed error
// wrapping context.DeadlineExceeded.
func TestMPPDeadlineExceeded(t *testing.T) {
	s := cancelSeq(t)
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, err := mine.MPP(s, cancelParams(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	var ce *core.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *core.CancelledError", err)
	}
}

// TestCancelWithParallelWorkers cancels after the second completed level
// with parallel candidate counting enabled and verifies no partial result
// leaks out.
func TestCancelWithParallelWorkers(t *testing.T) {
	s := cancelSeq(t)
	ctx, cancel := context.WithCancel(context.Background())
	p := cancelParams(ctx)
	p.Workers = 4
	count := 0
	p.Progress = func(core.LevelMetrics) {
		count++
		if count == 2 {
			cancel()
		}
	}
	res, err := mine.MPP(s, p)
	if res != nil {
		t.Fatal("got a result despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestEnumerateCancelled: the enumeration baseline also honours the
// context between levels.
func TestEnumerateCancelled(t *testing.T) {
	s := cancelSeq(t)
	ctx, cancel := context.WithCancel(context.Background())
	p := cancelParams(ctx)
	fired := false
	p.Progress = func(core.LevelMetrics) {
		if !fired {
			fired = true
			cancel()
		}
	}
	res, err := mine.Enumerate(s, p)
	if res != nil {
		t.Fatal("got a result despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestUncancelledRunsUnaffected: a background context changes nothing —
// same patterns with and without Ctx set.
func TestUncancelledRunsUnaffected(t *testing.T) {
	s := cancelSeq(t)
	base := cancelParams(context.Background())

	plain := base
	plain.Ctx = nil
	want, err := mine.MPP(s, plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mine.MPP(s, base)
	if err != nil {
		t.Fatal(err)
	}
	comparePatterns(t, "ctx-vs-plain", got.Patterns, want.Patterns, 0, 1<<30)
}
