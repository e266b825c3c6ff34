package corpus_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/corpus/corpustest"
	"permine/internal/seq"
)

// testSeqs builds n small DNA sequences with distinct names and bodies.
func testSeqs(t *testing.T, n int) []*seq.Sequence {
	t.Helper()
	bases := []string{"ACGTACGTACGT", "AACCGGTTAACC", "ATATATATCGCG", "GGGGCCCCAAAA", "ACACACACGTGT"}
	out := make([]*seq.Sequence, n)
	for i := range out {
		s, err := seq.NewDNA(fmt.Sprintf("shard-%02d", i), bases[i%len(bases)])
		if err != nil {
			t.Fatalf("NewDNA: %v", err)
		}
		out[i] = s
	}
	return out
}

// fakeResult is the deterministic stand-in mining output for one shard:
// the shared pattern "ACG" (so the merge has something to union) plus one
// shard-specific pattern, with supports derived from the shard index.
func fakeResult(idx int, name string, seqLen int) *core.Result {
	return &core.Result{
		Algorithm: core.AlgoMPP,
		SeqName:   name,
		SeqLen:    seqLen,
		Patterns: []core.Pattern{
			{Chars: "ACG", Support: 10 + int64(idx), Ratio: 0.5},
			{Chars: fmt.Sprintf("A%c", 'A'+byte(idx)), Support: int64(idx) + 1, Ratio: 0.25},
		},
	}
}

// fakeRun is a deterministic stand-in miner built on fakeResult.
func fakeRun(_ context.Context, _ *corpus.Job, s *corpus.Shard) (*core.Result, error) {
	return fakeResult(s.Index(), s.Name(), s.Seq().Len()), nil
}

// newTestJob builds a corpus job over n shards.
func newTestJob(t *testing.T, n int) *corpus.Job {
	t.Helper()
	j, err := corpus.NewJob(corpus.Spec{ID: "c-test", Name: "t", Algorithm: core.AlgoMPP, Seqs: testSeqs(t, n)})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	return j
}

// runToEnd starts the job on an engine with a JobEnd hook and waits for
// the terminal state.
func runToEnd(t *testing.T, cfg corpus.Config, j *corpus.Job) {
	t.Helper()
	done := make(chan struct{})
	userEnd := cfg.Hooks.JobEnd
	cfg.Hooks.JobEnd = func(ctx context.Context, j *corpus.Job, v corpus.View) {
		if userEnd != nil {
			userEnd(ctx, j, v)
		}
		close(done)
	}
	corpus.NewEngine(cfg).Start(j, func(corpus.View) {})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("corpus job did not finish: %+v", j.Snapshot())
	}
}

func TestAllShardsSucceed(t *testing.T) {
	corpustest.CheckLeaks(t)
	j := newTestJob(t, 5)
	runToEnd(t, corpus.Config{Run: fakeRun}, j)

	if got := j.State(); got != corpus.StateDone {
		t.Fatalf("state = %v, want done", got)
	}
	res := j.Merged()
	if res == nil {
		t.Fatal("no merged result")
	}
	if res.Shards != 5 || res.Mined != 5 || len(res.Failed) != 0 {
		t.Fatalf("merged shards=%d mined=%d failed=%d, want 5/5/0", res.Shards, res.Mined, len(res.Failed))
	}
	// "ACG" is frequent in every shard: union support 10+11+..+14 = 60,
	// provenance in shard order.
	var acg *corpus.MergedPattern
	for i := range res.Patterns {
		if res.Patterns[i].Chars == "ACG" {
			acg = &res.Patterns[i]
		}
	}
	if acg == nil {
		t.Fatalf("merged patterns missing ACG: %+v", res.Patterns)
	}
	if acg.Shards != 5 || acg.Support != 60 {
		t.Fatalf("ACG shards=%d support=%d, want 5/60", acg.Shards, acg.Support)
	}
	for i, ps := range acg.PerShard {
		if ps.Shard != i {
			t.Fatalf("provenance out of shard order: %+v", acg.PerShard)
		}
	}
	// Sorted by length then lexicographically.
	for i := 1; i < len(res.Patterns); i++ {
		a, b := res.Patterns[i-1].Chars, res.Patterns[i].Chars
		if len(a) > len(b) || (len(a) == len(b) && a > b) {
			t.Fatalf("patterns not sorted: %q before %q", a, b)
		}
	}
}

// TestShardPanicYieldsPartial is acceptance (a): a shard that panics on
// every attempt exhausts its budget and the job degrades to partial with
// an explicit failed-shard manifest — the process (and the other shards)
// survive.
func TestShardPanicYieldsPartial(t *testing.T) {
	corpustest.CheckLeaks(t)
	faults := corpustest.NewFaults().SetAttempts(2, 3, corpus.FaultPanic)
	j := newTestJob(t, 4)
	runToEnd(t, corpus.Config{
		Run: fakeRun, Fault: faults, RetryBudget: 3, RetryBackoff: time.Millisecond,
	}, j)

	if got := j.State(); got != corpus.StatePartial {
		t.Fatalf("state = %v, want partial", got)
	}
	res := j.Merged()
	if res.Mined != 3 || len(res.Failed) != 1 {
		t.Fatalf("mined=%d failed=%v, want 3 mined, 1 failed", res.Mined, res.Failed)
	}
	f := res.Failed[0]
	if f.Index != 2 || f.Attempts != 3 {
		t.Fatalf("failed manifest = %+v, want shard 2 after 3 attempts", f)
	}
	if !strings.Contains(f.Error, "panicked") {
		t.Fatalf("failed shard error %q does not mention the panic", f.Error)
	}
	v := j.Snapshot()
	if v.ShardsDone != 3 || v.ShardsFailed != 1 {
		t.Fatalf("snapshot done=%d failed=%d, want 3/1", v.ShardsDone, v.ShardsFailed)
	}
}

// TestTransientRetrySucceeds is acceptance (b): a shard failing twice
// within a budget of three succeeds, and every backoff delay falls in the
// jittered [d/2, d) window of its exponential step.
func TestTransientRetrySucceeds(t *testing.T) {
	corpustest.CheckLeaks(t)
	const base = 8 * time.Millisecond
	faults := corpustest.NewFaults().
		Set(1, 1, corpus.FaultError).
		Set(1, 2, corpus.FaultError)

	var mu sync.Mutex
	type retry struct {
		attempt int
		delay   time.Duration
	}
	var retries []retry
	j := newTestJob(t, 3)
	runToEnd(t, corpus.Config{
		Run: fakeRun, Fault: faults, RetryBudget: 3, RetryBackoff: base,
		Hooks: corpus.Hooks{
			ShardRetry: func(_ *corpus.Job, s *corpus.Shard, attempt int, err error, delay time.Duration) {
				if s.Index() != 1 {
					return
				}
				if !errors.Is(err, corpus.ErrInjected) {
					panic("retry for unexpected error: " + err.Error())
				}
				mu.Lock()
				retries = append(retries, retry{attempt, delay})
				mu.Unlock()
			},
		},
	}, j)

	if got := j.State(); got != corpus.StateDone {
		t.Fatalf("state = %v, want done (transient failure within budget)", got)
	}
	if got := faults.Attempts(1); got != 3 {
		t.Fatalf("shard 1 ran %d attempts, want 3", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(retries) != 2 {
		t.Fatalf("ShardRetry fired %d times, want 2: %+v", len(retries), retries)
	}
	for i, r := range retries {
		want := base << i // exponential step for attempt i+1
		if r.attempt != i+1 {
			t.Fatalf("retry %d reported attempt %d", i, r.attempt)
		}
		if r.delay < want/2 || r.delay >= want {
			t.Fatalf("attempt %d backoff %v outside jitter window [%v, %v)", r.attempt, r.delay, want/2, want)
		}
	}
	for _, sv := range j.Snapshot().Shards {
		if sv.Index == 1 && sv.Attempts != 3 {
			t.Fatalf("shard 1 snapshot attempts = %d, want 3", sv.Attempts)
		}
	}
}

// TestHangHitsDeadlineThenRetries: a hung attempt is cut off by the
// per-shard deadline and retried; the job still completes.
func TestHangHitsDeadlineThenRetries(t *testing.T) {
	corpustest.CheckLeaks(t)
	faults := corpustest.NewFaults().Set(0, 1, corpus.FaultHang)
	j, err := corpus.NewJob(corpus.Spec{
		ID: "c-test", Algorithm: core.AlgoMPP, Seqs: testSeqs(t, 2),
		ShardTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	runToEnd(t, corpus.Config{
		Run: fakeRun, Fault: faults, RetryBudget: 2, RetryBackoff: time.Millisecond,
	}, j)

	if got := j.State(); got != corpus.StateDone {
		t.Fatalf("state = %v, want done", got)
	}
	if got := faults.Attempts(0); got != 2 {
		t.Fatalf("shard 0 ran %d attempts, want 2 (hang + success)", got)
	}
}

// TestAllShardsFail: when every shard exhausts its budget the job is
// failed, not partial.
func TestAllShardsFail(t *testing.T) {
	corpustest.CheckLeaks(t)
	faults := corpustest.NewFaults()
	for sh := 0; sh < 2; sh++ {
		faults.SetAttempts(sh, 2, corpus.FaultError)
	}
	j := newTestJob(t, 2)
	runToEnd(t, corpus.Config{Run: fakeRun, Fault: faults, RetryBudget: 2, RetryBackoff: time.Millisecond}, j)

	if got := j.State(); got != corpus.StateFailed {
		t.Fatalf("state = %v, want failed", got)
	}
	if res := j.Merged(); res.Mined != 0 || len(res.Failed) != 2 || len(res.Patterns) != 0 {
		t.Fatalf("merged = %+v, want empty merge with 2 failed", res)
	}
}

// TestCancelRevertsInflightShards: cancelling mid-run stops the job; the
// interrupted shards revert to pending without consuming budget.
func TestCancelRevertsInflightShards(t *testing.T) {
	corpustest.CheckLeaks(t)
	started := make(chan struct{}, 16)
	block := make(chan struct{})
	run := func(ctx context.Context, _ *corpus.Job, _ *corpus.Shard) (*core.Result, error) {
		started <- struct{}{}
		select {
		case <-block:
			return &core.Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	j := newTestJob(t, 3)
	end := make(chan struct{})
	e := corpus.NewEngine(corpus.Config{
		Run: run, MaxInflight: 2,
		Hooks: corpus.Hooks{JobEnd: func(context.Context, *corpus.Job, corpus.View) { close(end) }},
	})
	e.Start(j, func(corpus.View) {})
	<-started
	if !e.Cancel(j) {
		t.Fatal("Cancel returned false for a running job")
	}
	select {
	case <-end:
	case <-time.After(5 * time.Second):
		t.Fatal("JobEnd did not fire after Cancel")
	}
	if got := j.State(); got != corpus.StateCancelled {
		t.Fatalf("state = %v, want cancelled", got)
	}
	if e.Cancel(j) {
		t.Fatal("second Cancel reported success on a terminal job")
	}
	// Give reverted attempts a moment to drain, then check no budget burned.
	waitFor(t, func() bool {
		for _, sv := range j.Snapshot().Shards {
			if sv.State != corpus.ShardPending || sv.Attempts != 0 {
				return false
			}
		}
		return true
	}, "shards reverted to pending with zero attempts")
	close(block)
}

// TestExpireDegradesToPartial: the overall corpus deadline finalizes the
// job as partial with the completed shards merged.
func TestExpireDegradesToPartial(t *testing.T) {
	corpustest.CheckLeaks(t)
	block := make(chan struct{})
	defer close(block)
	var calls atomic.Int32
	run := func(ctx context.Context, jb *corpus.Job, s *corpus.Shard) (*core.Result, error) {
		if calls.Add(1) == 1 { // first shard completes, the rest hang
			return fakeRun(ctx, jb, s)
		}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	j := newTestJob(t, 3)
	end := make(chan struct{})
	e := corpus.NewEngine(corpus.Config{
		Run: run, MaxInflight: 1,
		Hooks: corpus.Hooks{JobEnd: func(context.Context, *corpus.Job, corpus.View) { close(end) }},
	})
	e.Start(j, func(corpus.View) {})
	waitFor(t, func() bool { return j.Snapshot().ShardsDone == 1 }, "first shard done")
	if !e.Expire(j, time.Millisecond) {
		t.Fatal("Expire returned false")
	}
	<-end
	if got := j.State(); got != corpus.StatePartial {
		t.Fatalf("state = %v, want partial after expiry", got)
	}
	if res := j.Merged(); res.Mined != 1 {
		t.Fatalf("merged %d shards, want the 1 that finished", res.Mined)
	}
	if note := j.Snapshot().Note; !strings.Contains(note, "deadline") {
		t.Fatalf("note %q does not mention the deadline", note)
	}
}

// TestMaxInflightBound: the engine never schedules more than MaxInflight
// shards of one job concurrently — including while shards retry.
func TestMaxInflightBound(t *testing.T) {
	corpustest.CheckLeaks(t)
	const bound = 2
	var cur, peak atomic.Int32
	run := func(ctx context.Context, jb *corpus.Job, s *corpus.Shard) (*core.Result, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return fakeRun(ctx, jb, s)
	}
	faults := corpustest.NewFaults().Set(0, 1, corpus.FaultError).Set(3, 1, corpus.FaultError)
	j := newTestJob(t, 5)
	runToEnd(t, corpus.Config{
		Run: run, Fault: faults, MaxInflight: bound, RetryBudget: 2, RetryBackoff: time.Millisecond,
	}, j)
	if j.State() != corpus.StateDone {
		t.Fatalf("state = %v, want done", j.State())
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d concurrent shard attempts, bound is %d", p, bound)
	}
}

// TestMergeDeterminism: the merged result of a faulty run (retries,
// panics that eventually give way, shuffled completion order) is
// byte-identical to a no-fault run of the same corpus.
func TestMergeDeterminism(t *testing.T) {
	corpustest.CheckLeaks(t)
	mergedJSON := func(fault corpus.Injector, inflight int) []byte {
		j := newTestJob(t, 5)
		runToEnd(t, corpus.Config{
			Run: fakeRun, Fault: fault, MaxInflight: inflight,
			RetryBudget: 3, RetryBackoff: time.Millisecond,
		}, j)
		if j.State() != corpus.StateDone {
			t.Fatalf("state = %v, want done", j.State())
		}
		b, err := json.Marshal(j.Merged())
		if err != nil {
			t.Fatalf("marshal merged: %v", err)
		}
		return b
	}
	clean := mergedJSON(nil, 1)
	faults := corpustest.NewFaults().
		Set(0, 1, corpus.FaultError).
		Set(2, 1, corpus.FaultPanic).
		Set(2, 2, corpus.FaultError).
		Set(4, 1, corpus.FaultError)
	faulty := mergedJSON(faults, 4)
	if string(clean) != string(faulty) {
		t.Fatalf("merged results differ:\nclean  = %s\nfaulty = %s", clean, faulty)
	}
}

// TestResumeSkipsReplayedShards: shards restored terminal from the
// journal are not re-mined, and the merged result is byte-identical to a
// run that mined everything fresh.
func TestResumeSkipsReplayedShards(t *testing.T) {
	corpustest.CheckLeaks(t)
	// Fresh run for the reference merge and the "journaled" shard results.
	ref := newTestJob(t, 4)
	runToEnd(t, corpus.Config{Run: fakeRun}, ref)
	refJSON, _ := json.Marshal(ref.Merged())

	// Restore shards 0 and 1 as journal checkpoints, then resume.
	j := newTestJob(t, 4)
	for idx, s := range j.Sequences()[:2] {
		res := fakeResult(idx, s.Name(), s.Len())
		if err := j.RestoreShard(idx, corpus.ShardDone, 1, res, "", time.Now()); err != nil {
			t.Fatalf("RestoreShard: %v", err)
		}
	}
	if got := j.ReplayedShards(); got != 2 {
		t.Fatalf("ReplayedShards = %d, want 2", got)
	}

	var mined []int
	var mu sync.Mutex
	run := func(ctx context.Context, jb *corpus.Job, s *corpus.Shard) (*core.Result, error) {
		mu.Lock()
		mined = append(mined, s.Index())
		mu.Unlock()
		return fakeRun(ctx, jb, s)
	}
	runToEnd(t, corpus.Config{Run: run}, j)

	if j.State() != corpus.StateDone {
		t.Fatalf("state = %v, want done", j.State())
	}
	mu.Lock()
	if len(mined) != 2 {
		t.Fatalf("re-mined shards %v, want only the 2 incomplete ones", mined)
	}
	for _, idx := range mined {
		if idx < 2 {
			t.Fatalf("replayed shard %d was re-mined", idx)
		}
	}
	mu.Unlock()
	got, _ := json.Marshal(j.Merged())
	if string(got) != string(refJSON) {
		t.Fatalf("resumed merge differs from fresh run:\nfresh   = %s\nresumed = %s", refJSON, got)
	}
}

// TestFullyReplayedJobFinalizesImmediately: a job whose every shard came
// back terminal from the journal finalizes on Start without mining.
func TestFullyReplayedJobFinalizesImmediately(t *testing.T) {
	corpustest.CheckLeaks(t)
	j := newTestJob(t, 2)
	for i, s := range j.Sequences() {
		res := fakeResult(i, s.Name(), s.Len())
		if err := j.RestoreShard(i, corpus.ShardDone, 1, res, "", time.Now()); err != nil {
			t.Fatalf("RestoreShard: %v", err)
		}
	}
	run := func(context.Context, *corpus.Job, *corpus.Shard) (*core.Result, error) {
		t.Error("runner called for a fully replayed job")
		return nil, errors.New("unreachable")
	}
	runToEnd(t, corpus.Config{Run: run}, j)
	if j.State() != corpus.StateDone {
		t.Fatalf("state = %v, want done", j.State())
	}
}

// TestRestoreShardValidation: bad checkpoints are rejected, duplicates
// are idempotent.
func TestRestoreShardValidation(t *testing.T) {
	j := newTestJob(t, 2)
	if err := j.RestoreShard(5, corpus.ShardDone, 1, &core.Result{}, "", time.Now()); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := j.RestoreShard(0, corpus.ShardRunning, 1, nil, "", time.Now()); err == nil {
		t.Fatal("non-terminal restore state accepted")
	}
	if err := j.RestoreShard(0, corpus.ShardDone, 1, nil, "", time.Now()); err == nil {
		t.Fatal("done checkpoint without result accepted")
	}
	if err := j.RestoreShard(0, corpus.ShardFailed, 3, nil, "boom", time.Now()); err != nil {
		t.Fatalf("failed checkpoint rejected: %v", err)
	}
	// Duplicate: first outcome wins, no error.
	if err := j.RestoreShard(0, corpus.ShardDone, 1, &core.Result{}, "", time.Now()); err != nil {
		t.Fatalf("duplicate checkpoint errored: %v", err)
	}
	if sv := j.Snapshot().Shards[0]; sv.State != corpus.ShardFailed {
		t.Fatalf("duplicate checkpoint overwrote first outcome: %+v", sv)
	}
}

func TestNewJobValidation(t *testing.T) {
	if _, err := corpus.NewJob(corpus.Spec{ID: "c"}); err == nil {
		t.Fatal("empty corpus accepted")
	}
	dna, _ := seq.NewDNA("a", "ACGT")
	other, err := seq.New(seq.MustAlphabet("bin", "01"), "b", "0101")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := corpus.NewJob(corpus.Spec{ID: "c", Seqs: []*seq.Sequence{dna, other}}); err == nil {
		t.Fatal("mixed alphabets accepted")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestJobEndFollowsShardEnds: a job ends only after every shard's end
// hook has returned, so its end event and outcome record follow every
// shard's. Shard 0 settles first and holds its hook while shard 1, the
// last to settle, finishes; the job's end must still come last.
func TestJobEndFollowsShardEnds(t *testing.T) {
	corpustest.CheckLeaks(t)
	for run := 0; run < 3; run++ {
		hookEntered := make(chan struct{})
		var mu sync.Mutex
		var order []string
		record := func(s string) {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
		runShard := func(ctx context.Context, jb *corpus.Job, s *corpus.Shard) (*core.Result, error) {
			if s.Index() == 1 {
				<-hookEntered // shard 0's end hook is in flight
			}
			return fakeRun(ctx, jb, s)
		}
		j := newTestJob(t, 2)
		runToEnd(t, corpus.Config{
			Run: runShard,
			Hooks: corpus.Hooks{
				ShardEnd: func(_ context.Context, _ *corpus.Job, s *corpus.Shard) {
					if s.Index() == 0 {
						close(hookEntered)
						time.Sleep(50 * time.Millisecond)
					}
					record(fmt.Sprintf("shard%d", s.Index()))
				},
				JobEnd: func(context.Context, *corpus.Job, corpus.View) { record("end") },
			},
		}, j)
		mu.Lock()
		got := strings.Join(order, " ")
		mu.Unlock()
		if len(order) != 3 || order[2] != "end" {
			t.Fatalf("run %d: hook order [%s], want both shards before the end", run, got)
		}
	}
}

// TestOutcomeRule: one rule classifies every final attempt. A candidate
// budget keeps the completed levels as done with a note, the memory
// budget as resource_exhausted, anything else fails; a one-shard job
// reports its shard's state, error and note, so both endpoints end the
// same way.
func TestOutcomeRule(t *testing.T) {
	truncated := &core.Result{Truncated: true}
	cases := []struct {
		name  string
		res   *core.Result
		err   error
		state corpus.ShardState
		job   corpus.State
		note  string
	}{
		{"done", &core.Result{}, nil, corpus.ShardDone, corpus.StateDone, ""},
		{"candidate budget", truncated, core.ErrBudgetExceeded, corpus.ShardDone, corpus.StateDone, "candidate budget exhausted"},
		{"candidate budget from the cache", truncated, nil, corpus.ShardDone, corpus.StateDone, "candidate budget exhausted"},
		{"memory budget", truncated, &core.ResourceExhaustedError{Level: 4}, corpus.ShardExhausted, corpus.StateResourceExhausted, "memory budget exhausted at level 4"},
		{"mining error", nil, errors.New("boom"), corpus.ShardFailed, corpus.StateFailed, ""},
	}
	for _, tc := range cases {
		state, note, _ := corpus.Outcome(tc.res, tc.err)
		if state != tc.state || !strings.Contains(note, tc.note) || (tc.note == "") != (note == "") {
			t.Errorf("%s: Outcome = %s %q, want %s %q", tc.name, state, note, tc.state, tc.note)
		}
		var calls atomic.Int32
		run := func(context.Context, *corpus.Job, *corpus.Shard) (*core.Result, error) {
			calls.Add(1)
			return tc.res, tc.err
		}
		j := newTestJob(t, 1)
		runToEnd(t, corpus.Config{Run: run, RetryBackoff: time.Millisecond}, j)
		v := j.Snapshot()
		if v.State != tc.job || v.Note != note || calls.Load() != 1 {
			t.Errorf("%s: job ended %s %q after %d attempts, want %s %q after 1", tc.name, v.State, v.Note, calls.Load(), tc.job, note)
		}
		if tc.err != nil && tc.state != corpus.ShardDone && v.Error != tc.err.Error() {
			t.Errorf("%s: job error %q, want the shard's %q", tc.name, v.Error, tc.err)
		}
	}
}

// TestStartJournalsFirst: Start hands the accepted job to its caller's
// journal before any attempt can begin, so no hook of the job — its move
// to running, a shard's end, its own end — can be journaled ahead of its
// submit record; a start the full pool refuses writes nothing.
func TestStartJournalsFirst(t *testing.T) {
	corpustest.CheckLeaks(t)
	for run := 0; run < 20; run++ {
		var mu sync.Mutex
		var order []string
		record := func(s string) {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
		end := make(chan struct{})
		e := corpus.NewEngine(corpus.Config{
			Run: fakeRun,
			Hooks: corpus.Hooks{
				Start:    func(*corpus.Job) { record("start") },
				ShardEnd: func(context.Context, *corpus.Job, *corpus.Shard) { record("shard") },
				JobEnd:   func(context.Context, *corpus.Job, corpus.View) { record("end"); close(end) },
			},
		})
		j := newTestJob(t, 2)
		e.Start(j, func(v corpus.View) {
			time.Sleep(time.Millisecond) // a journal write, slower than a worker
			record("submit " + string(v.State))
		})
		<-end
		mu.Lock()
		got := strings.Join(order, ", ")
		mu.Unlock()
		if len(order) != 5 || order[0] != "submit queued" || order[4] != "end" {
			t.Fatalf("run %d: journal order [%s], want the submit first and the end last", run, got)
		}
	}
	refused := corpus.NewEngine(corpus.Config{Run: fakeRun, Enqueue: func(func()) bool { return false }})
	j := newTestJob(t, 1)
	if refused.Start(j, func(corpus.View) { t.Error("a refused start wrote its submit record") }) {
		t.Fatal("Start on a full pool returned true")
	}
	refused.Interrupt(j)
}
