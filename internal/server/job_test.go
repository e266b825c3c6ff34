package server

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/corpus/corpustest"
	"permine/internal/gen"
	"permine/internal/mine"
	"permine/internal/seq"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// miningParams is a bounded multi-level regime shared by the manager and
// HTTP tests (see cancelParams in internal/mine for the reasoning).
func miningParams() core.Params {
	return core.Params{Gap: combinat.Gap{N: 2, M: 4}, MinSupport: 0.0005, MaxLen: 6}
}

func genomeSeq(t *testing.T, length int, seed uint64) *seq.Sequence {
	t.Helper()
	s, err := gen.GenomeLike(length, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *corpus.Job) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.State().Terminal() {
			return jobView(j.Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in state %s", j.ID(), j.State())
	return JobView{}
}

func newTestManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// TestManagerLifecycle: a submitted job runs to done with per-level
// progress, and its result matches a direct library call.
func TestManagerLifecycle(t *testing.T) {
	corpustest.CheckLeaks(t)
	m := newTestManager(t, ManagerConfig{Workers: 2})
	s := genomeSeq(t, 400, 7)

	j, err := m.Submit(context.Background(), s, core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j)
	if v.State != corpus.StateDone {
		t.Fatalf("state = %s (err %q), want done", v.State, v.Error)
	}
	if len(v.Progress) == 0 || v.Result == nil {
		t.Fatalf("missing progress (%d levels) or result", len(v.Progress))
	}

	want, err := mine.MPPm(s, miningParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Result.Patterns) != len(want.Patterns) {
		t.Fatalf("job found %d patterns, direct call %d", len(v.Result.Patterns), len(want.Patterns))
	}
	for i, p := range want.Patterns {
		if got := v.Result.Patterns[i]; got.Chars != p.Chars || got.Support != p.Support {
			t.Fatalf("pattern %d: job %v, direct %v", i, got, p)
		}
	}
	if len(v.Progress) != len(want.Levels) {
		t.Errorf("job progress has %d levels, direct call %d", len(v.Progress), len(want.Levels))
	}
}

// TestManagerCacheHit: an identical second submit completes instantly from
// the cache with the same result pointer semantics and hit accounting.
func TestManagerCacheHit(t *testing.T) {
	corpustest.CheckLeaks(t)
	cache := NewCache(8)
	m := newTestManager(t, ManagerConfig{Workers: 1, Cache: cache})
	s := genomeSeq(t, 400, 7)

	j1, err := m.Submit(context.Background(), s, core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitTerminal(t, j1)
	if v1.State != corpus.StateDone || v1.CacheHit {
		t.Fatalf("first run: state %s cacheHit %v, want done/false", v1.State, v1.CacheHit)
	}
	// The submit response is the job as accepted, whatever it became.
	if a := jobView(j1.Accepted()); a.State != corpus.StateQueued || a.CacheHit || a.Result != nil {
		t.Fatalf("first run accepted as %s (cacheHit %v, result %v), want queued with no result", a.State, a.CacheHit, a.Result != nil)
	}

	j2, err := m.Submit(context.Background(), s, core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v2 := jobView(j2.Snapshot()) // no waiting: cache hits are terminal at submit
	if v2.State != corpus.StateDone || !v2.CacheHit {
		t.Fatalf("second run: state %s cacheHit %v, want done/true", v2.State, v2.CacheHit)
	}
	if a := jobView(j2.Accepted()); a.State != corpus.StateDone || !a.CacheHit || a.Result == nil {
		t.Fatalf("second run accepted as %s (cacheHit %v, result %v), want done with the cached result", a.State, a.CacheHit, a.Result != nil)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", st.Hits)
	}
	if len(v1.Result.Patterns) != len(v2.Result.Patterns) {
		t.Errorf("cached result differs: %d vs %d patterns", len(v1.Result.Patterns), len(v2.Result.Patterns))
	}
}

// TestManagerCancelRunning gates the mining goroutine on its first level
// callback, cancels, and verifies the job lands in cancelled without a
// result.
func TestManagerCancelRunning(t *testing.T) {
	corpustest.CheckLeaks(t)
	m := newTestManager(t, ManagerConfig{Workers: 1})
	levelHit := make(chan struct{}, 1)
	release := make(chan struct{})
	m.OnLevel = func(j *corpus.Job, lm core.LevelMetrics) {
		select {
		case levelHit <- struct{}{}:
		default:
		}
		<-release
	}

	j, err := m.Submit(context.Background(), genomeSeq(t, 400, 7), core.AlgoMPP, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-levelHit:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached its first level")
	}
	// The worker is blocked inside the level callback: the job is
	// provably mid-run.
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if got := j.State(); got != corpus.StateCancelled {
		t.Fatalf("state immediately after cancel = %s, want cancelled", got)
	}
	close(release)

	v := waitTerminal(t, j)
	if v.State != corpus.StateCancelled || v.Result != nil {
		t.Fatalf("state %s result %v, want cancelled with no result", v.State, v.Result)
	}
	// The worker observed cancellation at the next boundary: at most the
	// level that was in flight got recorded.
	if len(v.Progress) > 2 {
		t.Errorf("%d levels recorded after cancellation, want <= 2", len(v.Progress))
	}

	// Cancelling again reports the conflict.
	if _, err := m.Cancel(j.ID()); err != ErrJobFinished {
		t.Errorf("second cancel: err = %v, want ErrJobFinished", err)
	}
}

// TestManagerQueueFull: with one gated worker and a queue of one, a third
// submit is rejected.
func TestManagerQueueFull(t *testing.T) {
	corpustest.CheckLeaks(t)
	m := newTestManager(t, ManagerConfig{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	m.OnLevel = func(j *corpus.Job, lm core.LevelMetrics) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	defer close(release)

	s := genomeSeq(t, 400, 7)
	if _, err := m.Submit(context.Background(), s, core.AlgoMPP, miningParams(), 0); err != nil {
		t.Fatal(err)
	}
	<-started // worker is now blocked mid-job; the queue is free again
	if _, err := m.Submit(context.Background(), s, core.AlgoMPP, miningParams(), 0); err != nil {
		t.Fatal(err) // occupies the queue slot
	}
	if _, err := m.Submit(context.Background(), s, core.AlgoMPP, miningParams(), 0); err != ErrQueueFull {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
}

// TestManagerShutdownCancelsWork: Shutdown cancels queued and running jobs
// and refuses later submits.
func TestManagerShutdownCancelsWork(t *testing.T) {
	corpustest.CheckLeaks(t)
	m := NewManager(ManagerConfig{Workers: 1, Logger: quietLogger()})
	s := genomeSeq(t, 500, 3)
	var jobs []*corpus.Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(context.Background(), s, core.AlgoMPP, miningParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := j.State(); !st.Terminal() {
			t.Errorf("job %s still %s after shutdown", j.ID(), st)
		}
	}
	if _, err := m.Submit(context.Background(), s, core.AlgoMPP, miningParams(), 0); err != ErrShuttingDown {
		t.Errorf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("repeated shutdown: %v", err)
	}
}

// TestManagerConcurrentLoad hammers submit/poll/cancel from many
// goroutines; run under -race this is the job manager's data-race gate.
func TestManagerConcurrentLoad(t *testing.T) {
	corpustest.CheckLeaks(t)
	cache := NewCache(16)
	metrics := NewMetrics(nil)
	m := newTestManager(t, ManagerConfig{
		Workers: 4, QueueDepth: 256, Cache: cache, Metrics: metrics,
	})
	metrics.queueFn = m.QueueDepth

	const clients = 8
	const perClient = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// A few distinct sequences so cache hits and misses mix.
				s := genomeSeq(t, 200+20*(i%3), uint64(c%2)+1)
				algo := core.AlgoMPP
				if i%2 == 0 {
					algo = core.AlgoMPPm
				}
				j, err := m.Submit(context.Background(), s, algo, miningParams(), 0)
				if err == ErrQueueFull {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				switch i % 3 {
				case 0:
					// Poll to terminal without t.Fatal (wrong goroutine).
					for !j.State().Terminal() {
						time.Sleep(time.Millisecond)
					}
				case 1:
					m.Cancel(j.ID())
				default:
					jobView(j.Snapshot())
					m.Jobs()
					metrics.Snapshot(cache)
				}
			}
		}(c)
	}
	wg.Wait()

	// Every job must eventually reach a terminal state.
	for _, j := range m.Jobs() {
		waitTerminal(t, j)
	}
	snap := metrics.Snapshot(cache)
	var terminal int64
	for _, s := range []string{"done", "failed", "cancelled"} {
		terminal += snap.JobsFinished[s]
	}
	if terminal == 0 {
		t.Error("metrics recorded no finished jobs")
	}
	if snap.JobsFinished["failed"] != 0 {
		t.Errorf("%d jobs failed under load", snap.JobsFinished["failed"])
	}
}

// TestManagerRetention: finished jobs beyond the retention bound are
// evicted, oldest first.
func TestManagerRetention(t *testing.T) {
	corpustest.CheckLeaks(t)
	m := newTestManager(t, ManagerConfig{Workers: 1, Retain: 3})
	s := genomeSeq(t, 200, 1)
	var ids []string
	for i := 0; i < 6; i++ {
		p := miningParams()
		p.MinSupport = 0.0005 + float64(i)*1e-6 // distinct cache keys
		j, err := m.Submit(context.Background(), s, core.AlgoMPP, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID())
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest finished job should have been evicted")
	}
	if _, ok := m.Get(ids[len(ids)-1]); !ok {
		t.Error("newest job must be retained")
	}
	if got := len(m.Jobs()); got > 3 {
		t.Errorf("%d jobs retained, want <= 3", got)
	}
}

// TestManagerCancelQueued: cancelling a job that is still waiting in the
// queue terminates it immediately — no worker slot is consumed, no
// StartedAt is set, and the slot serves the next job.
func TestManagerCancelQueued(t *testing.T) {
	corpustest.CheckLeaks(t)
	m := newTestManager(t, ManagerConfig{Workers: 1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	m.OnLevel = func(j *corpus.Job, lm core.LevelMetrics) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}

	s := genomeSeq(t, 400, 7)
	j1, err := m.Submit(context.Background(), s, core.AlgoMPP, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now pinned inside j1

	p2 := miningParams()
	p2.MinSupport = 0.0006 // distinct cache key
	j2, err := m.Submit(context.Background(), s, core.AlgoMPP, p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.State(); got != corpus.StateQueued {
		t.Fatalf("second job state = %s, want queued", got)
	}
	if _, err := m.Cancel(j2.ID()); err != nil {
		t.Fatal(err)
	}
	// Terminal at once — nothing to drain, no worker involved.
	v2 := jobView(j2.Snapshot())
	if v2.State != corpus.StateCancelled || v2.Result != nil || v2.StartedAt != nil {
		t.Fatalf("cancelled-while-queued job = %+v, want cancelled, never started", v2)
	}
	if len(v2.Progress) != 0 {
		t.Errorf("queued job recorded %d levels", len(v2.Progress))
	}

	// Release the worker: j1 finishes and the freed slot must go to new
	// work, not to the cancelled job.
	close(release)
	if v1 := waitTerminal(t, j1); v1.State != corpus.StateDone {
		t.Fatalf("first job finished %s", v1.State)
	}
	p3 := miningParams()
	p3.MinSupport = 0.0007
	j3, err := m.Submit(context.Background(), s, core.AlgoMPP, p3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v3 := waitTerminal(t, j3); v3.State != corpus.StateDone {
		t.Fatalf("third job finished %s, want done (slot must be free)", v3.State)
	}
	if got := j2.State(); got != corpus.StateCancelled {
		t.Errorf("cancelled job resurrected to %s", got)
	}
}

// TestManagerCancelRace: cancels racing worker pickup across many jobs;
// under -race this gates the queued-vs-running cancel handoff. Every job
// must land terminal with a consistent snapshot either way.
func TestManagerCancelRace(t *testing.T) {
	corpustest.CheckLeaks(t)
	m := newTestManager(t, ManagerConfig{Workers: 2, QueueDepth: 64})
	s := genomeSeq(t, 300, 5)

	const jobs = 40
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		p := miningParams()
		p.MinSupport = 0.0005 + float64(i)*1e-6 // defeat the cache
		j, err := m.Submit(context.Background(), s, core.AlgoMPP, p, 0)
		if err == ErrQueueFull {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(j *corpus.Job) {
			defer wg.Done()
			m.Cancel(j.ID()) // races the worker dequeuing this very job
			// Poll to terminal without waitTerminal: t.Fatal is not
			// allowed from this goroutine.
			deadline := time.Now().Add(30 * time.Second)
			for !j.State().Terminal() {
				if time.Now().After(deadline) {
					t.Errorf("job %s stuck in %s", j.ID(), j.State())
					return
				}
				time.Sleep(time.Millisecond)
			}
			v := jobView(j.Snapshot())
			switch v.State {
			case corpus.StateCancelled:
				if v.Result != nil {
					t.Errorf("job %s cancelled but has a result", v.ID)
				}
			case corpus.StateDone:
				if v.Result == nil {
					t.Errorf("job %s done without a result", v.ID)
				}
			default:
				t.Errorf("job %s landed in %s", v.ID, v.State)
			}
		}(j)
	}
	wg.Wait()
}
