package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/corpus/corpustest"
	"permine/internal/mine"
	"permine/internal/seq"
	"permine/internal/server/store"
	"permine/internal/server/store/storetest"
)

// heavySeq and heavyParams reproduce internal/mine's budget regime: a
// workload whose retained PIL bytes blow through a 1 MiB budget mid-run,
// with several completed levels behind it.
func heavySeq(t *testing.T) *seq.Sequence { return genomeSeq(t, 20000, 42) }

func heavyParams() core.Params {
	return core.Params{Gap: combinat.Gap{N: 2, M: 6}, MinSupport: 0.0002, Workers: 2}
}

// TestGovernorThresholds: the brownout ladder's boundary arithmetic, the
// Acquire/Release accounting, and the track-only behaviour of an
// unlimited governor.
func TestGovernorThresholds(t *testing.T) {
	g := NewGovernor(1000, 50)
	if g.Brownout() || g.Saturated() || g.Pressure() != 0 {
		t.Fatalf("idle governor: brownout %v saturated %v pressure %v", g.Brownout(), g.Saturated(), g.Pressure())
	}
	tr := g.Acquire()
	tr.Charge(499)
	if g.Brownout() {
		t.Fatalf("brownout below threshold: used %d of %d", g.Used(), g.Limit())
	}
	tr.Charge(1) // 500 = exactly 50%
	if !g.Brownout() || g.Saturated() {
		t.Fatalf("at threshold: brownout %v saturated %v", g.Brownout(), g.Saturated())
	}
	tr.Charge(500) // 1000 = the full ceiling
	if !g.Saturated() || g.Pressure() != 1 {
		t.Fatalf("at ceiling: saturated %v pressure %v", g.Saturated(), g.Pressure())
	}
	g.Release(tr)
	if g.Used() != 0 || g.High() != 1000 {
		t.Fatalf("after release: used %d high %d, want 0 and 1000", g.Used(), g.High())
	}
	if g.Brownout() || g.Saturated() {
		t.Fatal("release did not clear the pressure")
	}

	u := NewGovernor(0, 85) // unlimited: accounting without shedding
	tu := u.Acquire()
	tu.Charge(1 << 30)
	if u.Brownout() || u.Saturated() || u.Pressure() != 0 {
		t.Fatalf("unlimited governor sheds: brownout %v saturated %v pressure %v", u.Brownout(), u.Saturated(), u.Pressure())
	}
	if u.Used() != 1<<30 {
		t.Fatalf("unlimited governor lost the accounting: used %d", u.Used())
	}

	// Unset or out-of-range settings are refused, not defaulted.
	for _, c := range [][2]int{{-1, 85}, {0, 0}, {0, 101}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGovernor(%d, %d) built a governor", c[0], c[1])
				}
			}()
			NewGovernor(int64(c[0]), c[1])
		}()
	}
}

// TestManagerResourceExhausted: a job whose mining run blows through the
// manager's default per-job budget lands in the resource_exhausted
// terminal state carrying the completed-levels partial result.
func TestManagerResourceExhausted(t *testing.T) {
	corpustest.CheckLeaks(t)
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 1, MemBudget: 1 << 20}})
	j, err := m.Submit(context.Background(), heavySeq(t), core.AlgoMPP, heavyParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j)
	if v.State != corpus.StateResourceExhausted {
		t.Fatalf("state = %s (err %q), want resource_exhausted", v.State, v.Error)
	}
	if v.Result == nil || !v.Result.Truncated || len(v.Result.Levels) == 0 {
		t.Fatalf("partial result missing: %+v", v.Result)
	}
	if !strings.Contains(v.Error, "memory budget") {
		t.Errorf("error %q does not name the budget", v.Error)
	}
	if v.Note == "" {
		t.Error("no note explaining the truncation")
	}
}

// TestBudgetAbortIsolatesConcurrentJobs is the tentpole's acceptance
// claim: an adversarial over-budget job terminates resource_exhausted
// while a concurrent in-budget job on the same worker pool finishes with
// results identical to an unloaded direct run.
func TestBudgetAbortIsolatesConcurrentJobs(t *testing.T) {
	corpustest.CheckLeaks(t)
	small := genomeSeq(t, 400, 7)
	want, err := mine.MPPm(small, miningParams())
	if err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 2}})
	over := heavyParams()
	over.MemoryBudget = 1 << 20
	jOver, err := m.Submit(context.Background(), heavySeq(t), core.AlgoMPP, over, 0)
	if err != nil {
		t.Fatal(err)
	}
	jIn, err := m.Submit(context.Background(), small, core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}

	if v := waitTerminal(t, jOver); v.State != corpus.StateResourceExhausted {
		t.Fatalf("over-budget job = %s (err %q), want resource_exhausted", v.State, v.Error)
	}
	vIn := waitTerminal(t, jIn)
	if vIn.State != corpus.StateDone {
		t.Fatalf("in-budget job = %s (err %q), want done", vIn.State, vIn.Error)
	}
	if len(vIn.Result.Patterns) != len(want.Patterns) {
		t.Fatalf("in-budget job found %d patterns, unloaded run %d", len(vIn.Result.Patterns), len(want.Patterns))
	}
	for i, p := range want.Patterns {
		if got := vIn.Result.Patterns[i]; got.Chars != p.Chars || got.Support != p.Support {
			t.Fatalf("pattern %d diverged under memory pressure: got %v, want %v", i, got, p)
		}
	}
}

// TestGovernorAdmissionLadder walks the three rungs: healthy accepts
// everything, brownout sheds corpus and enumerate but keeps plain jobs,
// saturation sheds all new mining — while cache hits serve throughout.
func TestGovernorAdmissionLadder(t *testing.T) {
	corpustest.CheckLeaks(t)
	gov := NewGovernor(1<<20, 50)
	mt := NewMetrics(0)
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 1}, Governor: gov, Cache: NewCache(8), Metrics: mt})
	s := genomeSeq(t, 400, 7)

	// Healthy: warm the cache.
	j, err := m.Submit(context.Background(), s, core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, j); v.State != corpus.StateDone {
		t.Fatalf("warmup job = %s", v.State)
	}

	ballast := gov.Acquire()
	defer gov.Release(ballast)
	ballast.Charge(600 << 10) // ~59% of 1 MiB: brownout, not saturated

	if _, err := m.SubmitCorpus(context.Background(), "c", []*seq.Sequence{s}, core.AlgoMPPm, miningParams(), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("corpus submit in brownout: err = %v, want ErrOverloaded", err)
	}
	if _, err := m.Submit(context.Background(), s, core.AlgoEnumerate, miningParams(), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("enumerate submit in brownout: err = %v, want ErrOverloaded", err)
	}
	j2, err := m.Submit(context.Background(), genomeSeq(t, 500, 9), core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatalf("plain job in brownout: %v", err)
	}
	if v := waitTerminal(t, j2); v.State != corpus.StateDone {
		t.Fatalf("brownout job = %s (err %q)", v.State, v.Error)
	}

	ballast.Charge(600 << 10) // past the ceiling: saturated
	if _, err := m.Submit(context.Background(), genomeSeq(t, 600, 11), core.AlgoMPPm, miningParams(), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("plain job while saturated: err = %v, want ErrOverloaded", err)
	}
	// Cache hits keep serving: admission runs after the cache lookup.
	jHit, err := m.Submit(context.Background(), s, core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatalf("cached submit while saturated: %v", err)
	}
	if v := jobView(jHit.Snapshot()); v.State != corpus.StateDone || !v.CacheHit {
		t.Fatalf("cached submit while saturated: state %s cacheHit %v", v.State, v.CacheHit)
	}

	snap := mt.Snapshot()
	if snap.Shed["corpus"] != 1 || snap.Shed["enumerate"] != 1 || snap.Shed["job"] != 1 {
		t.Errorf("shed counters = %v, want corpus/enumerate/job each 1", snap.Shed)
	}
	if snap.Governor == nil && gov.Used() == 0 {
		t.Error("governor lost its accounting")
	}
}

// TestSubmitShed429RetryAfter: a governor-shed HTTP submit answers 429
// with a Retry-After hint (never 503, which stays reserved for
// shutdown), and the shed shows up in the Prometheus exposition.
func TestSubmitShed429RetryAfter(t *testing.T) {
	corpustest.CheckLeaks(t)
	srv, ts := newTestServer(t, Config{Workers: 1, MemGlobal: 1 << 20})
	ballast := srv.governor.Acquire()
	defer srv.governor.Release(ballast)
	ballast.Charge(2 << 20)

	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", genomeSeq(t, 400, 7).Data()))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}

	mresp := doRequest(t, http.MethodGet, ts.URL+"/metrics")
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`permine_shed_total{class="job"} 1`,
		"permine_mem_used_bytes 2.097152e+06",
		"permine_mem_limit_bytes 1.048576e+06",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPersistResourceExhausted: the resource_exhausted terminal state is
// journaled and survives a SIGKILL-style restart — restored with its
// partial result and note, and excluded from the cache rewarm so the
// work is retried rather than served truncated.
func TestPersistResourceExhausted(t *testing.T) {
	corpustest.CheckLeaks(t)
	dir := t.TempDir()
	w1 := openTestWAL(t, dir)
	m1 := newTestManager(t, ManagerConfig{Config: Config{Workers: 1, MemBudget: 1 << 20}, Store: w1})
	j, err := m1.Submit(context.Background(), heavySeq(t), core.AlgoMPP, heavyParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, j)
	if want.State != corpus.StateResourceExhausted {
		t.Fatalf("job finished %s, want resource_exhausted", want.State)
	}
	w1.Close() // freeze the journal as a crash would

	w2 := openTestWAL(t, dir)
	m2 := newTestManager(t, ManagerConfig{Config: Config{Workers: 1, MemBudget: 1 << 20}, Store: w2, Cache: NewCache(8)})
	sum := m2.Restore(w2.Recovered())
	if sum.Terminal != 1 || sum.Requeued != 0 {
		t.Fatalf("restore summary = %+v, want 1 terminal", sum)
	}
	got, ok := m2.Get(j.ID())
	if !ok {
		t.Fatalf("job %s not restored", j.ID())
	}
	v := jobView(got.Snapshot())
	if v.State != corpus.StateResourceExhausted || v.Result == nil || !v.Result.Truncated {
		t.Fatalf("restored state %s, result %v", v.State, v.Result)
	}
	if v.Note == "" {
		t.Error("restored job lost its truncation note")
	}

	// The truncated result must not serve identical submits from cache.
	j2, err := m2.Submit(context.Background(), heavySeq(t), core.AlgoMPP, heavyParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if jobView(j2.Snapshot()).CacheHit {
		t.Error("resource_exhausted result was rewarmed into the cache")
	}
	waitTerminal(t, j2)
}

// TestRaceBudgetAbortVsCancel races a budget abort against cooperative
// cancellation at varying offsets: whichever wins, the job settles in
// exactly one terminal state and stays there. Run with -race.
func TestRaceBudgetAbortVsCancel(t *testing.T) {
	corpustest.CheckLeaks(t)
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 2, MemBudget: 1 << 20}})
	s := heavySeq(t)
	for _, delay := range []time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond} {
		j, err := m.Submit(context.Background(), s, core.AlgoMPP, heavyParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(delay)
			// ErrJobFinished just means the abort won the race.
			if _, err := m.Cancel(j.ID()); err != nil && !errors.Is(err, ErrJobFinished) {
				t.Errorf("cancel after %v: %v", delay, err)
			}
		}()
		v := waitTerminal(t, j)
		<-done
		if v.State != corpus.StateCancelled && v.State != corpus.StateResourceExhausted {
			t.Fatalf("delay %v: terminal state %s, want cancelled or resource_exhausted", delay, v.State)
		}
		// The terminal state is final: neither path may overwrite the other.
		time.Sleep(5 * time.Millisecond)
		if now := j.State(); now != v.State {
			t.Fatalf("delay %v: terminal state flipped %s -> %s", delay, v.State, now)
		}
	}
}

// TestRaceSubmitsVsStoreDegrade runs concurrent submits across the
// store's live degradation to memory-only (the disk dies mid-burst):
// every job must still reach done. Run with -race.
func TestRaceSubmitsVsStoreDegrade(t *testing.T) {
	corpustest.CheckLeaks(t)
	fs := &storetest.FaultFS{}
	w, err := store.Open(store.Options{
		Dir: t.TempDir(), FS: fs, RetainTerminal: 1024, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 2}, Store: w})

	const jobs = 8
	seqs := make([]*seq.Sequence, jobs)
	for i := range seqs {
		seqs[i] = genomeSeq(t, 300+40*i, uint64(i+1))
	}
	// Script the disk to die a few writes in, so the degrade transition
	// lands in the middle of the submit burst.
	fs.FailFrom = fs.Ops() + 5

	var wg sync.WaitGroup
	states := make([]JobView, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := m.Submit(context.Background(), seqs[i], core.AlgoMPPm, miningParams(), 0)
			if err != nil {
				errs[i] = err
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) && !j.State().Terminal() {
				time.Sleep(2 * time.Millisecond)
			}
			states[i] = jobView(j.Snapshot())
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if states[i].State != corpus.StateDone {
			t.Fatalf("job %d finished %s (err %q), want done despite the dying disk", i, states[i].State, states[i].Error)
		}
	}
	if st := w.Stats(); !st.Degraded {
		t.Errorf("store never degraded: %+v", st)
	}
}

// TestGovernorUncountsPooledMemory: a job's charges leave the governor
// when the job ends, although its working set stays pooled for the next
// mine. After a burst of concurrent jobs on pools a larger mine warmed,
// the gauge is back at 0 and its high-water mark shows the jobs were
// charged.
func TestGovernorUncountsPooledMemory(t *testing.T) {
	corpustest.CheckLeaks(t)
	if _, err := mine.MPP(heavySeq(t), heavyParams()); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 2}})
	p := miningParams()
	p.Workers = 2
	var jobs []*corpus.Job
	for i := 0; i < 6; i++ {
		algo := core.AlgoMPP
		if i%2 == 1 {
			algo = core.AlgoMPPm
		}
		j, err := m.Submit(context.Background(), genomeSeq(t, 3000, uint64(100+i)), algo, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if v := waitTerminal(t, j); v.State != corpus.StateDone {
			t.Fatalf("job %s = %s (err %q), want done", v.ID, v.State, v.Error)
		}
	}
	g := m.Governor()
	deadline := time.Now().Add(5 * time.Second)
	for g.Used() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if g.Used() != 0 {
		t.Fatalf("governor Used = %d after every job ended, want 0", g.Used())
	}
	if g.High() == 0 {
		t.Fatal("governor High = 0: the jobs charged nothing")
	}
}
