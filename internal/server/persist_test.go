package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/server/store"
	"permine/internal/server/store/storetest"
)

func openTestWAL(t *testing.T, dir string) *store.WAL {
	t.Helper()
	w, err := store.Open(store.Options{Dir: dir, RetainTerminal: 1024, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestManagerPersistTerminal: a finished job survives a close/reopen of
// the journal — the restored manager serves its state, result and cache
// entry without re-running anything.
func TestManagerPersistTerminal(t *testing.T) {
	dir := t.TempDir()
	w1 := openTestWAL(t, dir)
	m1 := newTestManager(t, ManagerConfig{Config: Config{Workers: 1}, Store: w1})
	s := genomeSeq(t, 400, 7)

	j, err := m1.Submit(context.Background(), s, core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, j)
	if want.State != corpus.StateDone {
		t.Fatalf("job finished %s (%s)", want.State, want.Error)
	}
	w1.Close() // freeze the journal before the manager drains

	w2 := openTestWAL(t, dir)
	cache := NewCache(8)
	m2 := newTestManager(t, ManagerConfig{Config: Config{Workers: 1}, Store: w2, Cache: cache})
	sum := m2.Restore(w2.Recovered())
	if sum.Terminal != 1 || sum.Requeued != 0 || sum.Skipped != 0 {
		t.Fatalf("restore summary = %+v", sum)
	}

	got, ok := m2.Get(j.ID())
	if !ok {
		t.Fatalf("job %s not restored", j.ID())
	}
	v := jobView(got.Snapshot())
	if v.State != corpus.StateDone || v.Result == nil {
		t.Fatalf("restored state %s, result %v", v.State, v.Result != nil)
	}
	if len(v.Result.Patterns) != len(want.Result.Patterns) {
		t.Fatalf("restored %d patterns, want %d", len(v.Result.Patterns), len(want.Result.Patterns))
	}
	for i, p := range want.Result.Patterns {
		if g := v.Result.Patterns[i]; g.Chars != p.Chars || g.Support != p.Support {
			t.Fatalf("pattern %d: restored %v, want %v", i, g, p)
		}
	}
	if len(v.Progress) != len(want.Progress) {
		t.Errorf("restored %d progress levels, want %d", len(v.Progress), len(want.Progress))
	}

	// The restored result re-warmed the cache: an identical submit is an
	// instant hit.
	j2, err := m2.Submit(context.Background(), s, core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2 := jobView(j2.Snapshot()); v2.State != corpus.StateDone || !v2.CacheHit {
		t.Errorf("resubmit after restore: state %s cacheHit %v, want an instant cache hit", v2.State, v2.CacheHit)
	}
	// And the restored id space was respected: the new job got a fresh id.
	if j2.ID() == j.ID() {
		t.Errorf("id collision after restore: %s", j2.ID())
	}
}

// TestManagerCrashRequeue: a SIGKILL-style crash (journal frozen with one
// job running and two queued) is recovered by re-executing all three to
// done, each charged one retry attempt.
func TestManagerCrashRequeue(t *testing.T) {
	dir := t.TempDir()
	w1 := openTestWAL(t, dir)
	m1 := newTestManager(t, ManagerConfig{Config: Config{Workers: 1}, Store: w1})
	gate := make(chan struct{})
	running := make(chan struct{}, 1)
	m1.OnLevel = func(j *corpus.Job, lm core.LevelMetrics) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-gate
	}
	defer close(gate)

	s := genomeSeq(t, 400, 7)
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m1.Submit(context.Background(), s, core.AlgoMPPm, miningParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("first job never started running")
	}
	// "Crash": freeze the journal mid-flight. m1 keeps limping along but
	// none of its later transitions reach disk (appends after Close are
	// no-ops), exactly as if the process had been SIGKILLed here.
	w1.Close()

	w2 := openTestWAL(t, dir)
	recs := w2.Recovered()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	states := map[string]int{}
	for _, rec := range recs {
		states[rec.State]++
	}
	if states["running"] != 1 || states["queued"] != 2 {
		t.Fatalf("recovered states = %v, want 1 running + 2 queued", states)
	}

	metrics := NewMetrics(nil)
	m2 := newTestManager(t, ManagerConfig{
		Config: Config{Workers: 2, RetryBackoff: time.Millisecond}, Store: w2, Metrics: metrics,
	})
	sum := m2.Restore(recs)
	if sum.Requeued != 3 || sum.Terminal != 0 || sum.Exhausted != 0 {
		t.Fatalf("restore summary = %+v", sum)
	}
	for _, id := range ids {
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s not restored", id)
		}
		v := waitTerminal(t, j)
		if v.State != corpus.StateDone || v.Result == nil {
			t.Fatalf("job %s re-executed to %s (%s)", id, v.State, v.Error)
		}
		if v.Attempts != 1 {
			t.Errorf("job %s attempts = %d, want 1", id, v.Attempts)
		}
	}
	snap := metrics.Snapshot(nil)
	if snap.Recovery["requeued"] != 3 {
		t.Errorf("recovery metrics = %v, want requeued=3", snap.Recovery)
	}
}

// TestManagerRetryBudgetExhausted: a job that keeps being interrupted is
// failed once its recovery attempts reach the budget, terminally and
// durably.
func TestManagerRetryBudgetExhausted(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	params, _ := json.Marshal(core.Params{Gap: miningParams().Gap, MinSupport: 0.0005})
	rec := store.JobRecord{
		ID: "j-000001", Algorithm: "MPPm",
		SeqName: "crashy", SeqAlphabet: "DNA", SeqSymbols: "ACGT",
		SeqData: strings.Repeat("ACGT", 100), Params: params,
		TimeoutMS: 60000, State: "running", Attempts: 3,
		CreatedAt: time.Now(),
	}
	w.AppendSubmit(rec) // as a previous incarnation would have journaled it
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 1, RetryBudget: 3}, Store: w})
	sum := m.Restore([]store.JobRecord{rec})
	if sum.Exhausted != 1 || sum.Requeued != 0 {
		t.Fatalf("restore summary = %+v", sum)
	}
	j, ok := m.Get("j-000001")
	if !ok {
		t.Fatal("exhausted job not registered")
	}
	v := jobView(j.Snapshot())
	if v.State != corpus.StateFailed || !strings.Contains(v.Error, "retry budget") {
		t.Fatalf("state %s error %q, want failed with a budget error", v.State, v.Error)
	}
	// The failure was journaled: a restart sees it as terminal.
	w.Close()
	w2 := openTestWAL(t, dir)
	recs := w2.Recovered()
	if len(recs) != 1 || recs[0].State != "failed" {
		t.Fatalf("journal after exhaustion = %+v", recs)
	}
}

// TestManagerRestoreSkipsBadRecords: undecodable records are dropped with
// a warning instead of poisoning the boot.
func TestManagerRestoreSkipsBadRecords(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 1}})
	good, _ := json.Marshal(core.Params{Gap: miningParams().Gap, MinSupport: 0.5})
	records := []store.JobRecord{
		{ID: "j-000001", Algorithm: "no-such-algo", SeqAlphabet: "DNA", SeqSymbols: "ACGT",
			SeqData: "ACGT", Params: good, State: "queued"},
		{ID: "j-000002", Algorithm: "MPPm", SeqAlphabet: "DNA", SeqSymbols: "ACGT",
			SeqData: "ACGTXX", Params: good, State: "queued"}, // bad symbol
		{ID: "j-000003", Algorithm: "MPPm", SeqAlphabet: "DNA", SeqSymbols: "ACGT",
			SeqData: "ACGT", Params: json.RawMessage(`{"`), State: "queued"}, // torn params
		{ID: "j-000004", Algorithm: "MPPm", SeqAlphabet: "DNA", SeqSymbols: "ACGT",
			SeqData: "ACGT", Params: good, State: "limbo"}, // unknown state
	}
	sum := m.Restore(records)
	if sum.Skipped != 4 || sum.Requeued != 0 || sum.Terminal != 0 {
		t.Fatalf("restore summary = %+v, want 4 skipped", sum)
	}
	if got := len(m.Jobs()); got != 0 {
		t.Errorf("%d jobs registered from bad records", got)
	}
}

// TestManagerRestoreRetiredJoinName: a journaled job whose params name the
// retired bitmap join ("Join":"bitap", as older binaries wrote them) is
// restored and re-executed, not skipped.
func TestManagerRestoreRetiredJoinName(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 1, RetryBackoff: time.Millisecond}})
	params, _ := json.Marshal(miningParams())
	params = append(params[:len(params)-1], `,"Join":"bitap"}`...)
	rec := store.JobRecord{
		ID: "j-000001", Algorithm: "MPPm",
		SeqName: "older-binary", SeqAlphabet: "DNA", SeqSymbols: "ACGT",
		SeqData: genomeSeq(t, 400, 7).Data(), Params: params,
		TimeoutMS: 60000, State: "queued", CreatedAt: time.Now(),
	}
	sum := m.Restore([]store.JobRecord{rec})
	if sum.Requeued != 1 || sum.Skipped != 0 {
		t.Fatalf("restore summary = %+v, want the job requeued", sum)
	}
	j, ok := m.Get("j-000001")
	if !ok {
		t.Fatal("job not restored")
	}
	if v := waitTerminal(t, j); v.State != corpus.StateDone || v.Result == nil {
		t.Fatalf("restored job finished %s (%s), want done", v.State, v.Error)
	}
	if j.Params().Join != core.JoinAuto {
		t.Errorf("restored join strategy = %v, want auto", j.Params().Join)
	}
}

// TestManagerDegradedStoreStillServes: when the journal's disk dies
// mid-flight the manager keeps accepting and finishing jobs; only
// durability is lost, and the condition is visible in the store stats.
func TestManagerDegradedStoreStillServes(t *testing.T) {
	fs := &storetest.FaultFS{}
	w, err := store.Open(store.Options{
		Dir: t.TempDir(), FS: fs, RetainTerminal: 1024, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 1}, Store: w})

	fs.FailFrom = fs.Ops() + 1 // disk dies before the first submit
	j, err := m.Submit(context.Background(), genomeSeq(t, 400, 7), core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatalf("submit with a dead disk: %v", err)
	}
	v := waitTerminal(t, j)
	if v.State != corpus.StateDone {
		t.Fatalf("job finished %s, want done despite the dead disk", v.State)
	}
	if st := w.Stats(); !st.Degraded {
		t.Errorf("store not degraded: %+v", st)
	}
}

// TestServerRestartHTTP: the full HTTP loop across a simulated restart —
// submit and finish a job on one Server, shut it down, boot a second
// Server on the same data dir, and read the job back with its result.
func TestServerRestartHTTP(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dir, Logger: quietLogger()}

	srv1 := New(cfg)
	ts1 := httptest.NewServer(srv1.Handler())
	body := `{"algorithm":"mppm","params":{"gap_min":2,"gap_max":4,"min_support":0.0005,"max_len":6},` +
		`"sequence":{"alphabet":"dna","name":"restart","data":"` + genomeSeq(t, 400, 7).Data() + `"}}`
	resp, err := http.Post(ts1.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted JobView
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	j, ok := srv1.Manager().Get(submitted.ID)
	if !ok {
		t.Fatal("job missing from manager")
	}
	waitTerminal(t, j)
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2 := New(cfg)
	defer srv2.Shutdown(context.Background())
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	resp, err = http.Get(ts2.URL + "/v1/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET recovered job: status %d", resp.StatusCode)
	}
	var recovered JobView
	if err := json.NewDecoder(resp.Body).Decode(&recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.State != corpus.StateDone || recovered.Result == nil {
		t.Fatalf("recovered job = %s (result %v), want done with result", recovered.State, recovered.Result != nil)
	}

	// The restart is visible in the metrics.
	resp, err = http.Get(ts2.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Store.Backend != "wal" || snap.Store.Degraded {
		t.Errorf("store stats = %+v, want healthy wal", snap.Store)
	}
	if snap.Recovery["terminal"] != 1 {
		t.Errorf("recovery counters = %v, want terminal=1", snap.Recovery)
	}
}

// TestServerHealthzDegraded: an unusable data dir must not stop the daemon
// from serving, but /healthz and /v1/metrics must say the store is
// degraded.
func TestServerHealthzDegraded(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, DataDir: blocked, Logger: quietLogger()})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string `json:"status"`
		Store  struct {
			Backend  string `json:"backend"`
			Degraded bool   `json:"degraded"`
			Reason   string `json:"reason"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || !health.Store.Degraded || health.Store.Reason == "" {
		t.Fatalf("healthz = %+v, want degraded with a reason", health)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Store.Degraded {
		t.Errorf("metrics store stats = %+v, want degraded", snap.Store)
	}
}
