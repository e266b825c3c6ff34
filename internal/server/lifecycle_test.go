package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/corpus/corpustest"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// TestOutcomeSameOnBothEndpoints: one outcome rule for every shard. A
// sequence sent to /v1/jobs and as a one-record corpus to /v1/corpus
// ends the same way on both, with the cache off and on: a candidate
// budget keeps the completed levels as done with a note, a memory budget
// ends resource_exhausted, and neither is retried.
func TestOutcomeSameOnBothEndpoints(t *testing.T) {
	data := genomeSeq(t, 300, 7).Data()
	cases := []struct {
		name, algorithm string
		param           string
		value           int
		state, note     string
	}{
		{"candidate budget", "enumerate", "candidate_budget", 200, "done", "candidate budget exhausted; completed levels only"},
		{"memory budget", "mpp", "memory_budget", 1, "resource_exhausted", "memory budget exhausted at level"},
	}
	for _, cacheSize := range []int{-1, 8} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/cache=%d", tc.name, cacheSize), func(t *testing.T) {
				faults := corpustest.NewFaults() // counts attempts, injects nothing
				_, ts := newTestServer(t, Config{Workers: 1, CacheSize: cacheSize, ShardFault: faults})

				job := jobBody(t, tc.algorithm, data)
				job["params"].(map[string]any)[tc.param] = tc.value
				resp := postJSON(t, ts.URL+"/v1/jobs", job)
				sub := decode(t, resp.Body)
				resp.Body.Close()
				jv := pollJob(t, ts.URL, sub["id"].(string))

				cbody := corpusBody(t, ">one\n"+data+"\n")
				cbody["algorithm"] = tc.algorithm
				cbody["params"].(map[string]any)[tc.param] = tc.value
				resp = postJSON(t, ts.URL+"/v1/corpus", cbody)
				sub = decode(t, resp.Body)
				resp.Body.Close()
				cv := pollCorpus(t, ts.URL, sub["id"].(string))

				for endpoint, v := range map[string]map[string]any{"job": jv, "corpus": cv} {
					note, _ := v["note"].(string)
					if v["state"] != tc.state || !strings.HasPrefix(note, tc.note) {
						t.Errorf("%s ended %v (note %q, error %v), want %s with note %q",
							endpoint, v["state"], note, v["error"], tc.state, tc.note)
					}
				}
				// One attempt each; with the cache on the done corpus is
				// answered from the job's result without one.
				attempts := 2
				if cacheSize > 0 && tc.state == "done" {
					attempts = 1
				}
				if n, again := faults.Injected(0, 1), faults.Injected(0, 2); n != attempts || again != 0 {
					t.Errorf("%d first and %d second attempts, want %d and none", n, again, attempts)
				}
				if shards, _ := cv["shards"].([]any); len(shards) == 1 && cv["state"] != "done" {
					if a := shards[0].(map[string]any)["attempts"]; a != float64(1) {
						t.Errorf("corpus shard attempts = %v, want 1", a)
					}
				}
				if tc.state != "done" {
					return
				}
				jres, _ := json.Marshal(jv["result"].(map[string]any)["Patterns"])
				var want []core.Pattern
				if err := json.Unmarshal(jres, &want); err != nil || len(want) == 0 {
					t.Fatalf("job result patterns: %v (%d)", err, len(want))
				}
				merged, _ := json.Marshal(cv["result"].(map[string]any)["patterns"])
				var got []corpus.MergedPattern
				if err := json.Unmarshal(merged, &got); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("corpus merged %d patterns, job found %d", len(got), len(want))
				}
				byChars := map[string]int64{}
				for _, p := range got {
					byChars[p.Chars] = p.Support
				}
				for _, p := range want {
					if s, ok := byChars[p.Chars]; !ok || s != p.Support {
						t.Fatalf("pattern %s: corpus support %d (found %v), job %d", p.Chars, s, ok, p.Support)
					}
				}
			})
		}
	}
}

// panicFirst panics the first n attempts it is consulted on, whatever
// their job.
type panicFirst struct{ left atomic.Int32 }

func (p *panicFirst) Fault(shard, attempt int) corpus.Fault {
	if p.left.Add(-1) >= 0 {
		return corpus.FaultPanic
	}
	return corpus.FaultNone
}

// TestJobPanicRetried: a /v1/jobs job runs behind the engine's panic
// barrier too. A panic on the attempt's goroutine is a transient failure,
// retried under the budget; once the budget is spent the job ends failed,
// and the daemon keeps serving.
func TestJobPanicRetried(t *testing.T) {
	faults := &panicFirst{}
	faults.left.Store(3)
	srv, ts := newTestServer(t, Config{
		Workers: 1, RetryBudget: 3, RetryBackoff: time.Millisecond, ShardFault: faults,
	})
	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", genomeSeq(t, 300, 3).Data()))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id := sub["id"].(string)
	v := pollJob(t, ts.URL, id)
	errMsg, _ := v["error"].(string)
	if v["state"] != "failed" || !strings.Contains(errMsg, "panicked") || !strings.Contains(errMsg, "retry budget (3 attempts)") {
		t.Fatalf("panicking job ended %v (%q), want failed after its 3-attempt budget", v["state"], errMsg)
	}
	j, _ := srv.Manager().Get(id)
	if a := j.Snapshot().Shards[0].Attempts; a != 3 {
		t.Errorf("shard attempts = %d, want 3", a)
	}
	resp = postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", genomeSeq(t, 300, 4).Data()))
	sub = decode(t, resp.Body)
	resp.Body.Close()
	if v := pollJob(t, ts.URL, sub["id"].(string)); v["state"] != "done" {
		t.Errorf("job after the panics = %v, want done", v["state"])
	}
}

// TestRestoreOlderJournal pins journal compatibility: testdata/journal
// holds a journal written by the release before /v1/jobs jobs and
// corpora shared one lifecycle (a coordinator with two workers and one
// unreachable peer, a fault injector failing or hanging chosen shards,
// and gates on chosen jobs; the journal was frozen mid-run, like a
// crash). It holds /v1/jobs jobs in every state (j-000001 and j-000006
// done, a top-K query job j-000002, j-000003 failed on its deadline,
// j-000004 cancelled, j-000005 resource_exhausted, j-000007 running and
// j-000008 queued), a partial corpus c-000001 (shard 1 failed) and a
// running corpus c-000002 with two shard checkpoints and their assign
// records. Restored, every view answers from it, done results re-warm
// the cache, and only the unfinished work is mined again.
func TestRestoreOlderJournal(t *testing.T) {
	dir := t.TempDir()
	raw, err := os.ReadFile(filepath.Join("testdata", "journal", "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	records := map[string]store.JobRecord{}
	w, err := store.Open(store.Options{Dir: dir, RetainTerminal: 1024, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range w.Recovered() {
		records[rec.ID] = rec
	}
	w.Close()
	if len(records) != 10 {
		t.Fatalf("fixture holds %d records, want 10", len(records))
	}

	_, ts := newTestServer(t, Config{Workers: 2, DataDir: dir, RetryBackoff: time.Millisecond})
	get := func(path string) map[string]any {
		t.Helper()
		resp := doRequest(t, http.MethodGet, ts.URL+path)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return decode(t, resp.Body)
	}
	resultOf := func(id string) []core.Pattern {
		t.Helper()
		var res core.Result
		if err := json.Unmarshal(records[id].Result, &res); err != nil {
			t.Fatalf("%s record result: %v", id, err)
		}
		return res.Patterns
	}
	samePatterns := func(id string, v map[string]any) {
		t.Helper()
		b, _ := json.Marshal(v["result"].(map[string]any)["Patterns"])
		var got []core.Pattern
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		want := resultOf(id)
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d patterns, record has %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i].Chars != want[i].Chars || got[i].Support != want[i].Support {
				t.Fatalf("%s pattern %d = %+v, record %+v", id, i, got[i], want[i])
			}
		}
	}

	terminal := []struct{ id, state, errPrefix, note string }{
		{"j-000001", "done", "", ""},
		{"j-000002", "done", "", ""},
		{"j-000003", "failed", "job timeout 1ns exceeded", ""},
		{"j-000004", "cancelled", "context canceled", ""},
		{"j-000005", "resource_exhausted", "core: MPP exhausted its memory budget", "memory budget exhausted at level 4; completed levels only"},
		{"j-000006", "done", "", ""},
	}
	for _, tc := range terminal {
		v := get("/v1/jobs/" + tc.id)
		errMsg, _ := v["error"].(string)
		if v["state"] != tc.state || !strings.HasPrefix(errMsg, tc.errPrefix) || v["note"] != nilIfEmpty(tc.note) {
			t.Errorf("%s = %v (error %q, note %v), want %s (error %q, note %q)",
				tc.id, v["state"], errMsg, v["note"], tc.state, tc.errPrefix, tc.note)
		}
		if v["sequence_len"] != float64(300) || v["created_at"] == nil {
			t.Errorf("%s view = %v", tc.id, v)
		}
		if tc.state == "done" || tc.state == "resource_exhausted" {
			samePatterns(tc.id, v)
			if progress, _ := v["progress"].([]any); len(progress) == 0 {
				t.Errorf("%s restored without its progress levels", tc.id)
			}
		}
	}
	if v := get("/v1/jobs/j-000005"); v["result"].(map[string]any)["Truncated"] != true {
		t.Errorf("resource_exhausted result not truncated: %v", v["result"])
	}
	// The interrupted jobs re-run, one crash-recovery attempt each.
	for _, id := range []string{"j-000007", "j-000008"} {
		if v := pollJob(t, ts.URL, id); v["state"] != "done" || v["attempts"] != float64(1) {
			t.Errorf("%s resumed to %v after %v attempts, want done after 1", id, v["state"], v["attempts"])
		}
	}

	partial := get("/v1/corpus/c-000001")
	failed, _ := partial["failed_shards"].([]any)
	if partial["state"] != "partial" || partial["note"] != "1 of 2 shards failed; merged the 1 completed shards" ||
		len(failed) != 1 || failed[0].(map[string]any)["index"] != float64(1) || failed[0].(map[string]any)["attempts"] != float64(3) {
		t.Errorf("partial corpus = %v", partial)
	}
	if res := partial["result"].(map[string]any); res["mined"] != float64(1) || res["shards"] != float64(2) {
		t.Errorf("partial corpus result mined %v of %v, want 1 of 2", res["mined"], res["shards"])
	}
	if shards, _ := partial["shards"].([]any); len(shards) != 2 || shards[0].(map[string]any)["state"] != "done" {
		t.Errorf("partial corpus shards = %v", partial["shards"])
	}
	resumed := pollCorpus(t, ts.URL, "c-000002")
	if resumed["state"] != "done" || resumed["result"].(map[string]any)["mined"] != float64(3) {
		t.Errorf("running corpus resumed to %v: %v", resumed["state"], resumed["result"])
	}
	snap := metricsSnapshot(t, ts.URL)
	if snap.Corpus.ShardsReplayed != 2 || snap.Corpus.Shards["done"] != 1 {
		t.Errorf("corpus replayed %d shards and mined %v, want 2 replayed and only shard 2 mined",
			snap.Corpus.ShardsReplayed, snap.Corpus.Shards)
	}
	if snap.Recovery["terminal"] != 7 || snap.Recovery["requeued"] != 3 {
		t.Errorf("recovery counters = %v, want 7 terminal and 3 requeued", snap.Recovery)
	}
	if jobs := get("/v1/jobs")["jobs"].([]any); len(jobs) != 8 {
		t.Errorf("GET /v1/jobs lists %d jobs, want 8", len(jobs))
	}
	if list := get("/v1/corpus")["corpus"].([]any); len(list) != 2 {
		t.Errorf("GET /v1/corpus lists %d corpora, want 2", len(list))
	}

	// The restored done results re-warmed the cache, and new ids follow
	// the restored ones.
	rec := records["j-000001"]
	body := map[string]any{
		"algorithm": rec.Algorithm,
		"params":    map[string]any{"gap_min": 2, "gap_max": 4, "min_support": 0.004, "max_len": 4},
		"sequence":  map[string]any{"alphabet": "dna", "name": rec.SeqName, "data": rec.SeqData},
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", body)
	hit := decode(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hit["cache_hit"] != true || hit["id"] != "j-000009" {
		t.Errorf("resubmit of j-000001 = status %d, cache_hit %v, id %v; want 200, a hit, j-000009",
			resp.StatusCode, hit["cache_hit"], hit["id"])
	}
}

// nilIfEmpty maps an empty note to the nil a JSON view omits it as.
func nilIfEmpty(s string) any {
	if s == "" {
		return nil
	}
	return s
}

// TestMineForPeerBudgetOutcome: a forwarded unit runs through the same
// outcome rule, so a candidate-budget stop travels back to the
// coordinator as the truncated result it counts as done, and a
// memory-budget stop as its completed levels beside the typed error —
// neither as a bare error that would fail the shard there.
func TestMineForPeerBudgetOutcome(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 1}})
	p := miningParams()
	p.CandidateBudget = 200
	res, _, err := m.MineForPeer(context.Background(), genomeSeq(t, 300, 7), core.AlgoEnumerate, p, RemoteTrace{Job: "j-000042"})
	if err != nil || res == nil || !res.Truncated || len(res.Patterns) == 0 {
		t.Fatalf("MineForPeer = %v patterns (truncated %v), err %v; want the truncated result", res != nil, res != nil && res.Truncated, err)
	}
	p.MemoryBudget = 1
	res, _, err = m.MineForPeer(context.Background(), genomeSeq(t, 300, 8), core.AlgoMPP, p, RemoteTrace{})
	var exhausted *core.ResourceExhaustedError
	if !errors.As(err, &exhausted) || res == nil || !res.Truncated {
		t.Fatalf("memory-budget stop = result %v, err %v; want the truncated result and a ResourceExhaustedError", res != nil, err)
	}
}

// TestForwardedOutcomeSameAsLocal: a shard the ring forwards to a peer
// ends as it would locally. A memory-budget stop on the peer ends the job
// resource_exhausted after one attempt, with the local run's note and
// error; a panic the peer's barrier catches is a transient failure the
// coordinator retries, as it would retry it locally.
func TestForwardedOutcomeSameAsLocal(t *testing.T) {
	corpustest.CheckLeaks(t)
	faults := &panicFirst{}
	_, bTS := newTestServer(t, Config{Workers: 1, ClusterRole: "peer", ShardFault: faults})
	aSrv, aTS := newTestServer(t, Config{
		Workers:      2,
		ClusterRole:  "coordinator",
		ClusterPeers: []string{bTS.URL},
		ClusterSelf:  "http://coordinator.test",
		RetryBudget:  3,
		RetryBackoff: time.Millisecond,
	})
	_, refTS := newTestServer(t, Config{Workers: 1})
	waitReadyz(t, aTS.URL)
	waitPeersAlive(t, aSrv.clu, bTS.URL)
	owned := pickOwnedSequences(t, aSrv.clu, 300, 2, bTS.URL)[bTS.URL]

	run := func(base string, data string, budget int) (map[string]any, int) {
		t.Helper()
		body := jobBody(t, "mpp", data)
		if budget > 0 {
			body["params"].(map[string]any)["memory_budget"] = budget
		}
		resp := postJSON(t, base+"/v1/jobs", body)
		sub := decode(t, resp.Body)
		resp.Body.Close()
		v := pollJob(t, base, sub["id"].(string))
		if base != aTS.URL {
			return v, 0
		}
		j, _ := aSrv.Manager().Get(sub["id"].(string))
		return v, j.Snapshot().Shards[0].Attempts
	}

	local, _ := run(refTS.URL, owned[0].Data(), 1)
	forwarded, attempts := run(aTS.URL, owned[0].Data(), 1)
	if forwarded["state"] != "resource_exhausted" || attempts != 1 ||
		forwarded["note"] != local["note"] || forwarded["error"] != local["error"] {
		t.Errorf("forwarded memory-budget stop = %v after %d attempts (note %v, error %v); local run = %v (note %v, error %v)",
			forwarded["state"], attempts, forwarded["note"], forwarded["error"], local["state"], local["note"], local["error"])
	}
	if progress, _ := forwarded["progress"].([]any); len(progress) == 0 {
		t.Error("forwarded memory-budget stop lost its completed levels")
	}

	faults.left.Store(1)
	forwarded, attempts = run(aTS.URL, owned[1].Data(), 0)
	if forwarded["state"] != "done" || attempts != 2 {
		t.Errorf("forwarded shard whose peer panicked once = %v after %d attempts (error %v), want done after 2",
			forwarded["state"], attempts, forwarded["error"])
	}
	if st := aSrv.clu.Stats(); st.ForwardedJobs < 3 || st.Peers[bTS.URL] != "alive" {
		t.Errorf("forwarded %d jobs, peer %s; want every attempt forwarded and the peer alive", st.ForwardedJobs, st.Peers[bTS.URL])
	}
}

// firstRecordStore notes which record of each job reached the journal
// first. Its submits are slowed like an fsync, so a worker that could
// start a job before its submit record is written would overtake it.
type firstRecordStore struct {
	store.Store
	mu    sync.Mutex
	first map[string]string
}

func (s *firstRecordStore) note(id, typ string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.first[id]; !ok {
		s.first[id] = typ
	}
}

func (s *firstRecordStore) AppendSubmit(rec store.JobRecord) {
	time.Sleep(2 * time.Millisecond)
	s.note(rec.ID, "submit")
	s.Store.AppendSubmit(rec)
}

func (s *firstRecordStore) AppendState(id, state string, attempts int, at time.Time) {
	s.note(id, "state")
	s.Store.AppendState(id, state, attempts, at)
}

func (s *firstRecordStore) AppendOutcome(id string, out store.Outcome) {
	s.note(id, "outcome")
	s.Store.AppendOutcome(id, out)
}

func (s *firstRecordStore) AppendShard(id string, sh store.ShardRecord) {
	s.note(id, "shard")
	s.Store.AppendShard(id, sh)
}

// TestSubmitJournaledFirst: a job's submit record is written before any
// other record of it — its move to running, a shard checkpoint, its
// outcome — however fast a worker picks it up, so a replay never meets
// an event of a job it does not know yet.
func TestSubmitJournaledFirst(t *testing.T) {
	st := &firstRecordStore{Store: store.NewMemory(), first: map[string]string{}}
	m := newTestManager(t, ManagerConfig{Config: Config{Workers: 2}, Store: st})
	var jobs []*corpus.Job
	for i := 0; i < 6; i++ {
		j, err := m.Submit(context.Background(), genomeSeq(t, 200, uint64(20+i)), core.AlgoMPPm, miningParams(), 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	c, err := m.SubmitCorpus(context.Background(), "c", []*seq.Sequence{genomeSeq(t, 200, 30), genomeSeq(t, 200, 31)},
		core.AlgoMPPm, miningParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range append(jobs, c) {
		waitTerminal(t, j)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, j := range append(jobs, c) {
		if got := st.first[j.ID()]; got != "submit" {
			t.Errorf("%s: first journaled record is %q, want its submit", j.ID(), got)
		}
	}
}
