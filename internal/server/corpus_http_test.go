package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"permine/internal/corpus"
	"permine/internal/corpus/corpustest"
)

// corpusFASTA renders n generated sequences as one multi-FASTA payload.
func corpusFASTA(t *testing.T, n, seqLen int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, ">shard%d\n%s\n", i, genomeSeq(t, seqLen, uint64(13+i)).Data())
	}
	return sb.String()
}

// corpusBody is the canonical POST /v1/corpus JSON payload.
func corpusBody(t *testing.T, fasta string) map[string]any {
	t.Helper()
	return map[string]any{
		"algorithm": "mppm",
		"params": map[string]any{
			"gap_min":     2,
			"gap_max":     4,
			"min_support": 0.0005,
			"max_len":     6,
		},
		"alphabet": "dna",
		"fasta":    fasta,
	}
}

// pollCorpus polls GET /v1/corpus/{id} until the state is terminal.
func pollCorpus(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp := doRequest(t, http.MethodGet, base+"/v1/corpus/"+id)
		body := decode(t, resp.Body)
		resp.Body.Close()
		switch body["state"] {
		case "done", "partial", "failed", "cancelled", "resource_exhausted":
			return body
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("corpus %s never finished", id)
	return nil
}

// metricsSnapshot fetches and decodes GET /v1/metrics.
func metricsSnapshot(t *testing.T, base string) MetricsSnapshot {
	t.Helper()
	resp := doRequest(t, http.MethodGet, base+"/v1/metrics")
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCorpusLifecycleHTTP drives the happy path over HTTP: submit a
// 3-sequence corpus, watch it shard, fetch the merged result with
// per-shard provenance, and exercise list / not-found / cancel-conflict.
func TestCorpusLifecycleHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp := postJSON(t, ts.URL+"/v1/corpus", corpusBody(t, corpusFASTA(t, 3, 300)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("submit returned no id: %v", sub)
	}
	if n, _ := sub["shard_count"].(float64); n != 3 {
		t.Errorf("shard_count = %v, want 3", sub["shard_count"])
	}

	final := pollCorpus(t, ts.URL, id)
	if final["state"] != "done" {
		t.Fatalf("corpus state = %v (%v), want done", final["state"], final["error"])
	}
	result, ok := final["result"].(map[string]any)
	if !ok {
		t.Fatalf("done corpus has no merged result: %v", final)
	}
	if result["shards"].(float64) != 3 || result["mined"].(float64) != 3 {
		t.Errorf("merged result shards/mined = %v/%v, want 3/3", result["shards"], result["mined"])
	}
	patterns, _ := result["patterns"].([]any)
	if len(patterns) == 0 {
		t.Fatal("merged result has no patterns")
	}
	first := patterns[0].(map[string]any)
	if per, _ := first["per_shard"].([]any); len(per) == 0 {
		t.Errorf("merged pattern lacks per-shard provenance: %v", first)
	}

	// List view strips shards and results.
	resp = doRequest(t, http.MethodGet, ts.URL+"/v1/corpus")
	list := decode(t, resp.Body)
	resp.Body.Close()
	items, _ := list["corpus"].([]any)
	if len(items) != 1 {
		t.Fatalf("corpus list has %d entries, want 1", len(items))
	}
	entry := items[0].(map[string]any)
	if entry["id"] != id {
		t.Errorf("list entry id = %v, want %s", entry["id"], id)
	}
	if _, has := entry["shards"]; has {
		t.Error("list entry leaks per-shard detail")
	}
	if _, has := entry["result"]; has {
		t.Error("list entry leaks the merged result")
	}

	// Unknown id and cancelling a finished corpus.
	resp = doRequest(t, http.MethodGet, ts.URL+"/v1/corpus/c-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown corpus status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	resp = doRequest(t, http.MethodDelete, ts.URL+"/v1/corpus/"+id)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished corpus status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCorpusRawFASTAUpload submits a corpus as a raw text/x-fasta body
// with parameters in the query string.
func TestCorpusRawFASTAUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	url := ts.URL + "/v1/corpus?algorithm=mppm&gap_min=2&gap_max=4&min_support=0.0005&max_len=6&alphabet=dna&name=raw-upload"
	resp, err := http.Post(url, "text/x-fasta", strings.NewReader(corpusFASTA(t, 2, 250)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("raw FASTA submit status = %d, want 202", resp.StatusCode)
	}
	sub := decode(t, resp.Body)
	resp.Body.Close()
	if sub["name"] != "raw-upload" {
		t.Errorf("corpus name = %v, want raw-upload", sub["name"])
	}
	final := pollCorpus(t, ts.URL, sub["id"].(string))
	if final["state"] != "done" {
		t.Fatalf("corpus state = %v, want done", final["state"])
	}
}

// TestCorpusShardPanicPartial is acceptance criterion (a) at the HTTP
// layer: a shard that panics on every attempt degrades the job to
// "partial" with an explicit failed-shard manifest — and the daemon
// keeps serving.
func TestCorpusShardPanicPartial(t *testing.T) {
	faults := corpustest.NewFaults()
	faults.SetAttempts(1, 3, corpus.FaultPanic)
	_, ts := newTestServer(t, Config{
		Workers: 2, RetryBudget: 3, RetryBackoff: time.Millisecond,
		ShardFault: faults,
	})

	resp := postJSON(t, ts.URL+"/v1/corpus", corpusBody(t, corpusFASTA(t, 3, 300)))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	final := pollCorpus(t, ts.URL, sub["id"].(string))
	if final["state"] != "partial" {
		t.Fatalf("corpus state = %v, want partial", final["state"])
	}
	manifest, _ := final["failed_shards"].([]any)
	if len(manifest) != 1 {
		t.Fatalf("failed-shard manifest = %v, want exactly shard 1", final["failed_shards"])
	}
	failed := manifest[0].(map[string]any)
	if failed["index"].(float64) != 1 || failed["attempts"].(float64) != 3 {
		t.Errorf("manifest entry = %v, want index 1 after 3 attempts", failed)
	}
	result, _ := final["result"].(map[string]any)
	if result == nil || result["mined"].(float64) != 2 {
		t.Errorf("partial result mined = %v, want the 2 healthy shards", final["result"])
	}

	snap := metricsSnapshot(t, ts.URL)
	if snap.Corpus.Shards["failed"] != 1 || snap.Corpus.Shards["done"] != 2 {
		t.Errorf("shard outcomes = %v, want done:2 failed:1", snap.Corpus.Shards)
	}
	if snap.Corpus.Finished["partial"] != 1 {
		t.Errorf("finished corpus jobs = %v, want partial:1", snap.Corpus.Finished)
	}

	// The panic stayed inside the shard: the daemon still mines.
	resp = postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", genomeSeq(t, 300, 3).Data()))
	job := decode(t, resp.Body)
	resp.Body.Close()
	if v := pollJob(t, ts.URL, job["id"].(string)); v["state"] != "done" {
		t.Errorf("job after shard panic = %v, want done", v["state"])
	}
}

// TestCorpusTransientRetryObservable is acceptance criterion (b) at the
// HTTP layer: a shard failing transiently succeeds within its retry
// budget, and the retries (with their jittered backoff) show up in
// metrics.
func TestCorpusTransientRetryObservable(t *testing.T) {
	faults := corpustest.NewFaults()
	faults.SetAttempts(0, 2, corpus.FaultError) // attempts 1-2 fail, 3 succeeds
	_, ts := newTestServer(t, Config{
		Workers: 2, RetryBudget: 3, RetryBackoff: time.Millisecond,
		ShardFault: faults,
	})

	resp := postJSON(t, ts.URL+"/v1/corpus", corpusBody(t, corpusFASTA(t, 2, 300)))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	final := pollCorpus(t, ts.URL, sub["id"].(string))
	if final["state"] != "done" {
		t.Fatalf("corpus state = %v, want done within the retry budget", final["state"])
	}

	snap := metricsSnapshot(t, ts.URL)
	if snap.Corpus.Retries != 2 {
		t.Errorf("shard_retries_total = %d, want 2", snap.Corpus.Retries)
	}
	if snap.Corpus.BackoffSeconds <= 0 {
		t.Errorf("shard_backoff_seconds_total = %v, want > 0", snap.Corpus.BackoffSeconds)
	}
	if snap.Corpus.Shards["done"] != 2 || snap.Corpus.Shards["failed"] != 0 {
		t.Errorf("shard outcomes = %v, want done:2", snap.Corpus.Shards)
	}
}

// TestCorpusSSEStream subscribes to a corpus job's event stream and
// asserts every shard is reported exactly once (replayed or live)
// before the terminal end event.
func TestCorpusSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/v1/corpus", corpusBody(t, corpusFASTA(t, 3, 300)))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id := sub["id"].(string)

	stream, err := http.Get(ts.URL + "/v1/corpus/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", stream.StatusCode)
	}

	shards := map[int]bool{}
	sawEnd := false
	timeout := time.After(60 * time.Second)
	events := readSSE(t, stream.Body)
	for !sawEnd {
		select {
		case e, open := <-events:
			if !open {
				t.Fatal("SSE stream closed before the end event")
			}
			switch e.ev.Type {
			case "shard":
				idx := e.ev.Seq - 1
				if shards[idx] {
					t.Errorf("shard %d reported twice", idx)
				}
				shards[idx] = true
			case "end":
				sawEnd = true
			}
		case <-timeout:
			t.Fatal("timed out waiting for corpus SSE events")
		}
	}
	if len(shards) != 3 {
		t.Errorf("saw shard events for %v, want all 3 shards", shards)
	}
}

// TestCorpusSSEShutdownDrain is the graceful-drain satellite: an SSE
// client attached to a still-running corpus receives an explicit
// terminal "shutdown" event (not a dropped connection) when the daemon
// drains.
func TestCorpusSSEShutdownDrain(t *testing.T) {
	faults := corpustest.NewFaults()
	faults.SetAttempts(0, 9, corpus.FaultHang)
	srv, ts := newTestServer(t, Config{
		Workers: 1, ShardTimeout: time.Hour, ShardFault: faults,
	})

	resp := postJSON(t, ts.URL+"/v1/corpus", corpusBody(t, corpusFASTA(t, 1, 300)))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id := sub["id"].(string)

	stream, err := http.Get(ts.URL + "/v1/corpus/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	events := readSSE(t, stream.Body)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	sawShutdown := false
	timeout := time.After(15 * time.Second)
	for !sawShutdown {
		select {
		case e, open := <-events:
			if !open {
				t.Fatal("SSE stream closed without a shutdown event")
			}
			if e.ev.Type == "shutdown" {
				sawShutdown = true
			}
		case <-timeout:
			t.Fatal("no shutdown event before timeout")
		}
	}
	if _, open := <-events; open {
		t.Error("stream stayed open after the shutdown event")
	}
	if err := <-done; err != nil {
		t.Errorf("Shutdown returned %v", err)
	}
}

// TestCorpusResumeFromCheckpoints restores an interrupted corpus job from
// its WAL shard checkpoints: a first server completes two of three shards
// (the third hangs) and is shut down mid-job; a second server on the same
// data dir must finish the corpus re-mining only the incomplete shard.
func TestCorpusResumeFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	fasta := corpusFASTA(t, 3, 300)

	hang := corpustest.NewFaults()
	hang.SetAttempts(2, 9, corpus.FaultHang)
	srvA := New(Config{
		Workers: 2, DataDir: dir, ShardTimeout: time.Hour,
		ShardFault: hang, Logger: quietLogger(),
	})
	tsA := httptest.NewServer(srvA.Handler())

	resp := postJSON(t, tsA.URL+"/v1/corpus", corpusBody(t, fasta))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id := sub["id"].(string)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("healthy shards never checkpointed")
		}
		r := doRequest(t, http.MethodGet, tsA.URL+"/v1/corpus/"+id)
		v := decode(t, r.Body)
		r.Body.Close()
		if v["shards_done"].(float64) == 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Drain with the corpus still running: like a crash, the journal holds
	// the submit record plus two shard_done checkpoints and no outcome.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	tsA.Close()

	srvB, tsB := newTestServer(t, Config{
		Workers: 2, DataDir: dir, RetryBackoff: time.Millisecond,
	})
	_ = srvB
	final := pollCorpus(t, tsB.URL, id)
	if final["state"] != "done" {
		t.Fatalf("resumed corpus state = %v (%v), want done", final["state"], final["error"])
	}
	result, _ := final["result"].(map[string]any)
	if result == nil || result["mined"].(float64) != 3 {
		t.Fatalf("resumed corpus merged %v shards, want 3", final["result"])
	}

	snap := metricsSnapshot(t, tsB.URL)
	if snap.Corpus.ShardsReplayed != 2 {
		t.Errorf("shards_replayed_total = %d, want 2 journaled checkpoints", snap.Corpus.ShardsReplayed)
	}
	if snap.Corpus.Shards["done"] != 1 {
		t.Errorf("re-mined %v shards after restart, want only the interrupted one", snap.Corpus.Shards["done"])
	}
}

// TestBodyLimit413 asserts oversized bodies are refused with 413 on both
// submit endpoints.
func TestBodyLimit413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 2048})
	big := strings.Repeat("ACGT", 2048)

	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /v1/jobs oversized status = %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/corpus", corpusBody(t, ">big\n"+big+"\n"))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /v1/corpus oversized status = %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()
}
