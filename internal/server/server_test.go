package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/mine"
	"permine/internal/seq"
)

// newTestServer builds a Server on a quiet logger and an httptest host.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// decode reads a JSON body into a generic map.
func decode(t *testing.T, r io.Reader) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return m
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func doRequest(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// jobBody is a canonical submit payload over a generated sequence.
func jobBody(t *testing.T, algorithm string, data string) map[string]any {
	t.Helper()
	return map[string]any{
		"algorithm": algorithm,
		"params": map[string]any{
			"gap_min":     2,
			"gap_max":     4,
			"min_support": 0.0005,
			"max_len":     6,
		},
		"sequence": map[string]any{"alphabet": "dna", "name": "http-test", "data": data},
	}
}

// pollJob polls GET /v1/jobs/{id} until the state is terminal.
func pollJob(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp := doRequest(t, http.MethodGet, base+"/v1/jobs/"+id)
		body := decode(t, resp.Body)
		resp.Body.Close()
		switch body["state"] {
		case "done", "failed", "cancelled", "resource_exhausted":
			return body
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestJobLifecycleHTTP drives the full acceptance path over HTTP: submit,
// observe running/progress, fetch a result identical to the direct
// library call, hit the cache on resubmit, and see it all in /v1/metrics.
func TestJobLifecycleHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	s := genomeSeq(t, 400, 7)

	// Submit.
	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", s.Data()))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id, _ := sub["id"].(string)
	if id == "" || sub["state"] != "queued" {
		t.Fatalf("submit response %v, want id and queued state", sub)
	}

	// Poll to done; progress must carry per-level metrics.
	final := pollJob(t, ts.URL, id)
	if final["state"] != "done" {
		t.Fatalf("state = %v (error %v), want done", final["state"], final["error"])
	}
	progress, _ := final["progress"].([]any)
	if len(progress) == 0 {
		t.Fatal("missing per-level progress")
	}
	level0, _ := progress[0].(map[string]any)
	if level0["Level"] == nil || level0["Candidates"] == nil {
		t.Fatalf("progress entry lacks level metrics: %v", level0)
	}

	// Result identical to the direct library call.
	direct, err := mine.MPPm(s, miningParams())
	if err != nil {
		t.Fatal(err)
	}
	result, _ := final["result"].(map[string]any)
	if result == nil {
		t.Fatal("missing result")
	}
	patterns, _ := result["Patterns"].([]any)
	if len(patterns) != len(direct.Patterns) {
		t.Fatalf("HTTP result has %d patterns, direct call %d", len(patterns), len(direct.Patterns))
	}
	for i, want := range direct.Patterns {
		got, _ := patterns[i].(map[string]any)
		if got["Chars"] != want.Chars || int64(got["Support"].(float64)) != want.Support {
			t.Fatalf("pattern %d: HTTP %v, direct %v", i, got, want)
		}
	}

	// Identical resubmit: a cache hit, 200 with the result inline.
	resp2 := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", s.Data()))
	hit := decode(t, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || hit["state"] != "done" || hit["cache_hit"] != true {
		t.Fatalf("resubmit: status %d state %v cache_hit %v, want 200/done/true",
			resp2.StatusCode, hit["state"], hit["cache_hit"])
	}
	hitJSON, _ := json.Marshal(hit["result"])
	wantJSON, _ := json.Marshal(final["result"])
	if !bytes.Equal(hitJSON, wantJSON) {
		t.Error("cached result JSON differs from the first run's")
	}

	// Metrics reflect the hit and the finished job.
	resp3 := doRequest(t, http.MethodGet, ts.URL+"/v1/metrics")
	metrics := decode(t, resp3.Body)
	resp3.Body.Close()
	cache, _ := metrics["cache"].(map[string]any)
	if cache["hits"].(float64) < 1 {
		t.Errorf("metrics cache.hits = %v, want >= 1", cache["hits"])
	}
	finished, _ := metrics["jobs_finished_total"].(map[string]any)
	if finished["done"].(float64) < 2 {
		t.Errorf("metrics jobs_finished_total.done = %v, want >= 2", finished["done"])
	}
	latency, _ := metrics["mining_latency_seconds"].(map[string]any)
	if latency["MPPm"] == nil {
		t.Errorf("metrics lack an MPPm latency histogram: %v", latency)
	}
}

// TestCancelHTTP gates a running job on its first level, cancels it via
// DELETE, and verifies the API reports cancelled immediately and the
// worker stops at the next level boundary.
func TestCancelHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	levelHit := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.Manager().OnLevel = func(j *corpus.Job, lm core.LevelMetrics) {
		select {
		case levelHit <- struct{}{}:
		default:
		}
		<-release
	}

	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mpp", genomeSeq(t, 400, 7).Data()))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id := sub["id"].(string)

	select {
	case <-levelHit:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached its first level")
	}

	// While gated, the job reports running with progress pending.
	respRunning := doRequest(t, http.MethodGet, ts.URL+"/v1/jobs/"+id)
	running := decode(t, respRunning.Body)
	respRunning.Body.Close()
	if running["state"] != "running" {
		t.Fatalf("state mid-run = %v, want running", running["state"])
	}

	respCancel := doRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id)
	cancelled := decode(t, respCancel.Body)
	respCancel.Body.Close()
	if respCancel.StatusCode != http.StatusOK || cancelled["state"] != "cancelled" {
		t.Fatalf("cancel: status %d state %v, want 200/cancelled", respCancel.StatusCode, cancelled["state"])
	}
	close(release)

	final := pollJob(t, ts.URL, id)
	if final["state"] != "cancelled" || final["result"] != nil {
		t.Fatalf("final state %v result %v, want cancelled/no result", final["state"], final["result"])
	}
	if progress, _ := final["progress"].([]any); len(progress) > 2 {
		t.Errorf("%d levels recorded after cancel, want the worker to stop within one level", len(progress))
	}

	// Cancelling a finished job is a conflict.
	respAgain := doRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id)
	respAgain.Body.Close()
	if respAgain.StatusCode != http.StatusConflict {
		t.Errorf("second cancel status = %d, want 409", respAgain.StatusCode)
	}
}

// TestClientTimeoutWithoutDefaultDeadline: a negative JobTimeout disables
// only the default deadline, so a client's timeout_ms still bounds its
// job and its corpus job. Every mining run is stretched past those
// timeouts: the job and the corpus, no shard of which finishes in time,
// must fail on their deadlines, not run to completion.
func TestClientTimeoutWithoutDefaultDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobTimeout: -1, ShardDelay: 2 * time.Second})

	body := jobBody(t, "mppm", genomeSeq(t, 400, 7).Data())
	body["timeout_ms"] = 50
	resp := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status = %d, want 202", resp.StatusCode)
	}
	sub := decode(t, resp.Body)
	resp.Body.Close()
	if final := pollJob(t, ts.URL, sub["id"].(string)); final["state"] != "failed" {
		t.Errorf("job with timeout_ms 50 ended %v, want failed on its deadline", final["state"])
	}

	cbody := corpusBody(t, corpusFASTA(t, 2, 400))
	cbody["timeout_ms"] = 100
	resp = postJSON(t, ts.URL+"/v1/corpus", cbody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus submit status = %d, want 202", resp.StatusCode)
	}
	sub = decode(t, resp.Body)
	resp.Body.Close()
	if final := pollCorpus(t, ts.URL, sub["id"].(string)); final["state"] != "failed" {
		t.Errorf("corpus with timeout_ms 100 ended %v, want failed on its deadline", final["state"])
	}
}

// TestSubmitValidationHTTP: malformed submissions return 400 with a JSON
// error body.
func TestSubmitValidationHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"syntactically broken", `{"algorithm": "mppm",`},
		{"unknown algorithm", `{"algorithm":"quantum","params":{"gap_min":1,"gap_max":2,"min_support":0.01},"sequence":{"data":"ACGT"}}`},
		{"inverted gap", `{"algorithm":"mpp","params":{"gap_min":5,"gap_max":2,"min_support":0.01},"sequence":{"data":"ACGT"}}`},
		{"support out of range", `{"algorithm":"mpp","params":{"gap_min":1,"gap_max":2,"min_support":42},"sequence":{"data":"ACGT"}}`},
		{"too many workers", `{"algorithm":"mppm","params":{"gap_min":1,"gap_max":2,"min_support":0.01,"workers":1048576},"sequence":{"data":"ACGT"}}`},
		{"missing sequence", `{"algorithm":"mpp","params":{"gap_min":1,"gap_max":2,"min_support":0.01}}`},
		{"bad symbols", `{"algorithm":"mpp","params":{"gap_min":1,"gap_max":2,"min_support":0.01},"sequence":{"data":"ACGZ"}}`},
		{"both sequence and fasta", `{"algorithm":"mpp","params":{"gap_min":1,"gap_max":2,"min_support":0.01},"sequence":{"data":"ACGT"},"fasta":">x\nACGT"}`},
		{"unknown field", `{"algorithm":"mpp","parms":{}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			body := decode(t, resp.Body)
			if msg, _ := body["error"].(string); msg == "" {
				t.Errorf("missing error message in %v", body)
			}
		})
	}
}

// TestFASTAUploadHTTP submits a raw FASTA body with parameters in the
// query string.
func TestFASTAUploadHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	s := genomeSeq(t, 300, 9)
	fasta := fmt.Sprintf(">upload test\n%s\n", s.Data())
	url := ts.URL + "/v1/jobs?algorithm=mpp&gap_min=2&gap_max=4&min_support=0.0005&max_len=6"
	resp, err := http.Post(url, "text/x-fasta", strings.NewReader(fasta))
	if err != nil {
		t.Fatal(err)
	}
	sub := decode(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d (%v), want 202", resp.StatusCode, sub)
	}
	if sub["sequence_name"] != "upload test" {
		t.Errorf("sequence_name = %v, want the FASTA header", sub["sequence_name"])
	}
	final := pollJob(t, ts.URL, sub["id"].(string))
	if final["state"] != "done" {
		t.Fatalf("state = %v (error %v), want done", final["state"], final["error"])
	}
}

// TestQueryHTTP exercises the synchronous pattern endpoint against a
// sequence with a known support.
func TestQueryHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A at 0, 2, 4, 6: pattern "AA" with gap [1,1] matches (0,2), (2,4), (4,6).
	body := map[string]any{
		"pattern": "AA",
		"gap_min": 1, "gap_max": 1,
		"sequence": map[string]any{"data": "ACACACAC"},
	}
	resp := postJSON(t, ts.URL+"/v1/query", body)
	out := decode(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%v), want 200", resp.StatusCode, out)
	}
	if out["support"].(float64) != 3 {
		t.Errorf("support = %v, want 3", out["support"])
	}
	occ, _ := out["occurrences"].([]any)
	if len(occ) != 3 {
		t.Errorf("%d occurrences, want 3", len(occ))
	}

	// Over-long sequences are pushed to the async path.
	_, tsSmall := newTestServer(t, Config{Workers: 1, MaxSyncSeqLen: 4})
	respBig := postJSON(t, tsSmall.URL+"/v1/query", body)
	respBig.Body.Close()
	if respBig.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413 for over-long synchronous input", respBig.StatusCode)
	}

	// Pattern parse errors are 400s.
	respBad := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"pattern": "Ag(", "gap_min": 1, "gap_max": 2,
		"sequence": map[string]any{"data": "ACGT"},
	})
	respBad.Body.Close()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400 for a broken pattern", respBad.StatusCode)
	}
}

// TestHealthzHTTP: liveness carries the version string.
func TestHealthzHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Version: "v-test-123"})
	resp := doRequest(t, http.MethodGet, ts.URL+"/healthz")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body := decode(t, resp.Body)
	if body["status"] != "ok" || body["version"] != "v-test-123" {
		t.Errorf("healthz = %v, want ok + version", body)
	}
}

// TestNotFoundHTTP: unknown job ids are 404s on GET and DELETE.
func TestNotFoundHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		resp := doRequest(t, method, ts.URL+"/v1/jobs/j-999999")
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", method, resp.StatusCode)
		}
	}
}

// TestListJobsHTTP: the listing shows submitted jobs newest first.
func TestListJobsHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	s := genomeSeq(t, 200, 2)
	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mpp", s.Data()))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	pollJob(t, ts.URL, sub["id"].(string))

	listResp := doRequest(t, http.MethodGet, ts.URL+"/v1/jobs")
	list := decode(t, listResp.Body)
	listResp.Body.Close()
	jobs, _ := list["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("%d jobs listed, want 1", len(jobs))
	}
	first, _ := jobs[0].(map[string]any)
	if first["id"] != sub["id"] {
		t.Errorf("listed id = %v, want %v", first["id"], sub["id"])
	}
}

// Ensure sequences built from Data() round-trip exactly (the HTTP tests
// rely on it when comparing against direct library calls).
func TestInlineSequenceRoundTrip(t *testing.T) {
	s := genomeSeq(t, 100, 4)
	rebuilt, err := seq.NewDNA("copy", s.Data())
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Data() != s.Data() {
		t.Fatal("Data() round-trip mismatch")
	}
}

// TestDoneJobIsCachedHTTP: a client that polls GET /v1/jobs/{id} until
// done and resubmits at once gets the cached result every time. With a
// journal, the outcome's fsync used to sit between the job turning done
// and its result entering the cache, so such a resubmit could re-mine.
func TestDoneJobIsCachedHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, DataDir: t.TempDir()})
	for i := 0; i < 30; i++ {
		body := jobBody(t, "mppm", genomeSeq(t, 200, uint64(1000+i)).Data())
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		sub := decode(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d, want 202", i, resp.StatusCode)
		}
		if final := pollJob(t, ts.URL, sub["id"].(string)); final["state"] != "done" {
			t.Fatalf("job %d finished %v (%v)", i, final["state"], final["error"])
		}
		resp = postJSON(t, ts.URL+"/v1/jobs", body)
		hit := decode(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || hit["cache_hit"] != true {
			t.Errorf("job %d: resubmit after done got status %d, cache_hit %v; want 200 and a hit",
				i, resp.StatusCode, hit["cache_hit"])
		}
	}
}
