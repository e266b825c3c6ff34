package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"permine/internal/obs"
)

// submitTraced posts a job with an explicit X-Request-Id and returns the
// job id and the response's echoed request id.
func submitTraced(t *testing.T, base, requestID string, body map[string]any) (jobID, echoed string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", requestID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decode(t, resp.Body)
	return sub["id"].(string), resp.Header.Get("X-Request-Id")
}

// spansByName polls the ring until every wanted span name appears in the
// trace (exports race the job's terminal state by a few microseconds).
func spansByName(t *testing.T, ring *obs.Ring, traceID string, want []string) map[string][]obs.SpanData {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans := ring.Trace(traceID)
		byName := make(map[string][]obs.SpanData)
		for _, sd := range spans {
			byName[sd.Name] = append(byName[sd.Name], sd)
		}
		missing := ""
		for _, name := range want {
			if len(byName[name]) == 0 {
				missing = name
				break
			}
		}
		if missing == "" {
			return byName
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never grew span %q; has %d spans", traceID, missing, len(spans))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func attrValue(sd obs.SpanData, key string) (any, bool) {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// TestTraceEndToEnd submits a job under an explicit X-Request-Id and
// asserts the whole span chain — http.request → job.submit → job.queue /
// job.run → job.persist, plus internal/mine's e_m span and per-level
// spans with pruning counters — lands in one trace, queryable over the
// API.
func TestTraceEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	const reqID = "trace-e2e-0001"
	jobID, echoed := submitTraced(t, ts.URL, reqID, jobBody(t, "mppm", genomeSeq(t, 400, 7).Data()))
	if echoed != reqID {
		t.Fatalf("X-Request-Id echoed %q, want %q", echoed, reqID)
	}
	final := pollJob(t, ts.URL, jobID)
	if final["state"] != "done" {
		t.Fatalf("job state = %v", final["state"])
	}
	if got := final["trace_id"]; got != reqID {
		t.Fatalf("job trace_id = %v, want %q", got, reqID)
	}

	byName := spansByName(t, srv.Traces(), reqID,
		[]string{"http.request", "job.submit", "job.queue", "job.run", "job.persist", "mine.em", "mine.level"})

	// Parenting: submit under the request, queue and run under submit,
	// persist and the mining levels under run.
	submit := byName["job.submit"][0]
	if submit.ParentID != byName["http.request"][0].SpanID {
		t.Errorf("job.submit parent = %q, want the http.request span", submit.ParentID)
	}
	if q := byName["job.queue"][0]; q.ParentID != submit.SpanID {
		t.Errorf("job.queue parent = %q, want job.submit %q", q.ParentID, submit.SpanID)
	}
	run := byName["job.run"][0]
	if run.ParentID != submit.SpanID {
		t.Errorf("job.run parent = %q, want job.submit %q (cross-goroutine link)", run.ParentID, submit.SpanID)
	}
	if p := byName["job.persist"][0]; p.ParentID != run.SpanID {
		t.Errorf("job.persist parent = %q, want job.run %q", p.ParentID, run.SpanID)
	}
	em := byName["mine.em"][0]
	if em.ParentID != run.SpanID {
		t.Errorf("mine.em parent = %q, want job.run %q", em.ParentID, run.SpanID)
	}
	for _, key := range []string{"m", "e_m", "chunks"} {
		if _, ok := attrValue(em, key); !ok {
			t.Errorf("mine.em span missing attr %q", key)
		}
	}
	levels := byName["mine.level"]
	wantLevels := len(final["progress"].([]any))
	if len(levels) != wantLevels {
		t.Errorf("%d mine.level spans, want %d (one per reported level)", len(levels), wantLevels)
	}
	for _, lv := range levels {
		if lv.ParentID != run.SpanID {
			t.Errorf("mine.level parent = %q, want job.run %q", lv.ParentID, run.SpanID)
		}
		for _, key := range []string{"level", "candidates", "pruned_by_lambda", "zero_support", "abandoned", "lambda"} {
			if _, ok := attrValue(lv, key); !ok {
				t.Errorf("mine.level span missing attr %q", key)
			}
		}
	}
	if state, _ := attrValue(run, "state"); state != "done" {
		t.Errorf("job.run state attr = %v", state)
	}

	// The same data over the API: the trace listing knows the trace and
	// the detail endpoint returns its spans.
	resp := doRequest(t, http.MethodGet, ts.URL+"/v1/traces/"+reqID)
	body := decode(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/{id} status = %d", resp.StatusCode)
	}
	if n := len(body["spans"].([]any)); n < 5 {
		t.Errorf("trace endpoint returned %d spans", n)
	}
	// Every status poll above is a trace of its own, and a slow run (the
	// race detector) polls dozens of times, so list well past them.
	lresp := doRequest(t, http.MethodGet, ts.URL+"/v1/traces?limit=1000")
	lbody := decode(t, lresp.Body)
	lresp.Body.Close()
	found := false
	for _, tr := range lbody["traces"].([]any) {
		if tr.(map[string]any)["trace_id"] == reqID {
			found = true
		}
	}
	if !found {
		t.Error("trace listing does not include the request's trace")
	}

	// Unknown traces 404.
	nresp := doRequest(t, http.MethodGet, ts.URL+"/v1/traces/does-not-exist")
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", nresp.StatusCode)
	}
}

// TestRequestIDSanitised rejects header values that could corrupt logs or
// responses, falling back to a generated trace id.
func TestRequestIDSanitised(t *testing.T) {
	cases := []struct {
		in   string
		keep bool
	}{
		{"abc-123_X.y", true},
		{"", false},
		{"has space", false},
		{"new\nline", false},
		{`quote"id`, false},
		{string(make([]byte, 65)), false},
	}
	for _, tc := range cases {
		got := requestID(tc.in)
		if tc.keep && got != tc.in {
			t.Errorf("requestID(%q) = %q, want the input kept", tc.in, got)
		}
		if !tc.keep && (got == tc.in || got == "") {
			t.Errorf("requestID(%q) = %q, want a generated id", tc.in, got)
		}
	}
}
