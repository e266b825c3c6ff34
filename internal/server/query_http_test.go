package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// queryJobBody is a submit payload with query fields: MPP with MaxLen 0
// (n = l1), so every run is complete at all lengths and cross-threshold
// subsumption is always derivable.
func queryJobBody(t *testing.T, data string, minSupport float64, topK int, motif string) map[string]any {
	t.Helper()
	params := map[string]any{
		"gap_min":     2,
		"gap_max":     4,
		"min_support": minSupport,
	}
	if topK > 0 {
		params["top_k"] = topK
	}
	if motif != "" {
		params["motif"] = motif
	}
	return map[string]any{
		"algorithm": "mpp",
		"params":    params,
		"sequence":  map[string]any{"alphabet": "dna", "name": "query-test", "data": data},
	}
}

// TestQueryJobsHTTP drives the interactive query layer over HTTP: a
// plain full mine populates the cache, then a raised-threshold job, a
// top-K job and a targeted job are all answered by subsumption — no
// further mining — and the counters prove it.
func TestQueryJobsHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	s := genomeSeq(t, 300, 9)

	// Plain full mine: a real mining run that seeds the cache.
	resp := postJSON(t, ts.URL+"/v1/jobs", queryJobBody(t, s.Data(), 0.001, 0, ""))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	full := pollJob(t, ts.URL, sub["id"].(string))
	if full["state"] != "done" {
		t.Fatalf("full mine: state %v (error %v)", full["state"], full["error"])
	}
	fullPatterns, _ := full["result"].(map[string]any)["Patterns"].([]any)
	if len(fullPatterns) == 0 {
		t.Fatal("full mine found no patterns; fixture broken")
	}

	// Raised threshold: same identity, higher ρs — a subsumption hit
	// served inline (200, result attached, no queueing).
	resp = postJSON(t, ts.URL+"/v1/jobs", queryJobBody(t, s.Data(), 0.002, 0, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raised-threshold submit status = %d, want 200 (served from cache)", resp.StatusCode)
	}
	raised := decode(t, resp.Body)
	resp.Body.Close()
	if raised["cache_hit"] != true || !strings.Contains(raised["note"].(string), "subsumption") {
		t.Fatalf("raised-threshold job = cache_hit %v note %v, want subsumption hit", raised["cache_hit"], raised["note"])
	}

	// Top-K at the cached threshold: derived by select, not mined.
	resp = postJSON(t, ts.URL+"/v1/jobs", queryJobBody(t, s.Data(), 0.001, 2, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("top-K submit status = %d, want 200", resp.StatusCode)
	}
	topk := decode(t, resp.Body)
	resp.Body.Close()
	if topk["cache_hit"] != true {
		t.Fatal("top-K job at the cached threshold should be served by subsumption")
	}
	topkPatterns, _ := topk["result"].(map[string]any)["Patterns"].([]any)
	if len(topkPatterns) != 2 {
		t.Fatalf("top-K result has %d patterns, want 2", len(topkPatterns))
	}

	// Targeted: every returned pattern must contain the motif.
	motif := fullPatterns[0].(map[string]any)["Chars"].(string)[:2]
	resp = postJSON(t, ts.URL+"/v1/jobs", queryJobBody(t, s.Data(), 0.001, 0, motif))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("targeted submit status = %d, want 200", resp.StatusCode)
	}
	targeted := decode(t, resp.Body)
	resp.Body.Close()
	if targeted["cache_hit"] != true {
		t.Fatal("targeted job at the cached threshold should be served by subsumption")
	}
	tp, _ := targeted["result"].(map[string]any)["Patterns"].([]any)
	for _, p := range tp {
		if chars := p.(map[string]any)["Chars"].(string); !strings.Contains(chars, motif) {
			t.Errorf("targeted result pattern %q does not contain motif %q", chars, motif)
		}
	}

	// The counters prove zero mining work: three subsumption hits, and
	// the same counter surfaces on the Prometheus exposition.
	if st := srv.mgr.cfg.Cache.Stats(); st.SubsumptionHits != 3 {
		t.Errorf("subsumption hits = %d, want 3", st.SubsumptionHits)
	}
	mresp := doRequest(t, http.MethodGet, ts.URL+"/metrics")
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "permine_cache_subsumption_hits_total 3") {
		t.Error("/metrics missing permine_cache_subsumption_hits_total 3")
	}

	// A repeat of the raised-threshold query now hits its memoised exact
	// key — a plain hit, not another derivation.
	before := srv.mgr.cfg.Cache.Stats()
	resp = postJSON(t, ts.URL+"/v1/jobs", queryJobBody(t, s.Data(), 0.002, 0, ""))
	repeat := decode(t, resp.Body)
	resp.Body.Close()
	if repeat["cache_hit"] != true {
		t.Fatal("repeated raised-threshold job should hit the cache")
	}
	after := srv.mgr.cfg.Cache.Stats()
	if after.Hits != before.Hits+1 || after.SubsumptionHits != before.SubsumptionHits {
		t.Errorf("repeat lookup: hits %d->%d subsumption %d->%d, want one exact hit",
			before.Hits, after.Hits, before.SubsumptionHits, after.SubsumptionHits)
	}
}

// TestQueryJobValidation pins the request-level guard rails: an invalid
// motif and a negative top_k are rejected before any job is created.
func TestQueryJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	s := genomeSeq(t, 100, 3)

	resp := postJSON(t, ts.URL+"/v1/jobs", queryJobBody(t, s.Data(), 0.01, 0, "ACGX"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid motif: status %d, want 400", resp.StatusCode)
	}

	body := queryJobBody(t, s.Data(), 0.01, 0, "")
	body["params"].(map[string]any)["top_k"] = -1
	resp = postJSON(t, ts.URL+"/v1/jobs", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative top_k: status %d, want 400", resp.StatusCode)
	}
}
