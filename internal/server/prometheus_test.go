package server

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"permine/internal/cluster"
	"permine/internal/server/store"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedSnapshot is a hand-built MetricsSnapshot covering every metric
// family with deterministic values (no uptime, no live clocks).
func fixedSnapshot() MetricsSnapshot {
	h := HistogramView{Count: 4, SumSeconds: 1.75}
	var cum int64
	for i := range latencyBuckets {
		switch {
		case latencyBuckets[i] >= 1:
			cum = 4
		case latencyBuckets[i] >= 0.1:
			cum = 3
		case latencyBuckets[i] >= 0.01:
			cum = 1
		}
		h.Buckets = append(h.Buckets, HistogramEntry{LE: latencyBuckets[i], Cumulative: cum})
	}
	h.Buckets = append(h.Buckets, HistogramEntry{LE: 0, Cumulative: 4}) // +Inf
	return MetricsSnapshot{
		UptimeSeconds: 12.5,
		Jobs:          map[string]int64{"done": 3, "running": 1},
		JobsFinished:  map[string]int64{"done": 3, "failed": 1},
		QueueDepth:    2,
		Cache: CacheStats{
			Size: 5, Capacity: 128, Hits: 7, SubsumptionHits: 2, Misses: 7,
			Evictions: 3, HitRatio: 0.5625,
		},
		Store: store.Stats{
			Backend: "wal", JournalBytes: 2048, Appends: 21, Fsyncs: 21,
			WriteErrors: 0, WriteRetries: 1, Compactions: 2,
		},
		Corpus: CorpusMetrics{
			Jobs:           map[string]int64{"partial": 1, "running": 1},
			Finished:       map[string]int64{"done": 2, "partial": 1},
			Shards:         map[string]int64{"done": 17, "failed": 2},
			Retries:        5,
			BackoffSeconds: 1.25,
			ShardsReplayed: 6,
		},
		Recovery: map[string]int64{"requeued": 1, "terminal": 4},
		Requests: map[string]int64{
			"POST /v1/jobs 2xx":     6,
			"GET /v1/jobs/{id} 2xx": 12,
			"GET /v1/jobs/{id} 4xx": 1,
			"other 4xx":             3,
			"GET /metrics 2xx":      2,
		},
		JoinStrategies: map[string]int64{"cum": 120, "twoptr": 64},
		Latency:        map[string]HistogramView{"MPPm": h},
		RequestLatency: map[string]HistogramView{
			"POST /v1/jobs": fixedRequestHistogram(),
		},
		SLO: SLOStats{TargetP99Seconds: 0.25, Requests: 21, Breaches: 2},
		SSE: SSEStats{Subscribers: 1, Dropped: 2},
		Governor: &GovernorStats{
			UsedBytes: 96 << 20, HighBytes: 200 << 20, LimitBytes: 256 << 20,
			Pressure: 0.375, Brownout: false,
		},
		Shed: map[string]int64{"corpus": 2, "enumerate": 1, "job": 4},
		Cluster: &cluster.Stats{
			Self: "http://coord:18080",
			PeersByState: map[string]int{
				"alive": 2, "suspect": 1, "dead": 1, "unknown": 0,
			},
			ForwardedJobs:     4,
			ForwardedShards:   19,
			ShardsStolen:      3,
			ShardsRequeued:    2,
			HeartbeatFailures: 7,
			ScrapeErrors:      1,
		},
	}
}

// fixedRequestHistogram hand-builds a request-duration view over the
// request bucket grid: 5 requests, 4 within 10ms, one between 0.5s and 1s.
func fixedRequestHistogram() HistogramView {
	h := HistogramView{Count: 5, SumSeconds: 0.75}
	var cum int64
	for _, le := range requestBuckets {
		switch {
		case le >= 1:
			cum = 5
		case le >= 0.01:
			cum = 4
		case le >= 0.005:
			cum = 2
		}
		h.Buckets = append(h.Buckets, HistogramEntry{LE: le, Cumulative: cum})
	}
	h.Buckets = append(h.Buckets, HistogramEntry{LE: 0, Cumulative: 5}) // +Inf
	return h
}

// TestPrometheusGolden pins the full exposition output. Regenerate with
// go test ./internal/server/ -run TestPrometheusGolden -update.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writePrometheus(&buf, fixedSnapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// parseBucketLine extracts the le label and sample value of a _bucket line.
func parseBucketLine(t *testing.T, line string) (le string, value float64) {
	t.Helper()
	i := strings.Index(line, `le="`)
	if i < 0 {
		t.Fatalf("bucket line without le label: %s", line)
	}
	rest := line[i+len(`le="`):]
	j := strings.IndexByte(rest, '"')
	le = rest[:j]
	fields := strings.Fields(line)
	v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil {
		t.Fatalf("bucket value in %q: %v", line, err)
	}
	return le, v
}

// TestPrometheusEndpointInvariants scrapes a live server after real
// traffic and checks the format invariants a Prometheus scraper relies
// on: content type, strictly ascending le bounds with a final +Inf
// bucket, and +Inf cumulative count equal to the _count sample.
func TestPrometheusEndpointInvariants(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", genomeSeq(t, 400, 7).Data()))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	pollJob(t, ts.URL, sub["id"].(string))

	mresp := doRequest(t, http.MethodGet, ts.URL+"/metrics")
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE permine_jobs gauge",
		"# TYPE permine_mining_latency_seconds histogram",
		"# TYPE permine_join_strategy_total counter",
		"permine_join_strategy_total{strategy=",
		`permine_jobs_finished_total{state="done"} 1`,
		`permine_requests_total{route="POST /v1/jobs",class="2xx"}`,
		"permine_sse_subscribers 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	count := checkHistogramInvariants(t, text, "permine_mining_latency_seconds", `algorithm="MPPm"`)
	if count != 1 {
		t.Errorf("_count = %v after one mining run, want 1", count)
	}
	// The new per-route request-duration histogram must satisfy the same
	// invariants; the job submit above guarantees at least one observation.
	if n := checkHistogramInvariants(t, text, "permine_http_request_duration_seconds", `route="POST /v1/jobs"`); n < 1 {
		t.Errorf("request duration _count = %v, want >= 1", n)
	}
	for _, want := range []string{
		"# TYPE permine_http_request_duration_seconds histogram",
		"permine_slo_target_p99_seconds",
		"permine_slo_requests_total",
		"permine_slo_breaches_total",
		"permine_mem_used_bytes",
		"permine_mem_limit_bytes",
		"permine_mem_pressure",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// checkHistogramInvariants asserts that the labelled histogram family in
// the exposition text has strictly ascending le bounds ending in +Inf,
// cumulative bucket values, and a +Inf bucket equal to _count. It returns
// the _count value.
func checkHistogramInvariants(t *testing.T, text, family, label string) float64 {
	t.Helper()
	var les []string
	var bucketVals []float64
	var count float64
	haveCount := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, family+"_bucket{"+label) {
			le, v := parseBucketLine(t, line)
			les = append(les, le)
			bucketVals = append(bucketVals, v)
		}
		if strings.HasPrefix(line, family+"_count{"+label) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatal(err)
			}
			count = v
			haveCount = true
		}
	}
	if len(les) == 0 || !haveCount {
		t.Fatalf("no %s{%s} histogram in /metrics:\n%s", family, label, text)
	}
	if les[len(les)-1] != "+Inf" {
		t.Errorf("%s: last bucket le = %q, want +Inf", family, les[len(les)-1])
	}
	prev := -1.0
	for _, le := range les[:len(les)-1] {
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("le %q: %v", le, err)
		}
		if v <= prev {
			t.Errorf("%s: le bounds not ascending: %v", family, les)
		}
		prev = v
	}
	for i := 1; i < len(bucketVals); i++ {
		if bucketVals[i] < bucketVals[i-1] {
			t.Errorf("%s: bucket counts not cumulative: %v", family, bucketVals)
		}
	}
	if inf := bucketVals[len(bucketVals)-1]; inf != count {
		t.Errorf("%s: +Inf bucket = %v, _count = %v; must be equal", family, inf, count)
	}
	return count
}
