package server

import (
	"maps"
	"sort"
	"strings"
	"sync"
	"time"

	"permine/internal/cluster"
	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/server/store"
)

// latencyBuckets are the upper bounds (seconds) of the mining-latency
// histogram, exponential from 1ms to 5m; an implicit +Inf bucket catches
// the rest.
var latencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300,
}

// requestBuckets are the upper bounds (seconds) of the per-route HTTP
// request-duration histogram. Requests live on a much shorter scale than
// mining runs, so the grid is finer at the bottom and tops out at 10s.
var requestBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. It is not safe for
// concurrent use on its own; Metrics serialises access.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1, last is +Inf
	sum    float64
	n      int64
}

func newHistogram() *Histogram { return newHistogramWith(latencyBuckets) }

func newHistogramWith(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *Histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(h.bounds, seconds)
	h.counts[i]++
	h.sum += seconds
	h.n++
}

// HistogramView is the JSON form of a histogram: cumulative bucket counts
// keyed by upper bound, plus count/sum/mean.
type HistogramView struct {
	Count       int64            `json:"count"`
	SumSeconds  float64          `json:"sum_seconds"`
	MeanSeconds float64          `json:"mean_seconds"`
	Buckets     []HistogramEntry `json:"buckets"`
}

// HistogramEntry is one cumulative histogram bucket; LE is the inclusive
// upper bound in seconds (0 means +Inf).
type HistogramEntry struct {
	LE         float64 `json:"le,omitempty"`
	Cumulative int64   `json:"cumulative"`
}

func (h *Histogram) view() HistogramView {
	v := HistogramView{Count: h.n, SumSeconds: h.sum}
	if h.n > 0 {
		v.MeanSeconds = h.sum / float64(h.n)
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		e := HistogramEntry{Cumulative: cum}
		if i < len(h.bounds) {
			e.LE = h.bounds[i]
		}
		v.Buckets = append(v.Buckets, e)
	}
	return v
}

// Metrics is the registry of the counters the server's own paths count:
// jobs and corpora by state and finished, requests by route and status
// class, recovery, join strategies, shedding, corpus shard outcomes,
// retries, backoff and replays, and the SLO target and counts. Each is
// kept in the MetricsSnapshot section it is served as; the latency
// histograms are rendered at snapshot time, and Server.snapshot adds the
// sections other components own. All methods are safe for concurrent use.
type Metrics struct {
	mu      sync.Mutex
	started time.Time
	counts  MetricsSnapshot
	latency map[string]*Histogram
	reqDur  map[string]*Histogram // per-route request duration (non-streaming)
}

// NewMetrics builds an empty registry whose SLO counters measure against
// sloTarget: every non-streaming request counts, and those slower than
// the target also count as breaches. The target is fixed here
// (-slo-p99-ms), so the breach ratio over any scrape interval is directly
// comparable across nodes.
func NewMetrics(sloTarget time.Duration) *Metrics {
	return &Metrics{
		started: time.Now(),
		counts: MetricsSnapshot{
			Jobs:           make(map[string]int64),
			JobsFinished:   make(map[string]int64),
			Requests:       make(map[string]int64),
			Recovery:       make(map[string]int64),
			JoinStrategies: make(map[string]int64),
			Shed:           make(map[string]int64),
			Corpus: CorpusMetrics{
				Jobs:     make(map[string]int64),
				Finished: make(map[string]int64),
				Shards:   make(map[string]int64),
			},
			SLO: SLOStats{TargetP99Seconds: sloTarget.Seconds()},
		},
		latency: make(map[string]*Histogram),
		reqDur:  make(map[string]*Histogram),
	}
}

// JobTransition moves one job of the /v1/jobs family, or of the
// /v1/corpus family (inCorpus), from state from (empty for a new job) to
// state to, keeping the family's by-state gauges and, for terminal
// states, its cumulative finished counters. A corpus reads running while
// queued.
func (m *Metrics) JobTransition(inCorpus bool, from, to corpus.State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	states, finished := m.counts.Jobs, m.counts.JobsFinished
	if inCorpus {
		states, finished = m.counts.Corpus.Jobs, m.counts.Corpus.Finished
		from, to = corpusState(from), corpusState(to)
	}
	if from == to {
		return
	}
	if from != "" {
		states[string(from)]--
	}
	states[string(to)]++
	if to.Terminal() {
		finished[string(to)]++
	}
}

// JobShed counts one submit rejected by the memory governor's brownout
// ladder, by admission class ("corpus", "enumerate", "job").
func (m *Metrics) JobShed(class string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts.Shed[class]++
}

// JobRecovered notes one job reconstructed from the journal at boot: its
// family's by-state gauge absorbs it (empty state for records that
// produced no job) and the recovery outcome ("terminal", "requeued",
// "retry_exhausted", "skipped") is counted for the snapshot's recovery
// map.
func (m *Metrics) JobRecovered(inCorpus bool, state corpus.State, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case state == "":
	case inCorpus:
		m.counts.Corpus.Jobs[string(corpusState(state))]++
	default:
		m.counts.Jobs[string(state)]++
	}
	m.counts.Recovery[outcome]++
}

// CorpusShard counts one corpus shard reaching a terminal outcome
// ("done", "failed" or "resource_exhausted").
func (m *Metrics) CorpusShard(outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts.Corpus.Shards[outcome]++
}

// CorpusRetry counts one scheduled corpus shard retry and accumulates its
// backoff delay, making the backoff-with-jitter policy observable.
func (m *Metrics) CorpusRetry(backoff time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts.Corpus.Retries++
	m.counts.Corpus.BackoffSeconds += backoff.Seconds()
}

// CorpusShardsReplayed counts shards restored complete from journal
// checkpoints at boot — the work crash-resume did not redo.
func (m *Metrics) CorpusShardsReplayed(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts.Corpus.ShardsReplayed += int64(n)
}

// ObserveLevel accumulates one mining level's per-strategy PIL join
// counts (see core.LevelMetrics), feeding the
// permine_join_strategy_total family.
func (m *Metrics) ObserveLevel(lm core.LevelMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lm.JoinTwoPointer > 0 {
		m.counts.JoinStrategies[core.JoinTwoPointer.String()] += lm.JoinTwoPointer
	}
	if lm.JoinCum > 0 {
		m.counts.JoinStrategies[core.JoinCum.String()] += lm.JoinCum
	}
}

// ObserveMining records one finished mining run's wall-clock latency under
// its algorithm name.
func (m *Metrics) ObserveMining(algorithm string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[algorithm]
	if !ok {
		h = newHistogram()
		m.latency[algorithm] = h
	}
	h.observe(d.Seconds())
}

// ObserveRequest records one finished HTTP request: the count by route
// pattern and status class, the per-route duration histogram, and the SLO
// counters. Streaming routes (SSE) are excluded from duration and SLO
// accounting — their latency is connection lifetime, not service time.
func (m *Metrics) ObserveRequest(route string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	class := "2xx"
	switch {
	case status >= 500:
		class = "5xx"
	case status >= 400:
		class = "4xx"
	case status >= 300:
		class = "3xx"
	}
	m.counts.Requests[route+" "+class]++
	if strings.HasSuffix(route, "/events") {
		return
	}
	h, ok := m.reqDur[route]
	if !ok {
		h = newHistogramWith(requestBuckets)
		m.reqDur[route] = h
	}
	secs := d.Seconds()
	h.observe(secs)
	slo := &m.counts.SLO
	slo.Requests++
	if slo.TargetP99Seconds > 0 && secs > slo.TargetP99Seconds {
		slo.Breaches++
	}
}

// CorpusMetrics is the corpus-engine section of a metrics snapshot.
type CorpusMetrics struct {
	Jobs     map[string]int64 `json:"jobs_by_state"`
	Finished map[string]int64 `json:"jobs_finished_total"`
	// Shards counts terminal shard outcomes by "done"/"failed".
	Shards map[string]int64 `json:"shards_total"`
	// Retries and BackoffSeconds expose the retry policy: how many shard
	// retries were scheduled and the sum of their (jittered) backoffs.
	Retries        int64   `json:"shard_retries_total"`
	BackoffSeconds float64 `json:"shard_backoff_seconds_total"`
	// ShardsReplayed counts shards restored complete from the journal at
	// boot instead of re-mined.
	ShardsReplayed int64 `json:"shards_replayed_total"`
}

// SLOStats is the latency-SLO section of a metrics snapshot: how many
// non-streaming requests finished, how many exceeded the target, and the
// target itself (so dashboards can label the ratio).
type SLOStats struct {
	TargetP99Seconds float64 `json:"target_p99_seconds"`
	Requests         int64   `json:"requests_total"`
	Breaches         int64   `json:"breaches_total"`
}

// MetricsSnapshot is the JSON payload of GET /v1/metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Jobs          map[string]int64 `json:"jobs_by_state"`
	JobsFinished  map[string]int64 `json:"jobs_finished_total"`
	QueueDepth    int              `json:"queue_depth"`
	Cache         CacheStats       `json:"cache"`
	Store         store.Stats      `json:"store"`
	Corpus        CorpusMetrics    `json:"corpus"`
	Recovery      map[string]int64 `json:"recovery,omitempty"`
	Requests      map[string]int64 `json:"requests_total"`
	// JoinStrategies counts PIL joins executed by each join strategy
	// across all mining runs (keys: "twoptr", "cum").
	JoinStrategies map[string]int64         `json:"join_strategies_total,omitempty"`
	Latency        map[string]HistogramView `json:"mining_latency_seconds"`
	// RequestLatency holds per-route request-duration histograms for the
	// non-streaming routes; SLO is the rolling breach accounting against
	// the configured p99 target.
	RequestLatency map[string]HistogramView `json:"request_duration_seconds"`
	SLO            SLOStats                 `json:"slo"`
	SSE            SSEStats                 `json:"sse"`
	// Governor is the memory governor's live gauges; Shed counts submits
	// rejected by the brownout ladder, by admission class.
	Governor *GovernorStats   `json:"governor,omitempty"`
	Shed     map[string]int64 `json:"shed_total,omitempty"`
	// Cluster is present only on coordinators.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// Snapshot copies the sections counted here and renders the latency
// histograms; the other components' sections stay zero (Server.snapshot
// fills them).
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := m.counts
	snap.UptimeSeconds = time.Since(m.started).Seconds()
	snap.Jobs = maps.Clone(snap.Jobs)
	snap.JobsFinished = maps.Clone(snap.JobsFinished)
	snap.Requests = maps.Clone(snap.Requests)
	snap.Recovery = maps.Clone(snap.Recovery)
	snap.JoinStrategies = maps.Clone(snap.JoinStrategies)
	snap.Shed = maps.Clone(snap.Shed)
	snap.Corpus.Jobs = maps.Clone(snap.Corpus.Jobs)
	snap.Corpus.Finished = maps.Clone(snap.Corpus.Finished)
	snap.Corpus.Shards = maps.Clone(snap.Corpus.Shards)
	snap.Latency = views(m.latency)
	snap.RequestLatency = views(m.reqDur)
	return snap
}

// views renders each histogram of hs.
func views(hs map[string]*Histogram) map[string]HistogramView {
	out := make(map[string]HistogramView, len(hs))
	for k, h := range hs {
		out[k] = h.view()
	}
	return out
}
