package server

import (
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

// Metrics aggregates service-wide counters: jobs by state, queue depth,
// request counts by route and status class, and per-algorithm mining
// latency histograms. All methods are safe for concurrent use.
type Metrics struct {
	mu        sync.Mutex
	started   time.Time
	jobStates map[string]int64 // current number of jobs in each state
	finished  map[string]int64 // cumulative terminal transitions
	requests  map[string]int64 // "route status-class", e.g. "POST /v1/jobs 2xx"
	recovery  map[string]int64 // boot-time crash-recovery outcomes
	joins     map[string]int64 // PIL joins executed, by strategy name
	latency   map[string]*Histogram
	reqDur    map[string]*Histogram // per-route request duration (non-streaming)
	queueFn   func() int

	// Rolling SLO accounting: every non-streaming request counts, requests
	// slower than sloTarget also count as breaches. The target is fixed at
	// construction (-slo-p99-ms), so breach ratio over any scrape interval
	// is directly comparable across nodes.
	sloTarget   float64 // seconds
	sloRequests int64
	sloBreaches int64
	storeFn     func() store.Stats
	sseFn       func() SSEStats
	clusterFn   func() cluster.Stats // nil when the node is not a coordinator

	// Governor shedding: submits rejected by the brownout ladder, keyed by
	// admission class; governorFn snapshots the live memory gauges.
	shed       map[string]int64
	governorFn func() GovernorStats

	// Corpus-engine counters: jobs by state, terminal transitions, shard
	// outcomes, retries with their cumulative backoff, and shards replayed
	// from journal checkpoints instead of re-mined after a restart.
	corpusStates   map[string]int64
	corpusFinished map[string]int64
	corpusShards   map[string]int64 // "done" / "failed"
	corpusRetries  int64
	corpusBackoff  float64 // summed scheduled backoff, seconds
	corpusReplayed int64
}

// NewMetrics builds an empty registry; queueFn (optional) reports live
// queue depth for snapshots.
func NewMetrics(queueFn func() int) *Metrics {
	return &Metrics{
		started:        time.Now(),
		jobStates:      make(map[string]int64),
		finished:       make(map[string]int64),
		requests:       make(map[string]int64),
		recovery:       make(map[string]int64),
		joins:          make(map[string]int64),
		latency:        make(map[string]*Histogram),
		reqDur:         make(map[string]*Histogram),
		corpusStates:   make(map[string]int64),
		corpusFinished: make(map[string]int64),
		corpusShards:   make(map[string]int64),
		shed:           make(map[string]int64),
		queueFn:        queueFn,
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
	states, finished := m.jobStates, m.finished
	if inCorpus {
		states, finished = m.corpusStates, m.corpusFinished
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
	m.shed[class]++
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
		m.corpusStates[string(corpusState(state))]++
	default:
		m.jobStates[string(state)]++
	}
	m.recovery[outcome]++
}

// CorpusShard counts one corpus shard reaching a terminal outcome
// ("done", "failed" or "resource_exhausted").
func (m *Metrics) CorpusShard(outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.corpusShards[outcome]++
}

// CorpusRetry counts one scheduled corpus shard retry and accumulates its
// backoff delay, making the backoff-with-jitter policy observable.
func (m *Metrics) CorpusRetry(backoff time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.corpusRetries++
	m.corpusBackoff += backoff.Seconds()
}

// CorpusShardsReplayed counts shards restored complete from journal
// checkpoints at boot — the work crash-resume did not redo.
func (m *Metrics) CorpusShardsReplayed(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.corpusReplayed += int64(n)
}

// ObserveLevel accumulates one mining level's per-strategy PIL join
// counts (see core.LevelMetrics), feeding the
// permine_join_strategy_total family.
func (m *Metrics) ObserveLevel(lm core.LevelMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lm.JoinTwoPointer > 0 {
		m.joins[core.JoinTwoPointer.String()] += lm.JoinTwoPointer
	}
	if lm.JoinCum > 0 {
		m.joins[core.JoinCum.String()] += lm.JoinCum
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

// SetSLOTarget fixes the latency objective the SLO counters measure
// against. Call before the registry is shared between goroutines.
func (m *Metrics) SetSLOTarget(target time.Duration) {
	m.sloTarget = target.Seconds()
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
	m.requests[route+" "+class]++
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
	m.sloRequests++
	if m.sloTarget > 0 && secs > m.sloTarget {
		m.sloBreaches++
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

// Snapshot renders every counter; cache may be nil.
func (m *Metrics) Snapshot(cache *Cache) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MetricsSnapshot{
		UptimeSeconds:  time.Since(m.started).Seconds(),
		Jobs:           make(map[string]int64, len(m.jobStates)),
		JobsFinished:   make(map[string]int64, len(m.finished)),
		Requests:       make(map[string]int64, len(m.requests)),
		Latency:        make(map[string]HistogramView, len(m.latency)),
		RequestLatency: make(map[string]HistogramView, len(m.reqDur)),
		SLO: SLOStats{
			TargetP99Seconds: m.sloTarget,
			Requests:         m.sloRequests,
			Breaches:         m.sloBreaches,
		},
		Corpus: CorpusMetrics{
			Jobs:           make(map[string]int64, len(m.corpusStates)),
			Finished:       make(map[string]int64, len(m.corpusFinished)),
			Shards:         make(map[string]int64, len(m.corpusShards)),
			Retries:        m.corpusRetries,
			BackoffSeconds: m.corpusBackoff,
			ShardsReplayed: m.corpusReplayed,
		},
	}
	for k, v := range m.jobStates {
		snap.Jobs[k] = v
	}
	for k, v := range m.finished {
		snap.JobsFinished[k] = v
	}
	for k, v := range m.corpusStates {
		snap.Corpus.Jobs[k] = v
	}
	for k, v := range m.corpusFinished {
		snap.Corpus.Finished[k] = v
	}
	for k, v := range m.corpusShards {
		snap.Corpus.Shards[k] = v
	}
	for k, v := range m.requests {
		snap.Requests[k] = v
	}
	for k, h := range m.latency {
		snap.Latency[k] = h.view()
	}
	for k, h := range m.reqDur {
		snap.RequestLatency[k] = h.view()
	}
	if len(m.recovery) > 0 {
		snap.Recovery = make(map[string]int64, len(m.recovery))
		for k, v := range m.recovery {
			snap.Recovery[k] = v
		}
	}
	if len(m.joins) > 0 {
		snap.JoinStrategies = make(map[string]int64, len(m.joins))
		for k, v := range m.joins {
			snap.JoinStrategies[k] = v
		}
	}
	if m.queueFn != nil {
		snap.QueueDepth = m.queueFn()
	}
	if m.storeFn != nil {
		snap.Store = m.storeFn()
	} else {
		snap.Store = store.Stats{Backend: "memory"}
	}
	if m.sseFn != nil {
		snap.SSE = m.sseFn()
	}
	if m.governorFn != nil {
		gs := m.governorFn()
		snap.Governor = &gs
	}
	if len(m.shed) > 0 {
		snap.Shed = make(map[string]int64, len(m.shed))
		for k, v := range m.shed {
			snap.Shed[k] = v
		}
	}
	if m.clusterFn != nil {
		cs := m.clusterFn()
		snap.Cluster = &cs
	}
	if cache != nil {
		snap.Cache = cache.Stats()
	}
	return snap
}
