package server

import (
	"io"
	"sort"
	"strings"

	"permine/internal/obs"
)

// writePrometheus renders a metrics snapshot in Prometheus text exposition
// format (version 0.0.4). Map-backed metric families are emitted in sorted
// label order so the output is deterministic and golden-testable.
func writePrometheus(w io.Writer, snap MetricsSnapshot) error {
	p := obs.NewPromWriter(w)

	p.Meta("permine_uptime_seconds", "gauge", "Seconds since the metrics registry started.")
	p.Sample("permine_uptime_seconds", nil, snap.UptimeSeconds)

	p.Meta("permine_jobs", "gauge", "Jobs currently in each lifecycle state.")
	for _, state := range sortedKeys(snap.Jobs) {
		p.Sample("permine_jobs", []obs.Label{{Name: "state", Value: state}}, float64(snap.Jobs[state]))
	}

	p.Meta("permine_jobs_finished_total", "counter", "Jobs finished, by terminal state.")
	for _, state := range sortedKeys(snap.JobsFinished) {
		p.Sample("permine_jobs_finished_total", []obs.Label{{Name: "state", Value: state}}, float64(snap.JobsFinished[state]))
	}

	p.Meta("permine_queue_depth", "gauge", "Jobs waiting for a worker.")
	p.Sample("permine_queue_depth", nil, float64(snap.QueueDepth))

	p.Meta("permine_cache_entries", "gauge", "Result cache entries resident.")
	p.Sample("permine_cache_entries", nil, float64(snap.Cache.Size))
	p.Meta("permine_cache_capacity", "gauge", "Result cache capacity in entries.")
	p.Sample("permine_cache_capacity", nil, float64(snap.Cache.Capacity))
	p.Meta("permine_cache_hits_total", "counter", "Result cache hits.")
	p.Sample("permine_cache_hits_total", nil, float64(snap.Cache.Hits))
	p.Meta("permine_cache_misses_total", "counter", "Result cache misses.")
	p.Sample("permine_cache_misses_total", nil, float64(snap.Cache.Misses))
	p.Meta("permine_cache_subsumption_hits_total", "counter", "Jobs served by filtering a cached result mined at another threshold.")
	p.Sample("permine_cache_subsumption_hits_total", nil, float64(snap.Cache.SubsumptionHits))
	p.Meta("permine_cache_evictions_total", "counter", "Result cache LRU evictions.")
	p.Sample("permine_cache_evictions_total", nil, float64(snap.Cache.Evictions))

	p.Meta("permine_store_info", "gauge", "Job store backend (constant 1, labelled).")
	p.Sample("permine_store_info", []obs.Label{{Name: "backend", Value: snap.Store.Backend}}, 1)
	p.Meta("permine_store_degraded", "gauge", "1 when the job store gave up on its journal.")
	p.Sample("permine_store_degraded", nil, boolGauge(snap.Store.Degraded))
	p.Meta("permine_store_journal_bytes", "gauge", "Current journal size on disk.")
	p.Sample("permine_store_journal_bytes", nil, float64(snap.Store.JournalBytes))
	p.Meta("permine_store_appends_total", "counter", "Journal append operations.")
	p.Sample("permine_store_appends_total", nil, float64(snap.Store.Appends))
	p.Meta("permine_store_fsyncs_total", "counter", "Journal fsync calls.")
	p.Sample("permine_store_fsyncs_total", nil, float64(snap.Store.Fsyncs))
	p.Meta("permine_store_write_errors_total", "counter", "Journal write failures.")
	p.Sample("permine_store_write_errors_total", nil, float64(snap.Store.WriteErrors))
	p.Meta("permine_store_write_retries_total", "counter", "Journal write retries.")
	p.Sample("permine_store_write_retries_total", nil, float64(snap.Store.WriteRetries))
	p.Meta("permine_store_compactions_total", "counter", "Journal snapshot compactions.")
	p.Sample("permine_store_compactions_total", nil, float64(snap.Store.Compactions))

	p.Meta("permine_corpus_jobs", "gauge", "Corpus jobs currently in each lifecycle state.")
	for _, state := range sortedKeys(snap.Corpus.Jobs) {
		p.Sample("permine_corpus_jobs", []obs.Label{{Name: "state", Value: state}}, float64(snap.Corpus.Jobs[state]))
	}
	p.Meta("permine_corpus_jobs_finished_total", "counter", "Corpus jobs finished, by terminal state.")
	for _, state := range sortedKeys(snap.Corpus.Finished) {
		p.Sample("permine_corpus_jobs_finished_total", []obs.Label{{Name: "state", Value: state}}, float64(snap.Corpus.Finished[state]))
	}
	p.Meta("permine_corpus_shards_total", "counter", "Corpus shards finished, by outcome.")
	for _, outcome := range sortedKeys(snap.Corpus.Shards) {
		p.Sample("permine_corpus_shards_total", []obs.Label{{Name: "outcome", Value: outcome}}, float64(snap.Corpus.Shards[outcome]))
	}
	p.Meta("permine_corpus_shard_retries_total", "counter", "Corpus shard retries scheduled.")
	p.Sample("permine_corpus_shard_retries_total", nil, float64(snap.Corpus.Retries))
	p.Meta("permine_corpus_shard_backoff_seconds_total", "counter", "Cumulative jittered backoff scheduled before shard retries.")
	p.Sample("permine_corpus_shard_backoff_seconds_total", nil, snap.Corpus.BackoffSeconds)
	p.Meta("permine_corpus_shards_replayed_total", "counter", "Corpus shards restored from journal checkpoints instead of re-mined.")
	p.Sample("permine_corpus_shards_replayed_total", nil, float64(snap.Corpus.ShardsReplayed))

	if len(snap.Recovery) > 0 {
		p.Meta("permine_recovery_total", "counter", "Boot-time crash-recovery outcomes.")
		for _, outcome := range sortedKeys(snap.Recovery) {
			p.Sample("permine_recovery_total", []obs.Label{{Name: "outcome", Value: outcome}}, float64(snap.Recovery[outcome]))
		}
	}

	if snap.Cluster != nil {
		c := snap.Cluster
		p.Meta("permine_cluster_peers", "gauge", "Configured cluster peers in each health state.")
		for _, state := range sortedKeys(c.PeersByState) {
			p.Sample("permine_cluster_peers", []obs.Label{{Name: "state", Value: state}}, float64(c.PeersByState[state]))
		}
		p.Meta("permine_cluster_forwarded_jobs_total", "counter", "Whole jobs forwarded to a peer by ring placement.")
		p.Sample("permine_cluster_forwarded_jobs_total", nil, float64(c.ForwardedJobs))
		p.Meta("permine_cluster_forwarded_shards_total", "counter", "Corpus shards forwarded to a peer by ring placement.")
		p.Sample("permine_cluster_forwarded_shards_total", nil, float64(c.ForwardedShards))
		p.Meta("permine_cluster_shards_stolen_total", "counter", "Shards diverted from their ring owner to a less-loaded peer.")
		p.Sample("permine_cluster_shards_stolen_total", nil, float64(c.ShardsStolen))
		p.Meta("permine_cluster_shards_requeued_total", "counter", "Shards requeued after their assigned node died.")
		p.Sample("permine_cluster_shards_requeued_total", nil, float64(c.ShardsRequeued))
		p.Meta("permine_cluster_heartbeat_failures_total", "counter", "Failed heartbeat probes against peers.")
		p.Sample("permine_cluster_heartbeat_failures_total", nil, float64(c.HeartbeatFailures))
		p.Meta("permine_cluster_scrape_errors_total", "counter", "Failed peer scrapes during metrics federation.")
		p.Sample("permine_cluster_scrape_errors_total", nil, float64(c.ScrapeErrors))
	}

	p.Meta("permine_sse_subscribers", "gauge", "Attached job event streams.")
	p.Sample("permine_sse_subscribers", nil, float64(snap.SSE.Subscribers))
	p.Meta("permine_sse_dropped_total", "counter", "Event streams dropped for falling behind.")
	p.Sample("permine_sse_dropped_total", nil, float64(snap.SSE.Dropped))

	p.Meta("permine_requests_total", "counter", "HTTP requests by route and status class.")
	for _, key := range sortedKeys(snap.Requests) {
		route, class := splitRequestKey(key)
		p.Sample("permine_requests_total",
			[]obs.Label{{Name: "route", Value: route}, {Name: "class", Value: class}},
			float64(snap.Requests[key]))
	}

	p.Meta("permine_join_strategy_total", "counter", "PIL joins executed, by join strategy (cum counts both cumulative-table layouts, dense and compact).")
	for _, strat := range sortedKeys(snap.JoinStrategies) {
		p.Sample("permine_join_strategy_total",
			[]obs.Label{{Name: "strategy", Value: strat}}, float64(snap.JoinStrategies[strat]))
	}

	p.Meta("permine_mining_latency_seconds", "histogram", "Wall-clock latency of finished mining runs, by algorithm.")
	for _, algo := range sortedKeys(snap.Latency) {
		writeHistogram(p, "permine_mining_latency_seconds",
			obs.Label{Name: "algorithm", Value: algo}, snap.Latency[algo])
	}

	p.Meta("permine_http_request_duration_seconds", "histogram", "HTTP request service time by route (streaming routes excluded).")
	for _, route := range sortedKeys(snap.RequestLatency) {
		writeHistogram(p, "permine_http_request_duration_seconds",
			obs.Label{Name: "route", Value: route}, snap.RequestLatency[route])
	}

	p.Meta("permine_slo_target_p99_seconds", "gauge", "Configured p99 request-latency objective.")
	p.Sample("permine_slo_target_p99_seconds", nil, snap.SLO.TargetP99Seconds)
	p.Meta("permine_slo_requests_total", "counter", "Non-streaming HTTP requests measured against the latency SLO.")
	p.Sample("permine_slo_requests_total", nil, float64(snap.SLO.Requests))
	p.Meta("permine_slo_breaches_total", "counter", "Requests that exceeded the latency SLO target.")
	p.Sample("permine_slo_breaches_total", nil, float64(snap.SLO.Breaches))

	if g := snap.Governor; g != nil {
		p.Meta("permine_mem_used_bytes", "gauge", "Mining memory currently charged against the governor.")
		p.Sample("permine_mem_used_bytes", nil, float64(g.UsedBytes))
		p.Meta("permine_mem_high_bytes", "gauge", "High-water mark of mining memory charged against the governor.")
		p.Sample("permine_mem_high_bytes", nil, float64(g.HighBytes))
		p.Meta("permine_mem_limit_bytes", "gauge", "Process-wide mining memory ceiling (0 = unlimited).")
		p.Sample("permine_mem_limit_bytes", nil, float64(g.LimitBytes))
		p.Meta("permine_mem_pressure", "gauge", "Governor memory pressure: used/limit (0 when unlimited).")
		p.Sample("permine_mem_pressure", nil, g.Pressure)
		p.Meta("permine_brownout", "gauge", "1 while the governor is shedding expensive job classes.")
		p.Sample("permine_brownout", nil, boolGauge(g.Brownout))
	}

	p.Meta("permine_shed_total", "counter", "Submissions shed by the memory governor, by job class.")
	for _, class := range sortedKeys(snap.Shed) {
		p.Sample("permine_shed_total", []obs.Label{{Name: "class", Value: class}}, float64(snap.Shed[class]))
	}

	return p.Err()
}

// writeHistogram emits one labelled histogram series: cumulative buckets
// (LE 0 renders as +Inf), then _sum and _count.
func writeHistogram(p *obs.PromWriter, name string, label obs.Label, h HistogramView) {
	for _, b := range h.Buckets {
		le := "+Inf"
		if b.LE != 0 {
			le = obs.FormatLE(b.LE)
		}
		p.Sample(name+"_bucket",
			[]obs.Label{label, {Name: "le", Value: le}},
			float64(b.Cumulative))
	}
	p.Sample(name+"_sum", []obs.Label{label}, h.SumSeconds)
	p.Sample(name+"_count", []obs.Label{label}, float64(h.Count))
}

// sortedKeys returns the map's keys in ascending order for deterministic
// exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// splitRequestKey splits a "METHOD /route class" requests counter key into
// its route and status-class parts.
func splitRequestKey(key string) (route, class string) {
	i := strings.LastIndexByte(key, ' ')
	if i < 0 {
		return key, ""
	}
	return key[:i], key[i+1:]
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
