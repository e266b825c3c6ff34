// Package server exposes the permine miners as a long-running HTTP/JSON
// service: asynchronous mining jobs on a bounded worker pool with
// cooperative cancellation and per-level progress, an LRU result cache
// keyed by sequence content and mining parameters, synchronous pattern
// queries, and a hand-rolled metrics endpoint. cmd/permined is the daemon
// wrapping it.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a mining job (JSON, or raw FASTA body
//	                            with parameters in the query string); params
//	                            top_k and motif select top-K / targeted
//	                            query jobs served by internal/query
//	GET    /v1/jobs             list retained jobs, newest first
//	GET    /v1/jobs/{id}        job state, per-level progress, result when done
//	GET    /v1/jobs/{id}/events per-level progress as Server-Sent Events
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/corpus           submit a sharded multi-FASTA corpus job
//	GET    /v1/corpus           list retained corpus jobs, newest first
//	GET    /v1/corpus/{id}      corpus state, per-shard detail, merged result
//	GET    /v1/corpus/{id}/events per-shard completions and retries as SSE
//	DELETE /v1/corpus/{id}      cancel a running corpus job
//	POST   /v1/query            synchronous pattern support/occurrences on small inputs
//	GET    /v1/metrics          job/cache/request/latency counters (JSON)
//	GET    /metrics             the same counters in Prometheus text format
//	GET    /v1/traces           recent trace summaries
//	GET    /v1/traces/{id}      every retained span of one trace
//	GET    /healthz             liveness + version (always 200 while the process serves)
//	GET    /readyz              readiness: 503 while draining, store-degraded,
//	                            or the cluster peer set is unresolved
//	POST   /v1/cluster/heartbeat framed ping→pong health probe (cluster peers)
//	POST   /v1/cluster/mine     execute one forwarded shard or job (cluster peers)
//	GET    /v1/cluster/metrics  federated Prometheus exposition: this node plus
//	                            every scrapeable peer, one node label per sample
//	                            (coordinator only)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"permine/internal/cluster"
	"permine/internal/combinat"
	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/obs"
	"permine/internal/pattern"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// Config configures a Server. Zero values take the documented defaults:
// withDefaults resolves every setting in this one place, and New hands
// the resolved values to the job manager, the corpus engine, the
// journal, the cluster, the governor and the span ring.
type Config struct {
	// Version is reported by /healthz (permine.Version in cmd/permined).
	Version string
	// Workers is the number of concurrent mining workers (default 2).
	Workers int
	// QueueDepth bounds the shard attempts waiting for a worker (default
	// 64); a submit whose first shard does not fit is refused with 429.
	QueueDepth int
	// JobTimeout is the default deadline of a /v1/jobs job, counted from
	// its first attempt (default 5m; negative disables it).
	JobTimeout time.Duration
	// MaxTimeout clamps client-supplied per-job timeouts (default: the
	// effective JobTimeout). When a negative JobTimeout disables the
	// default deadline, client timeouts have no ceiling.
	MaxTimeout time.Duration
	// Retain bounds the finished jobs kept queryable, in memory and in the
	// journal across compactions (default 1024); the oldest go first.
	Retain int
	// CacheSize bounds the result cache in entries (default 128;
	// negative disables caching).
	CacheSize int
	// MaxBodyBytes bounds request bodies via http.MaxBytesReader (default
	// 64 MiB); oversized uploads get 413 instead of exhausting memory.
	MaxBodyBytes int64
	// MemBudget is the default per-job memory budget in bytes applied to
	// submits that carry none (0 means unlimited — jobs run unbudgeted
	// unless they ask). An over-budget run lands in the resource_exhausted terminal
	// state with its completed levels as a partial result.
	MemBudget int64
	// MemGlobal is the process-wide mining-memory ceiling in bytes shared
	// across workers (0, or negative, = unlimited, accounting only).
	// Nearing it triggers brownout; reaching it sheds all new mining with
	// 429 + Retry-After.
	MemGlobal int64
	// BrownoutPct is the percentage of MemGlobal at which the governor
	// starts shedding expensive job classes (corpus, enumerate) before
	// cheap ones (default 85; values outside 1..100 take it too).
	BrownoutPct int
	// DataDir, when non-empty, enables the disk-backed job store: job
	// transitions are journaled there and replayed on the next boot
	// (interrupted jobs are re-executed). Empty keeps everything in
	// memory.
	DataDir string
	// RetryBudget bounds both a shard's executions under transient
	// failures and a job's re-executions after crashes (default 3).
	RetryBudget int
	// RetryBackoff is the delay before a shard's first retry or a
	// recovered job's first re-execution, doubling per attempt and
	// jittered into [d/2, d) (default 500ms).
	RetryBackoff time.Duration
	// ShardTimeout is the per-attempt deadline of a /v1/corpus shard
	// (default 2m; negative disables it).
	ShardTimeout time.Duration
	// ShardFault, when non-nil, injects deterministic shard faults into
	// every attempt (tests).
	ShardFault corpus.Injector
	// CorpusMaxInflight bounds how many shards of one job occupy the
	// worker pool at once (default 2×Workers).
	CorpusMaxInflight int
	// TraceSpans bounds the in-memory span ring behind /v1/traces
	// (default 4096).
	TraceSpans int
	// TraceSample is the head-sampling rate for traces in (0,1]: the
	// decision is made once per trace at root-span creation, and
	// sampled-out requests produce no spans at zero allocation. 0 means
	// the default (sample everything); negative disables tracing.
	TraceSample float64
	// SLOTargetP99 is the p99 request-latency objective the permine_slo_*
	// counters measure against (default 250ms): every non-streaming
	// request counts toward permine_slo_requests_total, and those slower
	// than the target also increment permine_slo_breaches_total.
	SLOTargetP99 time.Duration
	// ClusterRole selects the node's cluster mode: "" runs standalone,
	// "coordinator" places jobs and shards across ClusterPeers, "peer"
	// only serves the cluster RPC endpoints (which every role exposes).
	ClusterRole string
	// ClusterPeers are the peer base URLs a coordinator heartbeats and
	// forwards to. ClusterSelf is this node's own advertised base URL,
	// journaled on local placements.
	ClusterPeers []string
	ClusterSelf  string
	// ClusterHeartbeat, ClusterSuspectAfter and ClusterDeadAfter tune
	// the health checker (see cluster.Config; defaults 1s / 2 / 4, and a
	// ClusterDeadAfter below ClusterSuspectAfter is raised to it).
	ClusterHeartbeat    time.Duration
	ClusterSuspectAfter int
	ClusterDeadAfter    int
	// ClusterTransport overrides the peer HTTP client (tests inject
	// clustertest.Faults here).
	ClusterTransport cluster.Doer
	// ShardDelay stretches every local mining run by a fixed sleep (the
	// -shard-delay debug knob; cluster chaos tests use it to hold shards
	// in flight long enough to kill the node under them).
	ShardDelay time.Duration
	// Logger receives structured request and job logs (default
	// slog.Default()).
	Logger *slog.Logger
}

// maxSyncSeqLen bounds the sequence length /v1/query accepts; longer
// inputs must go through a job.
const maxSyncSeqLen = 1 << 20

// Defaults returns the settings a zero Config resolves to, except the
// two that follow another setting: MaxTimeout (JobTimeout) and
// CorpusMaxInflight (2×Workers) stay 0 so that they still follow it.
// cmd/permined binds its flags over it.
func Defaults() Config {
	c := Config{}.withDefaults()
	c.MaxTimeout, c.CorpusMaxInflight = 0, 0
	return c
}

// withDefaults resolves every setting, the one place a default is
// written: a zero value (or a non-positive one, where negative means
// nothing else) takes its default, and the two derived settings follow
// theirs.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = c.JobTimeout
	}
	if c.Retain <= 0 {
		c.Retain = 1024
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MemGlobal < 0 {
		c.MemGlobal = 0
	}
	if c.BrownoutPct <= 0 || c.BrownoutPct > 100 {
		c.BrownoutPct = 85
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 500 * time.Millisecond
	}
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	if c.CorpusMaxInflight <= 0 {
		c.CorpusMaxInflight = 2 * c.Workers
	}
	if c.TraceSpans <= 0 {
		c.TraceSpans = 4096
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.SLOTargetP99 <= 0 {
		c.SLOTargetP99 = 250 * time.Millisecond
	}
	if c.ClusterHeartbeat <= 0 {
		c.ClusterHeartbeat = time.Second
	}
	if c.ClusterSuspectAfter <= 0 {
		c.ClusterSuspectAfter = 2
	}
	if c.ClusterDeadAfter <= 0 {
		c.ClusterDeadAfter = 4
	}
	if c.ClusterDeadAfter < c.ClusterSuspectAfter {
		c.ClusterDeadAfter = c.ClusterSuspectAfter
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server ties the job manager, store, cache, metrics, tracing and event
// streaming behind an http.Handler.
type Server struct {
	cfg     Config
	cache   *Cache
	metrics *Metrics
	mgr     *Manager
	st      store.Store
	tracer  *obs.Tracer
	ring    *obs.Ring
	events  *Broadcaster
	handler http.Handler
	started time.Time

	// governor is the process-wide memory budget shared by every mining
	// unit; its pressure rides heartbeat pongs and /metrics.
	governor *Governor

	// clu is non-nil on coordinators; nodeID identifies this daemon in
	// heartbeat pongs; draining flips at Shutdown and turns /readyz 503.
	clu      *cluster.Cluster
	nodeID   string
	draining atomic.Bool
}

// New builds a Server and starts its worker pool. With Config.DataDir set
// it opens (or falls back from) the journal and restores recovered jobs
// before returning, so the handler never serves a partially restored
// state. An unopenable journal degrades to memory-only instead of failing:
// the condition is visible on /healthz and /v1/metrics.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	nodeID := newNodeID()
	cache := NewCache(cfg.CacheSize)
	governor := NewGovernor(cfg.MemGlobal, cfg.BrownoutPct)
	metrics := NewMetrics(nil)
	metrics.SetSLOTarget(cfg.SLOTargetP99)
	metrics.governorFn = governor.Stats
	ring := obs.NewRing(cfg.TraceSpans)
	tracer := obs.NewTracer(ring, &obs.SlogExporter{Logger: cfg.Logger, Level: slog.LevelDebug})
	// Every span this node creates carries its identity, so a federated
	// trace tree tells the nodes apart without consulting membership.
	tracer.SetBaseAttrs(obs.KV("node", nodeID))
	tracer.SetSampleRate(cfg.TraceSample)
	events := NewBroadcaster()

	var st store.Store = store.NewMemory()
	if cfg.DataDir != "" {
		wal, err := store.Open(store.Options{
			Dir:            cfg.DataDir,
			RetainTerminal: cfg.Retain,
			Logger:         cfg.Logger,
		})
		if err != nil {
			cfg.Logger.Warn("job store unavailable; continuing memory-only (jobs will not survive restarts)",
				"data_dir", cfg.DataDir, "err", err)
			st = store.NewDegraded(err)
		} else {
			st = wal
		}
	}

	// Coordinators build the cluster before the manager (the manager's
	// config embeds it) but feed it the manager's queue depth through a
	// late-bound closure, resolving the construction cycle.
	var clu *cluster.Cluster
	var mgr *Manager
	if cfg.ClusterRole == "coordinator" && len(cfg.ClusterPeers) > 0 {
		clu = cluster.New(cluster.Config{
			Self:         cfg.ClusterSelf,
			Peers:        cfg.ClusterPeers,
			Heartbeat:    cfg.ClusterHeartbeat,
			SuspectAfter: cfg.ClusterSuspectAfter,
			DeadAfter:    cfg.ClusterDeadAfter,
			Transport:    cfg.ClusterTransport,
			SelfLoad: func() int {
				if mgr == nil {
					return 0
				}
				return mgr.QueueDepth()
			},
			SelfPressure: governor.Pressure,
			Logger:       cfg.Logger,
		})
	}

	mgr = NewManager(ManagerConfig{
		Config:   cfg,
		Cache:    cache,
		Governor: governor,
		Metrics:  metrics,
		Store:    st,
		Cluster:  clu,
		Tracer:   tracer,
		SpanSink: ring,
		Events:   events,
	})
	metrics.queueFn = mgr.QueueDepth
	metrics.storeFn = st.Stats
	metrics.sseFn = events.Stats
	if clu != nil {
		metrics.clusterFn = clu.Stats
	}
	if recs := st.Recovered(); len(recs) > 0 {
		sum := mgr.Restore(recs)
		cfg.Logger.Info("restored jobs from journal", "data_dir", cfg.DataDir,
			"terminal", sum.Terminal, "requeued", sum.Requeued,
			"retry_exhausted", sum.Exhausted, "skipped", sum.Skipped)
	}
	if clu != nil {
		// Heartbeats start only after Restore so requeue accounting for
		// departed nodes reads a settled membership.
		clu.Start()
	}
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		metrics:  metrics,
		mgr:      mgr,
		st:       st,
		tracer:   tracer,
		ring:     ring,
		events:   events,
		started:  time.Now(),
		governor: governor,
		clu:      clu,
		nodeID:   nodeID,
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/corpus", s.handleCorpusSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList(kindJob, "jobs"))
	mux.HandleFunc("GET /v1/corpus", s.handleList(kindCorpus, "corpus"))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet(kindJob))
	mux.HandleFunc("GET /v1/corpus/{id}", s.handleGet(kindCorpus))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents(kindJob))
	mux.HandleFunc("GET /v1/corpus/{id}/events", s.handleEvents(kindCorpus))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel(kindJob))
	mux.HandleFunc("DELETE /v1/corpus/{id}", s.handleCancel(kindCorpus))
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/cluster/heartbeat", s.handleClusterHeartbeat)
	mux.HandleFunc("POST /v1/cluster/mine", s.handleClusterMine)
	mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	s.handler = s.logging(mux)
	return s
}

// Traces exposes the span ring (tests and embedding daemons).
func (s *Server) Traces() *obs.Ring { return s.ring }

// Handler returns the root handler (request logging + routing).
func (s *Server) Handler() http.Handler { return s.handler }

// Manager exposes the job manager (tests and progress streaming hooks).
func (s *Server) Manager() *Manager { return s.mgr }

// Store exposes the job store (tests and health probes).
func (s *Server) Store() store.Store { return s.st }

// Shutdown flips /readyz to 503, drains the job manager (cancelling any
// cluster-forwarded runs, whose subscribers get "shutdown" events), stops
// the cluster heartbeats, closes every event stream, then closes the
// journal (drain-time terminal transitions are journaled first; appends
// after the close are no-ops).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.mgr.Shutdown(ctx)
	if s.clu != nil {
		s.clu.Stop()
	}
	s.events.Close()
	if cerr := s.st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// statusWriter captures the response code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so SSE streams flush through the
// middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logging is the structured-request-log + request-metrics + tracing
// middleware: every request runs inside a root span whose trace id is the
// (sanitised) X-Request-Id, generated when the client sent none, and
// echoed back on the response.
func (s *Server) logging(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		route := routeLabel(mux, r)
		traceID := requestID(r.Header.Get("X-Request-Id"))
		sw.Header().Set("X-Request-Id", traceID)
		ctx, span := s.tracer.StartRoot(r.Context(), traceID, "http.request",
			obs.KV("method", r.Method), obs.KV("path", r.URL.Path), obs.KV("route", route))
		mux.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		span.SetAttr("status", sw.status)
		span.End()
		elapsed := time.Since(start)
		s.metrics.ObserveRequest(route, sw.status, elapsed)
		s.cfg.Logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.status,
			"bytes", sw.bytes,
			"elapsed", elapsed,
			"remote", r.RemoteAddr,
			"trace_id", traceID,
		)
	})
}

// requestID sanitises a client-supplied X-Request-Id into a usable trace
// id, generating a fresh one when the header is missing or hostile
// (overlong or holding characters that could break log lines or headers).
func requestID(id string) string {
	if id == "" || len(id) > 64 {
		return obs.NewTraceID()
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return obs.NewTraceID()
		}
	}
	return id
}

// routeLabel is the pattern the mux routes the request to, so metrics
// stay bounded in cardinality: ids collapse into the pattern's {id}, a
// HEAD counts under its GET route, and a request no route takes — a
// scanner probing random URLs, a wrong method — counts as "other"
// instead of minting one counter per probe.
func routeLabel(mux *http.ServeMux, r *http.Request) string {
	if _, pattern := mux.Handler(r); pattern != "" {
		return pattern
	}
	return "other"
}

// rejectBusy writes the 429 rejection shared by queue-full and
// governor-shed submits: a Retry-After header derived from queue depth and
// retry backoff, so well-behaved clients back off instead of hammering.
// Draining and degraded-store rejections stay 503 — shed means "try again
// here soon", shutdown means "go elsewhere".
func (s *Server) rejectBusy(w http.ResponseWriter, err error) {
	secs := int(s.mgr.RetryAfterHint() / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	apiError(w, http.StatusTooManyRequests, "%v; retry after %ds", err, secs)
}

// apiError writes a JSON error body with the given status.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// paramsJSON is the wire form of core.Params. MinSupport is the ratio ρs
// (0.003% = 0.00003), matching the library, not the CLI's percent flag.
type paramsJSON struct {
	GapMin          int     `json:"gap_min"`
	GapMax          int     `json:"gap_max"`
	MinSupport      float64 `json:"min_support"`
	MaxLen          int     `json:"max_len,omitempty"`
	EmOrder         int     `json:"em_order,omitempty"`
	StartLen        int     `json:"start_len,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	CandidateBudget int64   `json:"candidate_budget,omitempty"`
	// MemoryBudget caps the run's retained PIL bytes; an over-budget run
	// terminates as resource_exhausted with completed-levels partial
	// results. 0 takes the daemon default (-mem-budget; unlimited if unset).
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// TopK and Motif select the interactive query kinds served by
	// internal/query: the K best patterns by support ratio, and/or only
	// patterns containing the motif.
	TopK  int    `json:"top_k,omitempty"`
	Motif string `json:"motif,omitempty"`
}

func (p paramsJSON) toParams() core.Params {
	return core.Params{
		Gap:             combinat.Gap{N: p.GapMin, M: p.GapMax},
		MinSupport:      p.MinSupport,
		MaxLen:          p.MaxLen,
		EmOrder:         p.EmOrder,
		StartLen:        p.StartLen,
		Workers:         p.Workers,
		CandidateBudget: p.CandidateBudget,
		MemoryBudget:    p.MemoryBudget,
		TopK:            p.TopK,
		Motif:           p.Motif,
	}
}

// seqJSON is an inline sequence: data over a named alphabet ("dna",
// "protein", or a custom symbol string).
type seqJSON struct {
	Alphabet string `json:"alphabet,omitempty"`
	Name     string `json:"name,omitempty"`
	Data     string `json:"data"`
}

// jobRequest is the JSON body of POST /v1/jobs. Exactly one of Sequence
// and FASTA must be set.
type jobRequest struct {
	Algorithm string     `json:"algorithm"`
	Params    paramsJSON `json:"params"`
	Sequence  *seqJSON   `json:"sequence,omitempty"`
	FASTA     string     `json:"fasta,omitempty"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`

	// fastaAlphabet carries the ?alphabet= query parameter of a raw
	// FASTA upload to sequenceFrom.
	fastaAlphabet string
}

// resolveAlphabet maps an alphabet name to a *seq.Alphabet; empty means DNA.
func resolveAlphabet(name string) (*seq.Alphabet, error) {
	switch strings.ToLower(name) {
	case "", "dna":
		return seq.DNA, nil
	case "protein":
		return seq.Protein, nil
	default:
		return seq.NewAlphabet("custom", name)
	}
}

// sequenceFrom materialises the subject sequence of a request: inline
// data, or the first record of a FASTA payload.
func sequenceFrom(inline *seqJSON, fasta, alphabet string) (*seq.Sequence, error) {
	switch {
	case inline != nil && fasta != "":
		return nil, errors.New("provide either sequence or fasta, not both")
	case inline != nil:
		name := inline.Name
		if name == "" {
			name = "inline"
		}
		alphaName := inline.Alphabet
		if alphaName == "" {
			alphaName = alphabet
		}
		alpha, err := resolveAlphabet(alphaName)
		if err != nil {
			return nil, err
		}
		if alpha == seq.DNA {
			return seq.NewDNA(name, inline.Data)
		}
		return seq.New(alpha, name, inline.Data)
	case fasta != "":
		alpha, err := resolveAlphabet(alphabet)
		if err != nil {
			return nil, err
		}
		records, err := seq.ReadFASTA(strings.NewReader(fasta), alpha)
		if err != nil {
			return nil, err
		}
		if len(records) == 0 {
			return nil, errors.New("fasta payload holds no records")
		}
		if len(records) > 1 {
			return nil, fmt.Errorf("fasta payload holds %d records; submit one job per sequence", len(records))
		}
		return records[0], nil
	default:
		return nil, errors.New("missing sequence: provide sequence {alphabet,name,data} or fasta")
	}
}

// decodeJobRequest parses POST /v1/jobs: a JSON body, or a raw FASTA body
// (Content-Type text/x-fasta or text/plain) with mining parameters in the
// query string.
func decodeJobRequest(r *http.Request) (jobRequest, error) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "text/x-fasta" || ct == "text/plain" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return jobRequest{}, fmt.Errorf("reading FASTA body: %w", err)
		}
		return jobRequestFromQuery(r, string(body))
	}
	var req jobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return jobRequest{}, fmt.Errorf("decoding JSON body: %w", err)
	}
	return req, nil
}

// jobRequestFromQuery builds a jobRequest for a raw FASTA upload from URL
// query parameters (algorithm, gap_min, gap_max, min_support, ...).
func jobRequestFromQuery(r *http.Request, fasta string) (jobRequest, error) {
	q := r.URL.Query()
	req := jobRequest{Algorithm: q.Get("algorithm"), FASTA: fasta}
	var err error
	geti := func(key string, dst *int) {
		if err != nil || !q.Has(key) {
			return
		}
		var v int
		if v, err = strconv.Atoi(q.Get(key)); err != nil {
			err = fmt.Errorf("query parameter %s: %w", key, err)
			return
		}
		*dst = v
	}
	geti("gap_min", &req.Params.GapMin)
	geti("gap_max", &req.Params.GapMax)
	geti("max_len", &req.Params.MaxLen)
	geti("em_order", &req.Params.EmOrder)
	geti("start_len", &req.Params.StartLen)
	geti("workers", &req.Params.Workers)
	geti("top_k", &req.Params.TopK)
	req.Params.Motif = q.Get("motif")
	if q.Has("min_support") {
		if req.Params.MinSupport, err = strconv.ParseFloat(q.Get("min_support"), 64); err != nil {
			return req, fmt.Errorf("query parameter min_support: %w", err)
		}
	}
	if q.Has("candidate_budget") {
		if req.Params.CandidateBudget, err = strconv.ParseInt(q.Get("candidate_budget"), 10, 64); err != nil {
			return req, fmt.Errorf("query parameter candidate_budget: %w", err)
		}
	}
	if q.Has("memory_budget") {
		if req.Params.MemoryBudget, err = strconv.ParseInt(q.Get("memory_budget"), 10, 64); err != nil {
			return req, fmt.Errorf("query parameter memory_budget: %w", err)
		}
	}
	if q.Has("timeout_ms") {
		if req.TimeoutMS, err = strconv.ParseInt(q.Get("timeout_ms"), 10, 64); err != nil {
			return req, fmt.Errorf("query parameter timeout_ms: %w", err)
		}
	}
	if err != nil {
		return req, err
	}
	if a := q.Get("alphabet"); a != "" {
		// carried through sequenceFrom via the request's alphabet field
		req.Sequence = nil
		req.fastaAlphabet = a
	}
	return req, nil
}

// submitArgs validates what both submit endpoints share: the algorithm
// (default mppm), the mining parameters, and the timeout, clamped to
// MaxTimeout.
func (s *Server) submitArgs(algorithm string, pj paramsJSON, timeoutMS int64) (core.Algorithm, core.Params, time.Duration, error) {
	if algorithm == "" {
		algorithm = "mppm"
	}
	algo, err := core.ParseAlgorithm(strings.ToLower(algorithm))
	if err != nil {
		return algo, core.Params{}, 0, err
	}
	params := pj.toParams()
	if _, err := params.Normalize(); err != nil {
		return algo, params, 0, fmt.Errorf("invalid params: %w", err)
	}
	timeout := time.Duration(timeoutMS) * time.Millisecond
	if timeout < 0 {
		return algo, params, 0, errors.New("timeout_ms must be >= 0")
	}
	if s.cfg.MaxTimeout > 0 && timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return algo, params, timeout, nil
}

// submitFailed answers a refused submit, reporting whether it was one:
// backpressure (a full queue or governor shed) is 429 with a Retry-After
// hint so clients can tell shed from drain, which stays 503.
func (s *Server) submitFailed(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
		s.rejectBusy(w, err)
	case errors.Is(err, ErrShuttingDown):
		apiError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		apiError(w, http.StatusBadRequest, "%v", err)
	}
	return true
}

// handleSubmit implements POST /v1/jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(r)
	if err != nil {
		if tooLarge(w, err) {
			return
		}
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	algo, params, timeout, err := s.submitArgs(req.Algorithm, req.Params, req.TimeoutMS)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	subject, err := sequenceFrom(req.Sequence, req.FASTA, req.fastaAlphabet)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.mgr.Submit(r.Context(), subject, algo, params, timeout)
	if s.submitFailed(w, err) {
		return
	}
	// The response is the job as accepted, not its live state: a free
	// worker may already be running (or have finished) a fresh job, and
	// only a cache hit is answered 200 with its result inline.
	view := jobView(job.Accepted())
	status := http.StatusAccepted
	if view.CacheHit {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

// view renders a job in its endpoint's view.
func view(j *corpus.Job) any {
	if isCorpus(j) {
		return corpusViewOf(j)
	}
	return jobView(j.Snapshot())
}

// job resolves the request's job of the endpoint's kind, answering 404
// in that endpoint's words for an unknown id or another endpoint's job.
func (s *Server) job(w http.ResponseWriter, r *http.Request, kind string) (*corpus.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.mgr.Get(id)
	if !ok || j.Kind() != kind {
		apiError(w, http.StatusNotFound, "%s %q not found", kind, id)
		return nil, false
	}
	return j, true
}

// handleList implements GET /v1/jobs and GET /v1/corpus: the endpoint's
// retained jobs, newest first, under key (corpus entries without shards
// or result).
func (s *Server) handleList(kind, key string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		views := []any{}
		for _, j := range s.mgr.Jobs() {
			switch {
			case j.Kind() != kind:
			case kind == kindCorpus:
				v := corpusView(j.Snapshot())
				v.Shards = nil
				views = append(views, v)
			default:
				views = append(views, jobView(j.Snapshot()))
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{key: views})
	}
}

// handleGet implements GET /v1/jobs/{id} and GET /v1/corpus/{id}.
func (s *Server) handleGet(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if j, ok := s.job(w, r, kind); ok {
			writeJSON(w, http.StatusOK, view(j))
		}
	}
}

// handleCancel implements DELETE /v1/jobs/{id} and DELETE /v1/corpus/{id}.
func (s *Server) handleCancel(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(w, r, kind)
		if !ok {
			return
		}
		if _, err := s.mgr.Cancel(j.ID()); errors.Is(err, ErrJobFinished) {
			apiError(w, http.StatusConflict, "%s %q already %s", kind, j.ID(), j.State())
			return
		}
		writeJSON(w, http.StatusOK, view(j))
	}
}

// queryRequest is the JSON body of POST /v1/query: a synchronous support /
// occurrence computation for one pattern on a small sequence.
type queryRequest struct {
	// Pattern uses the paper's notation: shorthand ("ATC"), wild-card
	// dots ("A..T"), explicit gaps ("Ag(9,12)T"), freely mixed.
	Pattern  string   `json:"pattern"`
	GapMin   int      `json:"gap_min"`
	GapMax   int      `json:"gap_max"`
	Sequence *seqJSON `json:"sequence,omitempty"`
	FASTA    string   `json:"fasta,omitempty"`
	// Limit bounds returned occurrences (default 10; supports can be
	// astronomically large).
	Limit int `json:"limit,omitempty"`
}

// handleQuery implements POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if tooLarge(w, err) {
			return
		}
		apiError(w, http.StatusBadRequest, "decoding JSON body: %v", err)
		return
	}
	if req.Pattern == "" {
		apiError(w, http.StatusBadRequest, "missing pattern")
		return
	}
	subject, err := sequenceFrom(req.Sequence, req.FASTA, "")
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if subject.Len() > maxSyncSeqLen {
		apiError(w, http.StatusRequestEntityTooLarge,
			"sequence length %d exceeds the synchronous limit %d; submit a job instead",
			subject.Len(), maxSyncSeqLen)
		return
	}
	gap := combinat.Gap{N: req.GapMin, M: req.GapMax}
	if err := gap.Validate(); err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pat, err := pattern.Parse(req.Pattern, gap)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sup, err := pattern.Support(subject, pat)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = 10
	}
	occ, err := pattern.Occurrences(subject, pat, limit)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"pattern":     pat.String(),
		"sequence":    subject.Name(),
		"support":     sup,
		"occurrences": occ,
		"truncated":   int64(len(occ)) < sup,
	})
}

// handleMetrics implements GET /v1/metrics (JSON).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.cache))
}

// handlePrometheus implements GET /metrics: the same snapshot in
// Prometheus text exposition format for scrapers.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := writePrometheus(w, s.metrics.Snapshot(s.cache)); err != nil {
		s.cfg.Logger.Warn("writing /metrics", "err", err)
	}
}

// handleTraces implements GET /v1/traces: recent trace summaries, newest
// first, capped by ?limit= (default 50).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			apiError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.ring.Traces(limit)})
}

// handleTrace implements GET /v1/traces/{id}: every retained span of one
// trace, ordered by start time.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := s.ring.Trace(id)
	if len(spans) == 0 {
		apiError(w, http.StatusNotFound, "trace %q not found (or evicted from the span ring)", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace_id": id, "spans": spans})
}

// writeSSE frames one event in text/event-stream format; the data line is
// the Event as JSON (type, job, seq, payload).
func writeSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}

// handleEvents implements GET /v1/jobs/{id}/events and GET
// /v1/corpus/{id}/events: a job's progress as Server-Sent Events — its
// levels ("level") for a /v1/jobs job, its shard completions ("shard")
// and retries ("retry") for a corpus — then "end" once terminal. Events
// that happened before the client connected are replayed from the job's
// snapshot. A daemon shutdown sends a final "shutdown" event instead.
func (s *Server) handleEvents(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(w, r, kind)
		if !ok {
			return
		}
		s.streamEvents(w, r, j.ID(), func() []Event {
			v := j.Snapshot()
			var evs []Event
			if isCorpus(j) {
				for _, sv := range v.Shards {
					if sv.State.Terminal() {
						evs = append(evs, Event{Type: "shard", Job: v.ID, Seq: sv.Index + 1, Data: sv})
					}
				}
			} else {
				for i, lm := range v.Shards[0].Levels {
					evs = append(evs, Event{Type: "level", Job: v.ID, Seq: i + 1, Data: lm})
				}
			}
			if v.State.Terminal() {
				evs = append(evs, endEvent(j, v, "end"))
			}
			return evs
		})
	}
}

// streamEvents is the one replay-then-stream loop behind every SSE
// endpoint. It subscribes before calling replay, so the hand-off from the
// snapshot to the live feed is lossless; writes the replayed events; then
// streams live events until one ends the stream ("end" or "shutdown"),
// the subscription is dropped (lagging or shutdown; the client reconnects
// and replays) or the client disconnects. A live event whose type and seq
// were already replayed is a duplicate and is skipped.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, id string, replay func() []Event) {
	fl, ok := w.(http.Flusher)
	if !ok {
		apiError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	sub := s.events.Subscribe(id)
	defer sub.Close()
	evs := replay()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	type key struct {
		typ string
		seq int
	}
	replayed := make(map[key]bool, len(evs))
	for _, ev := range evs {
		if writeSSE(w, ev) != nil {
			return
		}
		replayed[key{ev.Type, ev.Seq}] = true
	}
	fl.Flush()
	if n := len(evs); n > 0 && evs[n-1].endsStream() {
		return
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.C:
			if !open {
				return
			}
			if replayed[key{ev.Type, ev.Seq}] {
				continue
			}
			if writeSSE(w, ev) != nil {
				return
			}
			fl.Flush()
			if ev.endsStream() {
				return
			}
		}
	}
}

// handleHealthz implements GET /healthz. A degraded job store (journal
// given up, jobs no longer durable) keeps the daemon serving but flips the
// reported status so probes and operators see the condition.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.st.Stats()
	status := "ok"
	if st.Degraded {
		status = "degraded"
	}
	body := map[string]any{
		"status":         status,
		"version":        s.cfg.Version,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"node":           s.nodeID,
		"store": map[string]any{
			"backend":  st.Backend,
			"degraded": st.Degraded,
			"reason":   st.DegradedReason,
		},
	}
	if s.clu != nil {
		body["cluster"] = s.clu.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}
