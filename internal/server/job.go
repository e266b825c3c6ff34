package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"permine/internal/cluster"
	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/obs"
	"permine/internal/query"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// Every job runs on the internal/corpus engine: a /v1/jobs job is a job
// of one shard, a /v1/corpus job has one shard per FASTA record. A job's
// kind names the endpoint that submitted it; the two differ only in data
// (id prefix, span names, default deadline, per-attempt deadline,
// admission class) and in their views. A peer job is a unit a cluster
// coordinator forwarded here: mined once, never re-placed, its events and
// journal left to the coordinator.
const (
	kindJob    = "job"
	kindCorpus = "corpus"
	kindPeer   = "peer"
)

// isCorpus reports whether the job was submitted to /v1/corpus.
func isCorpus(j *corpus.Job) bool { return j.Kind() == kindCorpus }

// JobView is the /v1/jobs representation of a job at one instant.
type JobView struct {
	ID         string              `json:"id"`
	State      corpus.State        `json:"state"`
	Algorithm  string              `json:"algorithm"`
	SeqName    string              `json:"sequence_name"`
	SeqLen     int                 `json:"sequence_len"`
	CacheHit   bool                `json:"cache_hit"`
	Attempts   int                 `json:"attempts,omitempty"`
	CreatedAt  time.Time           `json:"created_at"`
	StartedAt  *time.Time          `json:"started_at,omitempty"`
	FinishedAt *time.Time          `json:"finished_at,omitempty"`
	Progress   []core.LevelMetrics `json:"progress,omitempty"`
	Result     *core.Result        `json:"result,omitempty"`
	Error      string              `json:"error,omitempty"`
	Note       string              `json:"note,omitempty"`
	TraceID    string              `json:"trace_id,omitempty"`
}

// jobView renders a one-shard job for /v1/jobs: its shard's sequence,
// progress and result (terminal states only), and the shard's note while
// the job itself has none.
func jobView(v corpus.View) JobView {
	u := v.Shards[0]
	jv := JobView{
		ID: v.ID, State: v.State, Algorithm: v.Algorithm,
		SeqName: u.Name, SeqLen: u.SeqLen, CacheHit: u.CacheHit, Attempts: v.Attempts,
		CreatedAt: v.CreatedAt, StartedAt: v.StartedAt, FinishedAt: v.FinishedAt,
		Progress: u.Levels, Error: v.Error, Note: v.Note, TraceID: v.TraceID,
	}
	if jv.Note == "" {
		jv.Note = u.Note
	}
	if v.State.Terminal() {
		jv.Result = u.Result
	}
	return jv
}

// Errors returned by Manager.Submit and Manager.Cancel.
var (
	// ErrQueueFull rejects a submit when the job queue is at capacity
	// (admission control; clients should retry later).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrShuttingDown rejects a submit during graceful shutdown.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrJobNotFound reports an unknown job id.
	ErrJobNotFound = errors.New("server: job not found")
	// ErrJobFinished rejects cancelling a job already in a terminal state.
	ErrJobFinished = errors.New("server: job already finished")
)

// ManagerConfig configures a job Manager. Zero values take the documented
// defaults.
type ManagerConfig struct {
	// Workers is the number of concurrent mining workers (default 2).
	Workers int
	// QueueDepth bounds the number of shard attempts waiting for a worker
	// (default 64); a submit whose first shard does not fit fails with
	// ErrQueueFull.
	QueueDepth int
	// JobTimeout is the default deadline of a /v1/jobs job, counted from
	// its first attempt (default 5m; negative disables the default).
	JobTimeout time.Duration
	// Retain bounds how many finished jobs stay queryable (default 1024);
	// the oldest terminal jobs are evicted first.
	Retain int
	// Cache, when non-nil, answers submits whose key hits and stores
	// done results.
	Cache *Cache
	// Governor enforces the process-wide memory ceiling and the brownout
	// admission ladder (default: an unlimited governor that only tracks).
	Governor *Governor
	// MemBudget is the default per-job memory budget applied to submits
	// that carry none (0 everywhere means unlimited).
	MemBudget int64
	// DisableSubsumption turns off cross-threshold cache derivation:
	// with it set, only exact CacheKey hits are served from the cache.
	DisableSubsumption bool
	// Metrics, when non-nil, receives job-state transitions and mining
	// latencies.
	Metrics *Metrics
	// Store durably journals job transitions for crash recovery (default:
	// the no-op in-memory store). Submit returns only after the accepted
	// job is journaled, so an acknowledged job survives a crash.
	Store store.Store
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
	// CorpusMaxInflight bounds how many shards of one job occupy the
	// worker pool at once (default 2×Workers).
	CorpusMaxInflight int
	// ShardFault, when non-nil, injects deterministic shard faults into
	// every attempt (tests).
	ShardFault corpus.Injector
	// Cluster, when non-nil, places every shard across the peer ring by
	// cache identity; nil keeps every run local.
	Cluster *cluster.Cluster
	// ShardDelay stretches every local mining run by a fixed sleep (the
	// -shard-delay debug knob; cluster chaos tests use it to hold shards
	// in flight long enough to kill the node under them).
	ShardDelay time.Duration
	// Tracer, when non-nil, links every job's submit→queue→run→persist
	// spans (and, through the run context, internal/mine's per-level
	// spans) into the submitting request's trace.
	Tracer *obs.Tracer
	// SpanSink, when non-nil, receives finished spans piggybacked on
	// remote-mine replies (the server passes its trace ring), so forwarded
	// work's spans land in the coordinator's /v1/traces view.
	SpanSink obs.Exporter
	// Events, when non-nil, receives progress and terminal events for SSE
	// streaming.
	Events *Broadcaster
	// Logger defaults to slog.Default().
	Logger *slog.Logger
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.Retain <= 0 {
		c.Retain = 1024
	}
	if c.Store == nil {
		c.Store = store.NewMemory()
	}
	if c.Governor == nil {
		c.Governor = NewGovernor(0, 0)
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
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Manager runs mining jobs asynchronously on a bounded worker pool with
// cancellation, per-level progress, timeouts, a result cache, and graceful
// shutdown. Every shard attempt — of /v1/jobs and /v1/corpus jobs and of
// units forwarded by a cluster coordinator — is a task on the same pool.
type Manager struct {
	cfg        ManagerConfig
	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan func()
	stop       chan struct{} // closed by Shutdown: workers exit
	wg         sync.WaitGroup
	engine     *corpus.Engine

	mu     sync.Mutex
	jobs   map[string]*corpus.Job
	order  []string // creation order, for retention pruning
	nextID uint64
	// closed is set by Shutdown under mu; hooks read it without mu, which
	// they must not take while holding a job's lock.
	closed atomic.Bool

	// OnLevel, when set before any Submit, is invoked after every
	// completed mining level of every shard mined here, from the mining
	// goroutine. It exists for tests; it must not block for long — the
	// worker waits on it.
	OnLevel func(j *corpus.Job, lm core.LevelMetrics)
}

// NewManager starts a Manager and its worker pool.
func NewManager(cfg ManagerConfig) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan func(), cfg.QueueDepth),
		stop:       make(chan struct{}),
		jobs:       make(map[string]*corpus.Job),
	}
	m.engine = corpus.NewEngine(corpus.Config{
		RetryBudget:  cfg.RetryBudget,
		RetryBackoff: cfg.RetryBackoff,
		MaxInflight:  cfg.CorpusMaxInflight,
		Run:          m.runShard,
		Enqueue:      m.offer,
		Fault:        cfg.ShardFault,
		Tracer:       cfg.Tracer,
		Logger:       cfg.Logger,
		Hooks: corpus.Hooks{
			Start:      m.onStart,
			ShardEnd:   m.onShardEnd,
			ShardRetry: m.onShardRetry,
			JobEnd:     m.onJobEnd,
		},
	})
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// QueueDepth reports the number of shard attempts waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// RetryAfterHint estimates when a shed or queue-full submit is worth
// retrying: one retry backoff per queued attempt ahead of the client,
// clamped to [1s, 60s]. The HTTP layer sends it as the Retry-After header
// on every 429 rejection.
func (m *Manager) RetryAfterHint() time.Duration {
	d := time.Duration(m.QueueDepth()+1) * m.cfg.RetryBackoff
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// Governor exposes the memory governor (heartbeats, metrics, tests).
func (m *Manager) Governor() *Governor { return m.cfg.Governor }

// submission is what an endpoint's decoder hands the one submit path.
type submission struct {
	kind, prefix, span string // endpoint, id prefix, submit span name
	name               string
	seqs               []*seq.Sequence
	algo               core.Algorithm
	params             core.Params
	timeout            time.Duration
	class              string // admission class ("": admitted already)
}

// Submit registers a /v1/jobs job: one shard over s. On a cache hit the
// returned job is already done (its shard's CacheHit set); otherwise it
// is queued. timeout <= 0 uses the manager default. When rctx carries a
// tracing span (the HTTP request span), the job's submit/queue/run spans
// join its trace; context.Background() is fine otherwise — rctx does not
// govern the job's lifetime.
func (m *Manager) Submit(rctx context.Context, s *seq.Sequence, algo core.Algorithm, params core.Params, timeout time.Duration) (*corpus.Job, error) {
	if timeout <= 0 {
		timeout = m.cfg.JobTimeout
	}
	return m.submit(rctx, submission{
		kind: kindJob, prefix: "j", span: "job.submit", seqs: []*seq.Sequence{s},
		algo: algo, params: params, timeout: timeout, class: shedClass(algo),
	})
}

// SubmitCorpus registers a /v1/corpus job: one shard per sequence, mined
// with the same algorithm and parameters, each attempt bounded by the
// shard timeout. timeout > 0 bounds the whole job; on expiry it ends with
// the shards that finished in time.
func (m *Manager) SubmitCorpus(rctx context.Context, name string, seqs []*seq.Sequence, algo core.Algorithm, params core.Params, timeout time.Duration) (*corpus.Job, error) {
	// A corpus fans out into many shards: the most expensive admission
	// class is shed before its cache lookups, the first in brownout.
	if err := m.admit(shedClassCorpus); err != nil {
		return nil, err
	}
	return m.submit(rctx, submission{
		kind: kindCorpus, prefix: "c", span: "corpus.job", name: name, seqs: seqs,
		algo: algo, params: params, timeout: timeout,
	})
}

// submit is the one submit path: it accepts the job and counts it.
func (m *Manager) submit(rctx context.Context, sub submission) (*corpus.Job, error) {
	sctx, span := obs.Start(rctx, sub.span,
		obs.KV("algorithm", sub.algo.String()), obs.KV("shards", len(sub.seqs)))
	defer span.End()
	j, err := m.accept(sctx, sub)
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	span.SetAttr("job", j.ID())
	v := j.Accepted()
	m.transition(j, "", v.State)
	if v.State.Terminal() {
		span.SetAttr("cache_hit", true)
	}
	m.cfg.Logger.Info("job accepted", "job", j.ID(), "state", string(v.State),
		"algorithm", sub.algo.String(), "shards", len(sub.seqs))
	return j, nil
}

// accept validates a submission, looks every shard up in the result
// cache, and journals and registers the job: done at once when every
// shard is answered there, else admitted and started. Admission runs
// after the lookups on purpose: cached-derivable work keeps serving
// through brownout; only work that would charge new mining memory is
// shed. The manager lock covers only the id and the registration; the
// submit record is written from inside Engine.Start, before a worker can
// touch the job, so it precedes every later record of the job, and a
// submit the full queue refuses leaves no record.
func (m *Manager) accept(sctx context.Context, sub submission) (*corpus.Job, error) {
	if sub.params.MemoryBudget == 0 {
		sub.params.MemoryBudget = m.cfg.MemBudget
	}
	np, err := sub.params.Normalize()
	if err == nil && len(sub.seqs) > 0 {
		err = query.ValidateMotif(sub.seqs[0].Alphabet(), np.Motif)
	}
	if err != nil {
		return nil, err
	}
	answers := make([]*core.Result, len(sub.seqs))
	notes := make([]string, len(sub.seqs))
	pending := false
	for i, s := range sub.seqs {
		var ok bool
		if answers[i], notes[i], ok = m.lookup(s, sub.algo, np); !ok {
			pending = true
		}
	}
	if pending && sub.class != "" {
		if err := m.admit(sub.class); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	m.nextID++
	id := fmt.Sprintf("%s-%06d", sub.prefix, m.nextID)
	m.mu.Unlock()
	var queue *obs.Span
	if pending {
		_, queue = obs.Start(sctx, "job.queue", obs.KV("job", id))
	}
	j, err := m.newJob(sub.kind, corpus.Spec{
		ID: id, Name: sub.name, Algorithm: sub.algo, Params: np, Seqs: sub.seqs,
		Trace: obs.FromContext(sctx).Context(), Queue: queue, Timeout: sub.timeout,
	})
	if err != nil {
		queue.End()
		return nil, err
	}
	for i, res := range answers {
		if res != nil {
			j.AnswerShard(i, res, notes[i])
		}
	}
	journal := func(v corpus.View) { m.cfg.Store.AppendSubmit(record(j, v)) }
	if j.Finish() {
		journal(j.Accepted())
	} else if !m.engine.Start(j, journal) {
		m.engine.Interrupt(j)
		queue.RecordError(ErrQueueFull)
		queue.End()
		return nil, ErrQueueFull
	}
	m.mu.Lock()
	m.register(j)
	closed := m.closed.Load()
	m.mu.Unlock()
	if closed {
		m.drain(j) // Shutdown began after the id was taken
	}
	return j, nil
}

// newJob builds a job of the given kind under the manager's base
// context; the kind picks its attempt span and per-attempt deadline.
func (m *Manager) newJob(kind string, spec corpus.Spec) (*corpus.Job, error) {
	spec.Kind, spec.Span = kind, "job.run"
	if kind == kindCorpus {
		spec.Span, spec.ShardTimeout = "corpus.shard", m.cfg.ShardTimeout
	}
	spec.Ctx, spec.Cancel = context.WithCancel(m.baseCtx)
	j, err := corpus.NewJob(spec)
	if err != nil {
		spec.Cancel()
	}
	return j, err
}

// lookup answers one shard from the result cache: an exact hit, or —
// unless subsumption is off — a plain full mine cached at another
// threshold that query.FromCached proves identical to a fresh run. A
// derivation is stored under its exact key so the next identical query
// hits without re-filtering.
func (m *Manager) lookup(s *seq.Sequence, algo core.Algorithm, p core.Params) (*core.Result, string, bool) {
	if m.cfg.Cache == nil {
		return nil, "", false
	}
	var derive func(*core.Result) (*core.Result, bool)
	if !m.cfg.DisableSubsumption {
		derive = func(cached *core.Result) (*core.Result, bool) { return query.FromCached(cached, p) }
	}
	key := KeyFor(s, algo, p)
	res, subsumed, ok := m.cfg.Cache.Lookup(key, derive)
	if !ok || !subsumed {
		return res, "", ok
	}
	m.cfg.Cache.Put(key, res)
	return res, "derived from a cached result at another threshold (subsumption)", true
}

// register indexes the job and prunes old terminal jobs beyond the
// retention bound. Caller holds m.mu.
func (m *Manager) register(j *corpus.Job) {
	m.jobs[j.ID()] = j
	m.order = append(m.order, j.ID())
	if len(m.jobs) <= m.cfg.Retain {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		old, ok := m.jobs[id]
		if !ok {
			continue
		}
		if len(m.jobs) > m.cfg.Retain && old.State().Terminal() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*corpus.Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every retained job, newest first.
func (m *Manager) Jobs() []*corpus.Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*corpus.Job, 0, len(m.jobs))
	for i := len(m.order) - 1; i >= 0; i-- {
		if j, ok := m.jobs[m.order[i]]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel cancels a queued or running job. The job reads cancelled as
// soon as its outcome is journaled; running attempts observe the context
// at the next level or candidate-batch boundary and their output is
// discarded.
func (m *Manager) Cancel(id string) (*corpus.Job, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, ErrJobNotFound
	}
	if !m.engine.Cancel(j) {
		return j, ErrJobFinished
	}
	m.cfg.Logger.Info("job cancelled", "job", id)
	return j, nil
}

// worker runs pool tasks — shard attempts of every job — until Shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case task := <-m.queue:
			task()
		}
	}
}

// offer queues one task without blocking; false means the queue is full.
func (m *Manager) offer(task func()) bool {
	select {
	case m.queue <- task:
		return true
	default:
		return false
	}
}

// runShard is the one runner behind every shard attempt, a forwarded
// unit's included: it looks the shard up in the result cache (except on
// a job's first attempt, right after its submit looked), places it on
// the cluster ring, mines it here or on its peer, and caches a done
// result before the attempt settles — so a client that sees the job done
// and resubmits at once gets a hit.
func (m *Manager) runShard(ctx context.Context, j *corpus.Job, s *corpus.Shard) (*core.Result, error) {
	p := j.Params()
	if s.Attempts() > 1 || j.Attempts() > 0 {
		if res, _, ok := m.lookup(s.Seq(), j.Algorithm(), p); ok {
			return res, nil
		}
	}
	p.Progress = func(lm core.LevelMetrics) {
		n := j.AddLevel(s, lm)
		if j.Kind() == kindJob && m.cfg.Events != nil {
			m.cfg.Events.Publish(Event{Type: "level", Job: j.ID(), Seq: n, Data: lm})
		}
		if m.OnLevel != nil {
			m.OnLevel(j, lm)
		}
	}
	key := KeyFor(s.Seq(), j.Algorithm(), p)
	var res *core.Result
	var err error
	var pl cluster.Placement
	if c := m.cfg.Cluster; c != nil && j.Kind() != kindPeer {
		if pl = c.Place(key.ID.SeqHash[:]); pl.Node == "" {
			// A local placement is journaled too, so a restarted
			// coordinator can tell self-owned shards from orphans.
			m.cfg.Store.AppendAssign(j.ID(), store.AssignRecord{Shard: s.Index(), Node: c.Self(), At: time.Now()})
		}
	}
	if pl.Node != "" {
		res, err = m.forward(ctx, j, s, p, pl)
	} else {
		res, err = m.mineLocal(ctx, j.Algorithm(), s.Seq(), p)
	}
	if state, _, _ := corpus.Outcome(res, err); state == corpus.ShardDone && res != nil && m.cfg.Cache != nil {
		m.cfg.Cache.Put(key, res)
	}
	return res, err
}

// mineLocal is the one place this node mines, so each mine is counted
// once, on the node that ran it. It waits out the ShardDelay debug knob,
// charges the run to its own governor tracker (bounded by the run's
// memory budget, so one over-budget shard exhausts its own budget instead
// of the node's memory), mines through the query layer (plain, top-K and
// targeted jobs alike), counts each level's PIL joins as the level
// completes, and records the run's latency unless it was cancelled. The
// tracker is released before mineLocal returns, so a client that sees the
// job finish and resubmits is not shed for this run's bytes.
func (m *Manager) mineLocal(ctx context.Context, algo core.Algorithm, s *seq.Sequence, p core.Params) (*core.Result, error) {
	if d := m.cfg.ShardDelay; d > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
		}
	}
	tracker := m.cfg.Governor.Acquire()
	defer m.cfg.Governor.Release(tracker)
	p.Ctx, p.Mem = ctx, tracker
	metrics := m.cfg.Metrics
	if metrics != nil {
		progress := p.Progress
		p.Progress = func(lm core.LevelMetrics) {
			metrics.ObserveLevel(lm)
			if progress != nil {
				progress(lm)
			}
		}
	}
	start := time.Now()
	res, err := query.Mine(algo, s, p)
	if metrics != nil && !errors.Is(err, context.Canceled) {
		metrics.ObserveMining(algo.String(), time.Since(start))
	}
	return res, err
}

// onStart journals a job's move to running and counts it.
func (m *Manager) onStart(j *corpus.Job) {
	m.cfg.Store.AppendState(j.ID(), string(corpus.StateRunning), j.Attempts(), time.Now())
	m.transition(j, corpus.StateQueued, corpus.StateRunning)
}

// onShardRetry surfaces one scheduled retry: streamed as a "retry" SSE
// event, and for a corpus shard counted (with its backoff) in metrics.
func (m *Manager) onShardRetry(j *corpus.Job, s *corpus.Shard, attempt int, err error, delay time.Duration) {
	if isCorpus(j) && m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusRetry(delay)
	}
	m.cfg.Events.Publish(Event{Type: "retry", Job: j.ID(), Seq: s.Index() + 1, Data: map[string]any{
		"shard":      s.Index(),
		"attempt":    attempt,
		"error":      err.Error(),
		"backoff_ms": delay.Milliseconds(),
	}})
}

// onShardEnd checkpoints a corpus shard — the resume point a SIGKILL'd
// corpus restarts from; the engine holds the job until it returns, so a
// shard reads done only once checkpointed — counts its outcome and
// streams it as a "shard" event. A /v1/jobs job's only shard needs none
// of that: its job's outcome record and end event follow at once.
func (m *Manager) onShardEnd(_ context.Context, j *corpus.Job, s *corpus.Shard) {
	if !isCorpus(j) {
		return
	}
	sv := s.View()
	m.cfg.Store.AppendShard(j.ID(), checkpoint(sv))
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusShard(string(sv.State))
	}
	m.cfg.Events.Publish(Event{Type: "shard", Job: j.ID(), Seq: s.Index() + 1, Data: sv})
}

// onJobEnd is the one end-of-job publisher: it journals the outcome
// (inside the attempt's span when an attempt ended the job), counts the
// transition and ends the job's event streams. The engine holds the job
// until it returns, so a job reads terminal only once its outcome is
// durable and a restart never requeues a job a client saw finish.
func (m *Manager) onJobEnd(ctx context.Context, j *corpus.Job, v corpus.View) {
	out := store.Outcome{State: string(v.State), Note: v.Note, Error: v.Error, Result: resultJSON(j, v)}
	if v.FinishedAt != nil {
		out.FinishedAt = *v.FinishedAt
	}
	_, span := obs.Start(ctx, "job.persist", obs.KV("job", v.ID))
	m.cfg.Store.AppendOutcome(v.ID, out)
	span.End()
	from := corpus.StateQueued
	if v.StartedAt != nil {
		from = corpus.StateRunning
	}
	m.transition(j, from, v.State)
	typ := "end"
	if v.State == corpus.StateCancelled && m.closed.Load() {
		typ = "shutdown"
	}
	m.cfg.Events.EndJob(endEvent(j, v, typ))
}

// endEvent renders a job's final event — "end", or "shutdown" for a job
// the daemon's drain interrupted — in its endpoint's view: the result
// stripped (it can be megabytes; stream clients fetch it with
// GET), and Seq the count of progress events before it, so subscribers
// can tell a complete stream from a truncated one.
func endEvent(j *corpus.Job, v corpus.View, typ string) Event {
	if isCorpus(j) {
		cv := corpusView(v)
		cv.Result, cv.Shards = nil, nil
		return Event{Type: typ, Job: v.ID, Seq: v.ShardsDone + v.ShardsFailed, Data: cv}
	}
	jv := jobView(v)
	seq := len(jv.Progress)
	jv.Result, jv.Progress = nil, nil
	return Event{Type: typ, Job: v.ID, Seq: seq, Data: jv}
}

// resultJSON renders a terminal job's result for its outcome record: the
// merged result of a corpus, the shard's own result of a /v1/jobs job.
func resultJSON(j *corpus.Job, v corpus.View) json.RawMessage {
	var res any
	switch {
	case !v.State.Terminal():
		return nil
	case isCorpus(j):
		res = v.Merge()
	case v.Shards[0].Result != nil:
		res = v.Shards[0].Result
	default:
		return nil
	}
	b, _ := json.Marshal(res)
	return b
}

// transition forwards a state change to the job's metric family.
func (m *Manager) transition(j *corpus.Job, from, to corpus.State) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.JobTransition(isCorpus(j), from, to)
	}
}

// Shutdown stops accepting jobs, drains the queued and running ones, and
// waits (up to ctx) for the workers to finish.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed.Swap(true) {
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	for _, j := range m.Jobs() {
		m.drain(j)
	}
	close(m.stop)
	m.baseCancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown timed out: %w", ctx.Err())
	}
}

// drain ends a job's run for the daemon's shutdown, its stream closing
// with a "shutdown" event. A /v1/jobs job is cancelled, journaled as any
// cancel is; a corpus is interrupted instead — it stays running, its
// checkpoints kept, and the next boot resumes it.
func (m *Manager) drain(j *corpus.Job) {
	if !isCorpus(j) {
		m.engine.Cancel(j)
	} else if v, ok := m.engine.Interrupt(j); ok {
		m.cfg.Events.EndJob(endEvent(j, v, "shutdown"))
	}
}
