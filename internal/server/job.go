package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"encoding/json"

	"permine/internal/cluster"
	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/obs"
	"permine/internal/query"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// JobState is the lifecycle state of a mining job.
type JobState string

// Job lifecycle states. Transitions: queued → running → {done, failed,
// cancelled, resource_exhausted}; queued → cancelled directly when a job
// is cancelled before a worker picks it up; queued → done directly on a
// cache hit.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
	// JobResourceExhausted marks a run aborted by its memory budget: the
	// result holds the completed levels only (Truncated set), and unlike
	// done results it is never cached — a bigger budget might finish.
	JobResourceExhausted JobState = "resource_exhausted"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled || s == JobResourceExhausted
}

// Job is one submitted mining run. All mutable state is guarded by mu;
// handlers read through Snapshot.
type Job struct {
	id        string
	algorithm core.Algorithm
	seq       *seq.Sequence
	params    core.Params
	timeout   time.Duration
	cacheKey  CacheKey

	ctx    context.Context
	cancel context.CancelFunc

	// trace is the submit span's context: the parent every later span of
	// this job (queue, run, persist, per-level) links to, across
	// goroutines. Zero when the submit was not traced.
	trace obs.SpanContext
	// queueSpan covers the queued→picked-up wait; ended by worker pickup
	// or cancel, whichever comes first (End is idempotent).
	queueSpan *obs.Span
	// accepted is the job as Submit accepted it, snapshotted before a
	// worker can reach it: the submit response, which must read queued
	// (or done, for a cache hit) however soon a worker starts the job.
	// Written once by Submit, then only read.
	accepted JobView

	mu         sync.Mutex
	state      JobState
	attempts   int // executions consumed by crash-recovery re-runs
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	levels     []core.LevelMetrics
	result     *core.Result
	err        error
	cacheHit   bool
	// forwarded marks that the run was handed to a cluster peer; the
	// drain path uses it to emit "shutdown" (not "end") when shutdown
	// cancels a job this node never mined itself.
	forwarded bool
	note      string
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// addLevel records one completed mining level (called from the mining
// goroutine via Params.Progress) and returns the cumulative level count —
// the event sequence number. The count, not the pattern length, orders
// events: the adaptive algorithm restarts pattern lengths every round.
func (j *Job) addLevel(lm core.LevelMetrics) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.levels = append(j.levels, lm)
	return len(j.levels)
}

// JobView is the JSON representation of a job's state at one instant.
type JobView struct {
	ID         string              `json:"id"`
	State      JobState            `json:"state"`
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

// Snapshot renders the job for JSON responses. The result is included only
// for terminal states.
func (j *Job) Snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		State:     j.state,
		Algorithm: j.algorithm.String(),
		SeqName:   j.seq.Name(),
		SeqLen:    j.seq.Len(),
		CacheHit:  j.cacheHit,
		Attempts:  j.attempts,
		CreatedAt: j.createdAt,
		Progress:  append([]core.LevelMetrics(nil), j.levels...),
		Note:      j.note,
		TraceID:   j.trace.TraceID,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	if j.state.Terminal() {
		v.Result = j.result
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
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
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 64); submits beyond it fail with ErrQueueFull.
	QueueDepth int
	// JobTimeout is the per-job deadline once running (default 5m;
	// negative disables the deadline).
	JobTimeout time.Duration
	// Retain bounds how many finished jobs stay queryable (default 1024);
	// the oldest terminal jobs are evicted first.
	Retain int
	// Cache, when non-nil, short-circuits submits whose key hits and
	// stores successful results.
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
	// RetryBudget bounds how many times a job interrupted by a crash is
	// re-executed across restarts before being failed (default 3).
	RetryBudget int
	// RetryBackoff is the delay before a recovered job's first
	// re-execution, doubling per prior attempt and jittered into [d/2, d)
	// (default 500ms).
	RetryBackoff time.Duration
	// ShardTimeout, ShardRetryBudget and ShardRetryBackoff configure the
	// corpus engine's per-shard deadline and retry policy (see
	// corpus.Config; defaults 2m / 3 / 200ms).
	ShardTimeout      time.Duration
	ShardRetryBudget  int
	ShardRetryBackoff time.Duration
	// CorpusMaxInflight bounds how many shards of one corpus job occupy
	// the worker pool at once (default 2×Workers).
	CorpusMaxInflight int
	// ShardFault, when non-nil, injects deterministic shard faults into
	// the corpus engine (tests and the -shard-fault debug knob).
	ShardFault corpus.Injector
	// Cluster, when non-nil, places whole jobs and corpus shards across
	// the peer ring by cache identity; nil keeps every run local.
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
	// Events, when non-nil, receives per-level progress and terminal
	// events for SSE streaming.
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
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Manager runs mining jobs asynchronously on a bounded worker pool with
// cancellation, per-job progress, timeouts, a result cache, and graceful
// shutdown. The same pool executes single-sequence jobs and the shard
// attempts of corpus jobs (the queue carries thunks, not jobs).
type Manager struct {
	cfg        ManagerConfig
	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan func()
	wg         sync.WaitGroup
	corpus     *corpus.Engine

	mu           sync.Mutex
	jobs         map[string]*Job
	order        []string // creation order, for retention pruning
	corpusJobs   map[string]*corpus.Job
	corpusOrder  []string
	nextID       uint64
	nextCorpusID uint64
	closed       bool

	// OnLevel, when set before any Submit, is invoked after every
	// completed mining level of every job, from the mining goroutine. It
	// exists for tests and future progress streaming; it must not block
	// for long — the worker waits on it.
	OnLevel func(j *Job, lm core.LevelMetrics)
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
		jobs:       make(map[string]*Job),
		corpusJobs: make(map[string]*corpus.Job),
	}
	maxInflight := cfg.CorpusMaxInflight
	if maxInflight <= 0 {
		maxInflight = 2 * cfg.Workers
	}
	m.corpus = corpus.NewEngine(corpus.Config{
		ShardTimeout: cfg.ShardTimeout,
		RetryBudget:  cfg.ShardRetryBudget,
		RetryBackoff: cfg.ShardRetryBackoff,
		MaxInflight:  maxInflight,
		Run:          m.runShard,
		Enqueue:      m.enqueueShardTask,
		Fault:        cfg.ShardFault,
		Tracer:       cfg.Tracer,
		Logger:       cfg.Logger,
		Hooks: corpus.Hooks{
			ShardEnd:   m.onShardEnd,
			ShardRetry: m.onShardRetry,
			JobEnd:     m.onCorpusEnd,
		},
	})
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// QueueDepth reports the number of jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// RetryAfterHint estimates when a shed or queue-full submit is worth
// retrying: one retry backoff per queued job ahead of the client, clamped
// to [1s, 60s]. The HTTP layer sends it as the Retry-After header on
// every 429 rejection.
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

// Submit registers a mining job. On a cache hit the returned job is
// already done (State JobDone, CacheHit true); otherwise it is queued.
// timeout <= 0 uses the manager default. When rctx carries a tracing span
// (the HTTP request span), the job's submit/queue/run spans join its
// trace; context.Background() is fine otherwise — rctx does not govern
// the job's lifetime.
func (m *Manager) Submit(rctx context.Context, s *seq.Sequence, algo core.Algorithm, params core.Params, timeout time.Duration) (*Job, error) {
	sctx, span := obs.Start(rctx, "job.submit",
		obs.KV("algorithm", algo.String()), obs.KV("seq_len", s.Len()))
	defer span.End()
	if params.MemoryBudget == 0 {
		params.MemoryBudget = m.cfg.MemBudget
	}
	np, err := params.Normalize()
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	if err := query.ValidateMotif(s.Alphabet(), np.Motif); err != nil {
		span.RecordError(err)
		return nil, err
	}
	if timeout <= 0 {
		timeout = m.cfg.JobTimeout
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		algorithm: algo,
		seq:       s,
		params:    np,
		timeout:   timeout,
		cacheKey:  KeyFor(s, algo, np),
		ctx:       ctx,
		cancel:    cancel,
		state:     JobQueued,
		createdAt: time.Now(),
		trace:     span.Context(),
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		span.RecordError(ErrShuttingDown)
		return nil, ErrShuttingDown
	}
	m.nextID++
	j.id = fmt.Sprintf("j-%06d", m.nextID)
	span.SetAttr("job", j.id)

	if m.cfg.Cache != nil {
		// Subsumption derivation: a plain full-mine cached at another
		// threshold answers this job by filtering when query.FromCached
		// proves the filtered result identical to a fresh run.
		var derive func(*core.Result) (*core.Result, bool)
		if !m.cfg.DisableSubsumption {
			derive = func(cached *core.Result) (*core.Result, bool) {
				return query.FromCached(cached, np)
			}
		}
		if res, subsumed, ok := m.cfg.Cache.Lookup(j.cacheKey, derive); ok {
			j.state = JobDone
			j.cacheHit = true
			j.result = res
			j.levels = append([]core.LevelMetrics(nil), res.Levels...)
			if subsumed {
				j.note = "derived from a cached result at another threshold (subsumption)"
				// Store the derivation under its exact key so the next
				// identical query hits without re-filtering.
				m.cfg.Cache.Put(j.cacheKey, res)
			}
			now := time.Now()
			j.startedAt, j.finishedAt = now, now
			j.accepted = j.Snapshot()
			m.register(j)
			rec := recordForJob(j)
			m.mu.Unlock()
			cancel()
			span.SetAttr("cache_hit", true)
			span.SetAttr("cache_subsumed", subsumed)
			m.cfg.Store.AppendSubmit(rec)
			m.transition("", JobDone)
			m.cfg.Logger.Info("job cache hit", "job", j.id, "algorithm", algo.String(), "seq_len", s.Len(), "subsumed", subsumed)
			return j, nil
		}
	}

	// Admission runs after the cache lookup on purpose: cached-derivable
	// queries keep serving through brownout; only work that would charge
	// new mining memory is shed.
	if err := m.admit(shedClass(algo)); err != nil {
		m.mu.Unlock()
		cancel()
		span.RecordError(err)
		return nil, err
	}

	// Render the durable record before a worker can touch the job; it is
	// journaled after the enqueue so ErrQueueFull leaves no trace. A crash
	// in between re-runs at most this one job's already-finished work (the
	// replay ignores out-of-order transitions for unknown jobs).
	rec := recordForJob(j)
	j.accepted = j.Snapshot()
	_, j.queueSpan = obs.Start(sctx, "job.queue", obs.KV("job", j.id))
	select {
	case m.queue <- func() { m.runJob(j) }:
	default:
		m.mu.Unlock()
		cancel()
		j.queueSpan.RecordError(ErrQueueFull)
		j.queueSpan.End()
		span.RecordError(ErrQueueFull)
		return nil, ErrQueueFull
	}
	m.register(j)
	m.mu.Unlock()
	m.cfg.Store.AppendSubmit(rec)
	m.transition("", JobQueued)
	m.cfg.Logger.Info("job queued", "job", j.id, "algorithm", algo.String(), "seq_len", s.Len())
	return j, nil
}

// register indexes the job and prunes old terminal jobs beyond the
// retention bound. Caller holds m.mu.
func (m *Manager) register(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
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
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns snapshots of every retained job, newest first.
func (m *Manager) Jobs() []JobView {
	m.mu.Lock()
	ordered := make([]*Job, 0, len(m.jobs))
	for i := len(m.order) - 1; i >= 0; i-- {
		if j, ok := m.jobs[m.order[i]]; ok {
			ordered = append(ordered, j)
		}
	}
	m.mu.Unlock()
	views := make([]JobView, len(ordered))
	for i, j := range ordered {
		views[i] = j.Snapshot()
	}
	return views
}

// Cancel cancels a queued or running job. The job flips to cancelled
// immediately from the caller's point of view; a running worker observes
// the context at the next level or candidate-batch boundary and its
// (partial) output is discarded.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, ErrJobNotFound
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return j, ErrJobFinished
	}
	from := j.state
	j.state = JobCancelled
	j.finishedAt = time.Now()
	j.err = context.Canceled
	finishedAt := j.finishedAt
	j.mu.Unlock()
	j.cancel()
	j.queueSpan.End() // cancelled while queued: the wait is over
	m.cfg.Store.AppendOutcome(j.id, store.Outcome{
		State: string(JobCancelled), Error: context.Canceled.Error(), FinishedAt: finishedAt,
	})
	m.transition(from, JobCancelled)
	m.publishEnd(j)
	m.cfg.Logger.Info("job cancelled", "job", id, "was", string(from))
	return j, nil
}

// publishEnd pushes the job's terminal "end" event and closes its event
// streams. The result is stripped (it can be megabytes; stream clients
// fetch GET /v1/jobs/{id} for it) and Seq carries the level count so
// subscribers can tell a complete stream from a truncated one.
//
// A cluster-forwarded job cancelled by drain gets "shutdown" instead:
// this node never mined it, so clients subscribed here must learn the
// daemon is going away (and should re-poll elsewhere), not that the job
// reached a real terminal state.
func (m *Manager) publishEnd(j *Job) {
	if m.cfg.Events == nil {
		return
	}
	v := j.Snapshot()
	seq := len(v.Progress)
	v.Result, v.Progress = nil, nil
	typ := "end"
	j.mu.Lock()
	forwarded := j.forwarded
	j.mu.Unlock()
	if forwarded && v.State == JobCancelled && m.isClosed() {
		typ = "shutdown"
	}
	m.cfg.Events.EndJob(Event{Type: typ, Job: j.id, Seq: seq, Data: v})
}

// worker drains the queue until Shutdown closes it. Tasks are thunks:
// single-sequence job runs and corpus shard attempts share the pool.
func (m *Manager) worker() {
	defer m.wg.Done()
	for task := range m.queue {
		task()
	}
}

// enqueueShardTask schedules one corpus shard attempt on the worker pool.
// It never blocks the corpus engine: a full queue retries shortly (shard
// attempts, unlike submits, must not be rejected — admission control
// happened at corpus submit), and a closed manager drops the task (the
// journal still has the corpus job running, so the next boot resumes it).
func (m *Manager) enqueueShardTask(task func()) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	select {
	case m.queue <- task:
		m.mu.Unlock()
	default:
		m.mu.Unlock()
		time.AfterFunc(25*time.Millisecond, func() { m.enqueueShardTask(task) })
	}
}

// runJob executes one dequeued job to a terminal state.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != JobQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.startedAt = time.Now()
	startedAt, attempts := j.startedAt, j.attempts
	j.mu.Unlock()
	j.queueSpan.End() // picked up: the queue wait is over
	m.cfg.Store.AppendState(j.id, string(JobRunning), attempts, startedAt)
	m.transition(JobQueued, JobRunning)

	ctx := j.ctx
	var cancelTimeout context.CancelFunc
	if j.timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, j.timeout)
		defer cancelTimeout()
	}
	// The run span links to the submit span recorded at Submit time: the
	// worker goroutine re-joins the submitting request's trace, and the
	// run context carries the span so internal/mine's per-level spans
	// nest under it.
	runCtx, runSpan := m.cfg.Tracer.StartLink(ctx, j.trace, "job.run",
		obs.KV("job", j.id), obs.KV("algorithm", j.algorithm.String()))
	p := j.params
	p.Progress = func(lm core.LevelMetrics) {
		seq := j.addLevel(lm)
		if m.cfg.Events != nil {
			m.cfg.Events.Publish(Event{Type: "level", Job: j.id, Seq: seq, Data: lm})
		}
		if m.OnLevel != nil {
			m.OnLevel(j, lm)
		}
	}

	start := time.Now()
	res, err := m.mineJob(runCtx, j, p)
	elapsed := time.Since(start)

	final, result, note, jobErr := j.outcome(res, err)
	// A done result enters the cache before the job reads as terminal, so
	// a client that sees "done" and resubmits at once gets a hit. A cancel
	// that wins the race below leaves a correct entry behind.
	if final == JobDone && m.cfg.Cache != nil && !j.State().Terminal() {
		m.cfg.Cache.Put(j.cacheKey, result)
	}

	j.mu.Lock()
	if j.state.Terminal() {
		// Cancel won the race: the job is already cancelled from the
		// client's point of view; discard whatever the run produced.
		j.mu.Unlock()
		runSpan.RecordError(context.Canceled)
		runSpan.End()
		return
	}
	j.finishedAt = time.Now()
	j.state, j.result, j.err = final, result, jobErr
	if note != "" {
		j.note = note
	}
	out := store.Outcome{State: string(final), Note: j.note, FinishedAt: j.finishedAt}
	if j.result != nil {
		out.Result, _ = json.Marshal(j.result)
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	finalErr := j.err
	// Journal the outcome before the job reads as terminal, so a job a
	// client saw finish is never requeued by a restart. A Cancel racing
	// this waits on j.mu and then finds the job finished.
	_, persistSpan := obs.Start(runCtx, "job.persist", obs.KV("job", j.id))
	m.cfg.Store.AppendOutcome(j.id, out)
	persistSpan.End()
	j.mu.Unlock()

	runSpan.SetAttr("state", string(final))
	if res != nil {
		runSpan.SetAttr("patterns", len(res.Patterns))
		runSpan.SetAttr("levels", len(res.Levels))
	}
	runSpan.RecordError(finalErr)
	runSpan.End()
	m.transition(JobRunning, final)
	m.publishEnd(j)
	m.cfg.Logger.Info("job finished", "job", j.id, "state", string(final), "elapsed", elapsed)
}

// outcome classifies a finished run: the job's terminal state, the result
// and error it reports, and a note (empty for none).
func (j *Job) outcome(res *core.Result, err error) (final JobState, result *core.Result, note string, jobErr error) {
	var exhausted *core.ResourceExhaustedError
	switch {
	case err == nil:
		return JobDone, res, "", nil
	case res != nil && errors.As(err, &exhausted):
		// Memory budget abort: a distinct terminal state carrying the
		// completed-levels partial result, excluded from the cache.
		return JobResourceExhausted, res,
			fmt.Sprintf("memory budget exhausted at level %d; completed levels only", exhausted.Level), err
	case res != nil && errors.Is(err, core.ErrBudgetExceeded):
		// The enumeration baseline reports a valid truncated result.
		return JobDone, res, "candidate budget exhausted; completed levels only", nil
	case errors.Is(err, context.Canceled):
		return JobCancelled, nil, "", err
	case errors.Is(err, context.DeadlineExceeded):
		return JobFailed, nil, "", fmt.Errorf("job timeout %v exceeded: %w", j.timeout, err)
	default:
		return JobFailed, nil, "", err
	}
}

// mineLocal is the one place this node mines: runJob, runShard and
// MineForPeer all come here, so each mine is counted once, on the node that
// ran it. It waits out the ShardDelay debug knob, charges the run to its
// own governor tracker (bounded by the run's memory budget, so one
// over-budget job or shard exhausts its own budget instead of the node's
// memory), mines through the query layer (plain, top-K and targeted jobs
// alike), counts each level's PIL joins as the level completes, and records
// the run's latency unless it was cancelled. The tracker is released before
// mineLocal returns, so a client that sees the job finish and resubmits is
// not shed for this run's bytes.
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

// transition forwards a state change to metrics.
func (m *Manager) transition(from, to JobState) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.JobTransition(from, to)
	}
}

// Shutdown stops accepting jobs, cancels queued and running work, and
// waits (up to ctx) for workers to drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	m.baseCancel() // cancels every job context
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
