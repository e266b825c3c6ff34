package corpus

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"permine/internal/core"
	"permine/internal/obs"
	"permine/internal/retry"
)

// Runner mines one shard. The engine has already applied the shard
// deadline to ctx; implementations should honour it (internal/mine checks
// the context at level boundaries). permined's runner is cache-aware: it
// consults the result cache before mining and stores successes after.
type Runner func(ctx context.Context, j *Job, s *Shard) (*core.Result, error)

// Hooks observe shard and job transitions. All hooks are optional and are
// called without any engine or job lock held; the *Shard passed to
// ShardEnd is terminal, so its getters are safe to read. permined wires
// them to the WAL (shard checkpoints), the SSE broadcaster and metrics.
type Hooks struct {
	// ShardEnd fires when a shard reaches done or failed in this process
	// (replayed shards restored from the journal do not re-fire it).
	ShardEnd func(j *Job, s *Shard)
	// ShardRetry fires when a failed attempt is rescheduled: attempt is
	// the execution that just failed, delay the jittered backoff before
	// the next one.
	ShardRetry func(j *Job, s *Shard, attempt int, err error, delay time.Duration)
	// JobEnd fires exactly once, when the job reaches a terminal state.
	JobEnd func(j *Job)
}

// Config configures an Engine. Zero values take the documented defaults.
type Config struct {
	// ShardTimeout is the per-attempt deadline (default 2m; negative
	// disables it).
	ShardTimeout time.Duration
	// RetryBudget is the maximum number of executions per shard, the
	// first attempt included (default 3). A shard whose budget is spent
	// fails, degrading the job to partial rather than failing it.
	RetryBudget int
	// RetryBackoff is the base delay before a shard's first retry,
	// doubling per failed attempt (default 200ms); each delay is jittered
	// into [d/2, d) so many failing shards do not retry in lockstep.
	// MaxBackoff caps the un-jittered delay (default 30s).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// MaxInflight bounds how many shards of one job are scheduled at once
	// (default 4). A shard waiting out its backoff still holds its slot,
	// so a job's claim on the worker pool stays bounded while it retries.
	MaxInflight int

	// Run mines one shard (required).
	Run Runner
	// Enqueue schedules a shard attempt on the caller's worker pool. Nil
	// runs each attempt on its own goroutine (tests).
	Enqueue func(task func())
	// Fault, when non-nil, is consulted before every attempt (and before
	// Run, hence before any cache) to inject deterministic shard faults.
	Fault Injector

	Tracer *obs.Tracer
	Logger *slog.Logger
	Hooks  Hooks
}

func (c Config) withDefaults() Config {
	if c.ShardTimeout == 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 200 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.Enqueue == nil {
		c.Enqueue = func(task func()) { go task() }
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Engine drives corpus jobs shard by shard: it schedules pending shards
// onto the configured worker pool up to MaxInflight per job, retries
// failed attempts under the per-shard budget with jittered exponential
// backoff, isolates shard panics, and finalizes each job — done, partial
// (some shards exhausted their budget) or failed (all did) — merging the
// completed shards deterministically.
//
// The engine is stateless across jobs: all per-job state lives on the Job,
// so the daemon restores crashed jobs from the journal and hands them back
// to Start.
type Engine struct {
	cfg Config
}

// NewEngine builds an Engine. Run is required.
func NewEngine(cfg Config) *Engine {
	if cfg.Run == nil {
		panic("corpus: Engine requires a Runner")
	}
	return &Engine{cfg: cfg.withDefaults()}
}

// Start begins (or, for a journal-restored job with completed shards,
// resumes) executing the job. Shards already terminal — replayed from the
// journal — are not re-mined. Start returns immediately; completion is
// observed through Hooks.JobEnd or the job's Snapshot.
func (e *Engine) Start(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if j.startedAt.IsZero() {
		j.startedAt = time.Now()
	}
	if e.finalizeLocked(j) { // every shard replayed terminal from the journal
		if e.cfg.Hooks.JobEnd != nil {
			e.cfg.Hooks.JobEnd(j)
		}
		return
	}
	e.dispatchLocked(j)
	j.mu.Unlock()
}

// Cancel moves a running job to cancelled. In-flight shard attempts
// observe the job context and stop at the next boundary; their shards
// revert to pending (untouched in the journal, so a later restart could
// still resume them). Returns false if the job was already terminal.
func (e *Engine) Cancel(j *Job) bool {
	return e.finalizeAs(j, StateCancelled, context.Canceled, "")
}

// Expire moves a running job to partial when its overall corpus deadline
// lapses: the merge covers the shards that finished in time.
func (e *Engine) Expire(j *Job, timeout time.Duration) bool {
	return e.finalizeAs(j, StatePartial, nil,
		fmt.Sprintf("corpus deadline %v exceeded; merged completed shards only", timeout))
}

// Exhaust finalizes a restored job whose crash-recovery retry budget is
// spent: partial, merging whatever shard checkpoints the journal held.
func (e *Engine) Exhaust(j *Job, err error) bool {
	return e.finalizeAs(j, StatePartial, err,
		"crash-recovery retry budget exhausted; merged journaled shards only")
}

// finalizeAs forces the job to a terminal state out of band (cancel,
// deadline, recovery exhaustion). Returns false if already terminal.
func (e *Engine) finalizeAs(j *Job, state State, err error, note string) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = err
	j.note = note
	j.finishedAt = time.Now()
	j.merged = mergeLocked(j)
	j.mu.Unlock()
	j.cancel()
	if e.cfg.Hooks.JobEnd != nil {
		e.cfg.Hooks.JobEnd(j)
	}
	return true
}

// dispatchLocked schedules pending shards until the job's in-flight bound
// is reached. Caller holds j.mu.
func (e *Engine) dispatchLocked(j *Job) {
	for _, s := range j.shards {
		if j.inflight >= e.cfg.MaxInflight {
			return
		}
		if s.state != ShardPending || s.scheduled {
			continue
		}
		s.scheduled = true
		s.state = ShardRunning
		if s.startedAt.IsZero() {
			s.startedAt = time.Now()
		}
		j.inflight++
		shard := s
		e.cfg.Enqueue(func() { e.attempt(j, shard) })
	}
}

// attempt runs one execution of a shard on a pool worker and folds the
// outcome back into the job: done, failed (budget spent), retrying
// (budget left — the shard keeps its in-flight slot through the backoff),
// or reverted to pending when the job context was cancelled out from
// under it (interruptions cost no budget).
func (e *Engine) attempt(j *Job, s *Shard) {
	j.mu.Lock()
	if j.state.Terminal() || s.state != ShardRunning {
		e.releaseLocked(j, s)
		j.mu.Unlock()
		return
	}
	s.attempts++
	attempt := s.attempts
	j.mu.Unlock()

	res, err := e.runShard(j, s, attempt)

	j.mu.Lock()
	if j.state.Terminal() {
		// Cancelled or expired while the attempt ran: discard the outcome
		// and hand the slot back. The shard reverts to pending so a future
		// resume can still mine it; the interruption costs no budget.
		s.attempts--
		e.releaseLocked(j, s)
		j.mu.Unlock()
		return
	}

	switch {
	case err == nil:
		s.state = ShardDone
		s.result = res
		s.err = nil
		s.finishedAt = time.Now()
		e.settleLocked(j, s)
		return

	case j.ctx.Err() != nil:
		// Daemon shutdown (base context cancelled) rather than a shard
		// fault: revert to pending without consuming budget. The journal
		// still has the job running, so the next boot resumes it.
		s.attempts--
		e.releaseLocked(j, s)
		j.mu.Unlock()
		return

	case attempt >= e.cfg.RetryBudget:
		s.state = ShardFailed
		s.err = fmt.Errorf("retry budget (%d attempts) exhausted: %w", e.cfg.RetryBudget, err)
		s.finishedAt = time.Now()
		e.settleLocked(j, s)
		return

	default:
		// Transient failure with budget left: back off (jittered) and go
		// again. The shard keeps its in-flight slot so a job's worker-pool
		// claim stays bounded even while every shard is retrying.
		s.state = ShardRetrying
		s.err = err
		delay := retry.Backoff(e.cfg.RetryBackoff, e.cfg.MaxBackoff, attempt)
		j.mu.Unlock()
		e.cfg.Logger.Warn("corpus shard retrying",
			"job", j.id, "shard", s.index, "attempt", attempt, "delay", delay, "err", err)
		if e.cfg.Hooks.ShardRetry != nil {
			e.cfg.Hooks.ShardRetry(j, s, attempt, err, delay)
		}
		time.AfterFunc(delay, func() {
			j.mu.Lock()
			if j.state.Terminal() || s.state != ShardRetrying {
				e.releaseLocked(j, s)
				j.mu.Unlock()
				return
			}
			s.state = ShardRunning
			j.mu.Unlock()
			e.cfg.Enqueue(func() { e.attempt(j, s) })
		})
		return
	}
}

// settleLocked handles a shard reaching a terminal state: releases its
// slot, fires ShardEnd (journal checkpoint, SSE, metrics), refills the
// pipeline, and finalizes the job when it was the last shard. Caller
// holds j.mu; settleLocked unlocks it.
func (e *Engine) settleLocked(j *Job, s *Shard) {
	s.scheduled = false
	j.inflight--
	finished := e.finalizeLocked(j)
	if !finished {
		e.dispatchLocked(j)
		j.mu.Unlock()
	}
	if e.cfg.Hooks.ShardEnd != nil {
		e.cfg.Hooks.ShardEnd(j, s)
	}
	if finished && e.cfg.Hooks.JobEnd != nil {
		e.cfg.Hooks.JobEnd(j)
	}
}

// releaseLocked reverts a non-terminal shard to pending and returns its
// in-flight slot. Caller holds j.mu.
func (e *Engine) releaseLocked(j *Job, s *Shard) {
	if !s.scheduled {
		return
	}
	s.scheduled = false
	j.inflight--
	if !s.state.Terminal() {
		s.state = ShardPending
	}
}

// finalizeLocked finalizes the job if every shard is terminal: done when
// all shards completed, failed when none did, partial otherwise — the
// graceful-degradation state, with the merge covering the completed
// shards and the manifest naming the rest. Returns whether it finalized,
// in which case j.mu is released (the JobEnd hook must run unlocked).
func (e *Engine) finalizeLocked(j *Job) bool {
	done, failed := 0, 0
	for _, s := range j.shards {
		switch s.state {
		case ShardDone:
			done++
		case ShardFailed:
			failed++
		default:
			return false
		}
	}
	switch {
	case failed == 0:
		j.state = StateDone
	case done == 0:
		j.state = StateFailed
		j.err = fmt.Errorf("all %d shards failed", failed)
	default:
		j.state = StatePartial
		j.note = fmt.Sprintf("%d of %d shards failed; merged the %d completed shards",
			failed, len(j.shards), done)
	}
	j.finishedAt = time.Now()
	j.merged = mergeLocked(j)
	state := j.state
	j.mu.Unlock()
	j.cancel()
	e.cfg.Logger.Info("corpus job finished",
		"job", j.id, "state", string(state), "shards", len(j.shards), "failed", failed)
	return true
}

// runShard executes one shard attempt under the per-shard deadline with
// panic isolation: a panicking miner (or injected FaultPanic) is recovered
// into an ordinary shard error so one poisoned shard degrades the job
// instead of killing the daemon. The attempt's corpus.shard span links to
// the job's submit trace.
func (e *Engine) runShard(j *Job, s *Shard, attempt int) (res *core.Result, err error) {
	ctx := j.ctx
	var cancel context.CancelFunc
	if e.cfg.ShardTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.cfg.ShardTimeout)
		defer cancel()
	}
	runCtx, span := e.cfg.Tracer.StartLink(ctx, j.trace, "corpus.shard",
		obs.KV("job", j.id), obs.KV("shard", s.index),
		obs.KV("shard_name", s.seq.Name()), obs.KV("attempt", attempt))
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("shard %d panicked: %v", s.index, r)
			e.cfg.Logger.Error("corpus shard panic recovered",
				"job", j.id, "shard", s.index, "attempt", attempt, "panic", fmt.Sprint(r))
		}
		// Translate a lapsed per-shard deadline (job context still live)
		// into a retryable shard error.
		if err != nil && errors.Is(err, context.DeadlineExceeded) && j.ctx.Err() == nil {
			err = fmt.Errorf("shard deadline %v exceeded: %w", e.cfg.ShardTimeout, err)
		}
		span.RecordError(err)
		span.End()
	}()

	// The injector runs before Run — and therefore before any result
	// cache inside it — so injected faults exercise the real paths.
	if e.cfg.Fault != nil {
		switch f := e.cfg.Fault.Fault(s.index, attempt); f {
		case FaultError:
			return nil, ErrInjected
		case FaultPanic:
			panic("injected shard panic")
		case FaultHang:
			span.AddEvent("injected hang")
			<-runCtx.Done()
			return nil, runCtx.Err()
		}
	}
	return e.cfg.Run(runCtx, j, s)
}
