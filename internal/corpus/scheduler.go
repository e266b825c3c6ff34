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

// Runner mines one shard. The engine has already applied the attempt
// deadline to ctx; implementations should honour it (internal/mine checks
// the context at level boundaries). permined's runner is cache-aware and
// places the shard on the cluster ring; it marks transport failures
// Transient so they are retried rather than taken as the shard's outcome.
type Runner func(ctx context.Context, j *Job, s *Shard) (*core.Result, error)

// Hooks observe shard and job transitions. All hooks are optional; ctx
// carries the attempt's span when a hook fires from an attempt. ShardEnd
// and JobEnd run with the job locked, so a shard or job reads terminal
// only once its hook has returned (its checkpoint or outcome journaled)
// and a job's end always follows every shard's: they must not call the
// job's locking getters, but may read the terminal *Shard and v.
type Hooks struct {
	// Start fires, unlocked, when the job's first attempt begins (queued
	// → running).
	Start func(j *Job)
	// ShardEnd fires when a shard reaches a terminal state in this
	// process (shards settled before Start do not fire it).
	ShardEnd func(ctx context.Context, j *Job, s *Shard)
	// ShardRetry fires, unlocked, when a failed attempt is rescheduled:
	// attempt is the execution that just failed, delay the jittered
	// backoff before the next one.
	ShardRetry func(j *Job, s *Shard, attempt int, err error, delay time.Duration)
	// JobEnd fires exactly once, when the job reaches a terminal state.
	JobEnd func(ctx context.Context, j *Job, v View)
}

// Config configures an Engine. Zero values take the documented defaults.
type Config struct {
	// RetryBudget is the maximum number of executions per shard, the
	// first attempt included, and of crash restarts per job (default 3).
	// A shard whose budget is spent fails.
	RetryBudget int
	// RetryBackoff is the base delay before a shard's first retry or a
	// job's first crash restart, doubling per attempt (default 200ms);
	// each delay is jittered into [d/2, d) so many failures do not retry
	// in lockstep. MaxBackoff caps the un-jittered delay (default 30s).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// MaxInflight bounds how many shards of one job are scheduled at once
	// (default 4). A shard waiting out its backoff still holds its slot,
	// so a job's claim on the worker pool stays bounded while it retries.
	MaxInflight int

	// Run mines one shard (required).
	Run Runner
	// Enqueue offers one attempt to the caller's worker pool and reports
	// whether the pool took it (false: its queue is full). Nil runs each
	// attempt on its own goroutine (tests).
	Enqueue func(task func()) bool
	// Fault, when non-nil, is consulted before every attempt (and before
	// Run, hence before any cache) to inject deterministic shard faults.
	Fault Injector

	Tracer *obs.Tracer
	Logger *slog.Logger
	Hooks  Hooks
}

func (c Config) withDefaults() Config {
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
		c.Enqueue = func(task func()) bool { go task(); return true }
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// requeueDelay is how long a shard whose attempt the full pool refused
// waits before offering it again.
const requeueDelay = 25 * time.Millisecond

// Engine drives jobs shard by shard: it schedules pending shards onto the
// configured worker pool up to MaxInflight per job, retries transient
// failures under the budget with jittered exponential backoff, isolates
// shard panics, and ends each job when its last shard settles.
//
// The engine is stateless across jobs: all per-job state lives on the Job,
// so the daemon restores crashed jobs from the journal and hands them to
// Recover.
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

// Start begins executing a new job. It snapshots the job as accepted and
// hands the snapshot to accepted — the caller's submit record — with the
// job still locked, so the record is written before any attempt can begin
// or any hook fire. It returns false, leaving the job unstarted and
// accepted uncalled, when the pool's queue cannot take even its first
// shard (the submit is refused). A job whose every shard is already
// terminal ends at once.
func (e *Engine) Start(j *Job, accepted func(View)) bool {
	j.mu.Lock()
	j.accepted = j.snapshotLocked()
	for _, s := range j.shards {
		if s.state != ShardPending {
			continue
		}
		if !e.cfg.Enqueue(func() { e.attempt(j, s) }) {
			j.mu.Unlock()
			return false
		}
		e.scheduleLocked(j, s)
		break
	}
	accepted(j.accepted)
	e.runLocked(j)
	return true
}

// runLocked ends a job whose every shard is settled (replayed terminal
// from the journal), or dispatches its pending shards. Caller holds j.mu;
// runLocked unlocks it.
func (e *Engine) runLocked(j *Job) {
	if j.settledLocked() {
		e.endLocked(context.Background(), j)
		return
	}
	e.dispatchLocked(j)
	j.mu.Unlock()
}

// Recover resumes a job restored from the journal after a crash. Each
// restart costs one attempt of the job's retry budget and waits out the
// same jittered backoff a shard retry does; a job whose budget is spent
// ends at once, keeping the shards the journal completed. It returns the
// attempt the restart costs and its delay, or ok false if the job ended.
func (e *Engine) Recover(j *Job) (attempt int, delay time.Duration, ok bool) {
	j.mu.Lock()
	if attempt = j.attempts; attempt >= e.cfg.RetryBudget {
		err := fmt.Errorf("crash recovery: retry budget exhausted after %d interrupted attempts", attempt)
		e.cutLocked(j, err, "crash-recovery retry budget exhausted; merged journaled shards only")
		return attempt, 0, false
	}
	j.attempts++
	j.state, j.startedAt = StateQueued, time.Time{}
	attempt, delay = j.attempts, retry.Backoff(e.cfg.RetryBackoff, e.cfg.MaxBackoff, j.attempts)
	j.mu.Unlock()
	time.AfterFunc(delay, func() {
		j.mu.Lock()
		if j.state.Terminal() {
			j.mu.Unlock()
			return
		}
		e.runLocked(j)
	})
	return attempt, delay, true
}

// Cancel moves a job to cancelled. In-flight attempts observe the job
// context and stop at the next boundary; their shards revert to pending.
// Returns false if the job was already terminal.
func (e *Engine) Cancel(j *Job) bool {
	return e.finish(j, func() {
		j.state, j.err = StateCancelled, context.Canceled
		e.endLocked(context.Background(), j)
	})
}

// Interrupt stops a job because the process is going away: its context
// is cancelled, so in-flight attempts stop at the next boundary and their
// shards revert to pending, but the job stays queued or running, noted as
// interrupted — no hook fires and the caller's journal keeps the job
// open, so a restart resumes it. It returns the job's view, or false if
// the job was already terminal.
func (e *Engine) Interrupt(j *Job) (v View, ok bool) {
	ok = e.finish(j, func() {
		j.note = "interrupted by shutdown; a restart resumes it"
		if j.deadline != nil {
			j.deadline.Stop()
		}
		v = j.snapshotLocked()
		j.mu.Unlock()
		j.cancel()
	})
	return v, ok
}

// Expire ends a job whose deadline lapsed, merging the shards that
// finished in time.
func (e *Engine) Expire(j *Job, timeout time.Duration) bool {
	return e.finish(j, func() {
		err := fmt.Errorf("job timeout %v exceeded: %w", timeout, context.DeadlineExceeded)
		e.cutLocked(j, err, fmt.Sprintf("deadline %v exceeded; merged completed shards only", timeout))
	})
}

// finish runs end with the job locked unless the job is already
// terminal. end must unlock.
func (e *Engine) finish(j *Job, end func()) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	end()
	return true
}

// cutLocked ends a job before every shard settled: partial when some
// shards completed (the merge covers them), failed when none did.
func (e *Engine) cutLocked(j *Job, err error, note string) {
	j.state, j.err, j.note = StateFailed, err, ""
	for _, s := range j.shards {
		if s.state == ShardDone {
			j.state, j.note = StatePartial, note
			break
		}
	}
	e.endLocked(context.Background(), j)
}

// endLocked completes a job's move to its terminal state — the outcome
// of its settled shards unless the caller already set one — fires JobEnd
// with the job still locked, then unlocks and releases the job's context.
func (e *Engine) endLocked(ctx context.Context, j *Job) {
	if !j.state.Terminal() {
		j.state, j.err, j.note = j.outcomeLocked()
	}
	j.finishedAt = time.Now()
	if j.deadline != nil {
		j.deadline.Stop()
	}
	j.queueSpan.End()
	if e.cfg.Hooks.JobEnd != nil {
		e.cfg.Hooks.JobEnd(ctx, j, j.snapshotLocked())
	}
	state := j.state
	j.mu.Unlock()
	j.cancel()
	e.cfg.Logger.Info("job finished", "job", j.id, "state", string(state), "shards", len(j.shards))
}

// scheduleLocked marks a shard as holding an in-flight slot. Caller holds
// j.mu and has queued (or will queue) the shard's attempt.
func (e *Engine) scheduleLocked(j *Job, s *Shard) {
	s.scheduled = true
	s.state = ShardRunning
	j.inflight++
}

// dispatchLocked schedules pending shards until the job's in-flight bound
// is reached. Caller holds j.mu.
func (e *Engine) dispatchLocked(j *Job) {
	for _, s := range j.shards {
		if j.inflight >= e.cfg.MaxInflight {
			return
		}
		if s.state == ShardPending && !s.scheduled {
			e.scheduleLocked(j, s)
			e.enqueue(j, s)
		}
	}
}

// enqueue offers a scheduled shard's attempt to the pool, trying again
// shortly while the pool's queue is full; a job that ended meanwhile
// hands the slot back instead.
func (e *Engine) enqueue(j *Job, s *Shard) {
	if e.cfg.Enqueue(func() { e.attempt(j, s) }) {
		return
	}
	time.AfterFunc(requeueDelay, func() {
		j.mu.Lock()
		if j.state.Terminal() || j.ctx.Err() != nil {
			e.releaseLocked(j, s)
			j.mu.Unlock()
			return
		}
		j.mu.Unlock()
		e.enqueue(j, s)
	})
}

// attempt runs one execution of a shard on a pool worker and folds the
// outcome back into the job: a terminal shard state, retrying (budget
// left — the shard keeps its in-flight slot through the backoff), or
// reverted to pending when the job ended or its context was cancelled
// out from under it (interruptions cost no budget). The attempt's span
// covers the hooks its outcome fires.
func (e *Engine) attempt(j *Job, s *Shard) {
	j.mu.Lock()
	if j.state.Terminal() || s.state != ShardRunning || j.ctx.Err() != nil {
		e.releaseLocked(j, s)
		j.mu.Unlock()
		return
	}
	s.attempts++
	attempt := s.attempts
	s.levels, s.err = nil, nil
	first := j.state == StateQueued
	if first {
		j.state, j.startedAt = StateRunning, time.Now()
		if j.timeout > 0 {
			j.deadline = time.AfterFunc(j.timeout, func() { e.Expire(j, j.timeout) })
		}
	}
	j.mu.Unlock()
	if first {
		j.queueSpan.End()
		if e.cfg.Hooks.Start != nil {
			e.cfg.Hooks.Start(j)
		}
	}

	ctx := j.ctx
	if j.shardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.shardTimeout)
		defer cancel()
	}
	ctx, span := e.cfg.Tracer.StartLink(ctx, j.trace, j.span,
		obs.KV("job", j.id), obs.KV("algorithm", j.algorithm.String()),
		obs.KV("shard", s.index), obs.KV("attempt", attempt))
	res, err := e.RunOnce(ctx, j, s, attempt)
	span.SetAttr("state", string(e.settle(ctx, j, s, attempt, res, err)))
	if res != nil {
		span.SetAttr("patterns", len(res.Patterns))
		span.SetAttr("levels", len(res.Levels))
	}
	span.RecordError(err)
	span.End()
}

// settle folds one attempt's outcome into the job and returns the
// shard's resulting state.
func (e *Engine) settle(ctx context.Context, j *Job, s *Shard, attempt int, res *core.Result, err error) ShardState {
	j.mu.Lock()
	if j.state.Terminal() || (err != nil && j.ctx.Err() != nil) {
		// The job ended while the attempt ran, or daemon shutdown
		// cancelled it: discard the outcome and hand the slot back. The
		// shard reverts to pending so a resume can still mine it.
		s.attempts--
		e.releaseLocked(j, s)
		state := s.state
		j.mu.Unlock()
		return state
	}
	switch {
	case IsTransient(err) && attempt < e.cfg.RetryBudget:
		// Budget left: back off (jittered) and go again, keeping the
		// in-flight slot so a job's claim on the pool stays bounded.
		s.state, s.err = ShardRetrying, err
		delay := retry.Backoff(e.cfg.RetryBackoff, e.cfg.MaxBackoff, attempt)
		j.mu.Unlock()
		e.cfg.Logger.Warn("shard retrying",
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
			e.enqueue(j, s)
		})
		return ShardRetrying
	case IsTransient(err):
		s.state = ShardFailed
		s.err = fmt.Errorf("retry budget (%d attempts) exhausted: %w", e.cfg.RetryBudget, err)
	default:
		var note string
		s.state, note, s.err = Outcome(res, err)
		if s.state != ShardFailed {
			s.result = res
		}
		if note != "" {
			s.note = note
		}
	}
	s.finishedAt = time.Now()
	s.scheduled = false
	j.inflight--
	if e.cfg.Hooks.ShardEnd != nil {
		e.cfg.Hooks.ShardEnd(ctx, j, s)
	}
	state := s.state
	if j.settledLocked() {
		e.endLocked(ctx, j)
	} else {
		e.dispatchLocked(j)
		j.mu.Unlock()
	}
	return state
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

// transientError marks a failure the engine retries under the budget.
type transientError struct{ err error }

func (t transientError) Error() string { return t.err.Error() }
func (t transientError) Unwrap() error { return t.err }

// Transient marks err as a transient failure: the engine retries the
// shard under its budget instead of taking err as the shard's outcome.
func Transient(err error) error { return transientError{err} }

// IsTransient reports whether err, or an error it wraps, is marked
// Transient.
func IsTransient(err error) bool {
	var t transientError
	return errors.As(err, &t)
}

// RunOnce executes one shard attempt under ctx behind the panic barrier:
// a panicking miner (or injected FaultPanic) is recovered into a
// transient error so one poisoned shard cannot kill the daemon, as are
// injected faults and a lapsed attempt deadline. A forwarded mining unit
// runs through it too, once, its retries left to the coordinator.
func (e *Engine) RunOnce(ctx context.Context, j *Job, s *Shard, attempt int) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, Transient(fmt.Errorf("shard %d panicked: %v", s.index, r))
			e.cfg.Logger.Error("shard panic recovered",
				"job", j.id, "shard", s.index, "attempt", attempt, "panic", fmt.Sprint(r))
		}
		// A lapsed attempt deadline (job context still live) is retryable.
		if err != nil && errors.Is(err, context.DeadlineExceeded) && j.ctx.Err() == nil && j.shardTimeout > 0 {
			err = Transient(fmt.Errorf("shard deadline %v exceeded: %w", j.shardTimeout, err))
		}
	}()
	// The injector runs before Run — and therefore before any result
	// cache inside it — so injected faults exercise the real paths.
	if e.cfg.Fault != nil {
		switch e.cfg.Fault.Fault(s.index, attempt) {
		case FaultError:
			return nil, Transient(ErrInjected)
		case FaultPanic:
			panic("injected shard panic")
		case FaultHang:
			obs.FromContext(ctx).AddEvent("injected hang")
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}
	return e.cfg.Run(ctx, j, s)
}
