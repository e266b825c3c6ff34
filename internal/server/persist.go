package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"permine/internal/core"
	"permine/internal/retry"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// Recovery outcome labels reported under the metrics snapshot's "recovery"
// map and counted by Manager.Restore.
const (
	recoveryTerminal  = "terminal"        // restored already finished, result queryable
	recoveryRequeued  = "requeued"        // interrupted job queued for re-execution
	recoveryExhausted = "retry_exhausted" // interrupted job failed: retry budget spent
	recoverySkipped   = "skipped"         // record could not be decoded
)

// recordForJob renders a job's full durable record, result included for
// terminal states. The caller must have exclusive access to the job's
// mutable fields (a job not yet enqueued) or hold j.mu.
func recordForJob(j *Job) store.JobRecord {
	params, _ := json.Marshal(j.params)
	kind := ""
	if j.params.TopK > 0 || j.params.Motif != "" {
		// Query jobs (top-K / targeted) carry their query fields inside
		// Params; the kind marks them for observability. Replay treats
		// them like plain jobs — jobFromRecord round-trips Params.
		kind = "query"
	}
	rec := store.JobRecord{
		ID:          j.id,
		Kind:        kind,
		Algorithm:   j.algorithm.String(),
		SeqName:     j.seq.Name(),
		SeqAlphabet: j.seq.Alphabet().Name(),
		SeqSymbols:  string(j.seq.Alphabet().Symbols()),
		SeqData:     j.seq.Data(),
		Params:      params,
		TimeoutMS:   j.timeout.Milliseconds(),
		State:       string(j.state),
		Attempts:    j.attempts,
		CreatedAt:   j.createdAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		Note:        j.note,
	}
	if j.state.Terminal() && j.result != nil {
		rec.Result, _ = json.Marshal(j.result)
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	return rec
}

// alphabetFor maps a recorded alphabet back to its canonical instance when
// name and symbols match, or rebuilds a custom alphabet from its symbols.
func alphabetFor(name, symbols string) (*seq.Alphabet, error) {
	for _, a := range []*seq.Alphabet{seq.DNA, seq.Protein, seq.Binary} {
		if a.Name() == name && string(a.Symbols()) == symbols {
			return a, nil
		}
	}
	return seq.NewAlphabet(name, symbols)
}

// jobFromRecord reconstructs a Job (including its cache key and a live
// context rooted at the manager) from its durable record.
func (m *Manager) jobFromRecord(rec store.JobRecord) (*Job, error) {
	state := JobState(rec.State)
	switch state {
	case JobQueued, JobRunning, JobDone, JobFailed, JobCancelled, JobResourceExhausted:
	default:
		return nil, fmt.Errorf("unknown job state %q", rec.State)
	}
	algo, err := core.ParseAlgorithm(strings.ToLower(rec.Algorithm))
	if err != nil {
		return nil, err
	}
	alpha, err := alphabetFor(rec.SeqAlphabet, rec.SeqSymbols)
	if err != nil {
		return nil, err
	}
	s, err := seq.New(alpha, rec.SeqName, rec.SeqData)
	if err != nil {
		return nil, err
	}
	var params core.Params
	if err := json.Unmarshal(rec.Params, &params); err != nil {
		return nil, fmt.Errorf("decoding params: %w", err)
	}
	np, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		id:         rec.ID,
		algorithm:  algo,
		seq:        s,
		params:     np,
		timeout:    time.Duration(rec.TimeoutMS) * time.Millisecond,
		cacheKey:   KeyFor(s, algo, np),
		ctx:        ctx,
		cancel:     cancel,
		state:      state,
		attempts:   rec.Attempts,
		createdAt:  rec.CreatedAt,
		startedAt:  rec.StartedAt,
		finishedAt: rec.FinishedAt,
		note:       rec.Note,
	}
	if len(rec.Result) > 0 {
		var res core.Result
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			cancel()
			return nil, fmt.Errorf("decoding result: %w", err)
		}
		j.result = &res
		j.levels = append([]core.LevelMetrics(nil), res.Levels...)
	}
	if rec.Error != "" {
		j.err = errors.New(rec.Error)
	}
	if state.Terminal() {
		cancel() // nothing left to cancel; release the context immediately
	}
	return j, nil
}

// RestoreSummary reports what Manager.Restore did with a recovered record
// set.
type RestoreSummary struct {
	// Terminal jobs were restored finished, their results queryable.
	Terminal int
	// Requeued jobs were interrupted (queued or running at crash time) and
	// are scheduled for re-execution after a per-attempt backoff.
	Requeued int
	// Exhausted jobs were interrupted but had spent their retry budget;
	// they are restored as failed (corpus jobs: partial, keeping the
	// journaled shards).
	Exhausted int
	// Skipped records could not be decoded and were dropped with a warning.
	Skipped int
	// ShardsReplayed counts corpus shards restored complete from their
	// journal checkpoints — work a resumed corpus did NOT redo.
	ShardsReplayed int
}

// Restore registers jobs recovered from the store: terminal jobs become
// queryable again (done results also re-warm the cache), and jobs that
// were queued or running at crash time are re-executed — each recovery
// costs one attempt from the retry budget, with exponential backoff
// between re-executions so a crash-looping job cannot hot-loop the daemon.
//
// Restore must run before the first Submit (cmd/permined restores during
// boot, before serving) so recovered identifiers cannot collide with new
// ones.
func (m *Manager) Restore(records []store.JobRecord) RestoreSummary {
	var sum RestoreSummary
	for _, rec := range records {
		if rec.Kind == "corpus" {
			m.restoreCorpus(rec, &sum)
			continue
		}
		j, err := m.jobFromRecord(rec)
		if err != nil {
			sum.Skipped++
			m.noteRecovered(recoverySkipped, "")
			m.cfg.Logger.Warn("skipping unrecoverable job record", "job", rec.ID, "err", err)
			continue
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			j.cancel()
			break
		}
		if n := idNumber(j.id); n > m.nextID {
			m.nextID = n
		}
		m.register(j)
		m.mu.Unlock()

		switch {
		case j.state.Terminal():
			sum.Terminal++
			m.noteRecovered(recoveryTerminal, j.state)
			if j.state == JobDone && j.result != nil && m.cfg.Cache != nil {
				m.cfg.Cache.Put(j.cacheKey, j.result)
			}
		case j.attempts >= m.cfg.RetryBudget:
			now := time.Now()
			j.mu.Lock()
			j.state = JobFailed
			j.finishedAt = now
			j.err = fmt.Errorf("crash recovery: retry budget exhausted after %d interrupted attempts", j.attempts)
			errMsg := j.err.Error()
			j.mu.Unlock()
			j.cancel()
			sum.Exhausted++
			m.noteRecovered(recoveryExhausted, JobFailed)
			m.cfg.Store.AppendOutcome(j.id, store.Outcome{
				State: string(JobFailed), Error: errMsg, FinishedAt: now,
			})
			m.cfg.Logger.Warn("recovered job exceeds retry budget", "job", j.id, "attempts", j.attempts)
		default:
			j.mu.Lock()
			j.attempts++
			attempts := j.attempts
			j.state = JobQueued
			j.startedAt = time.Time{} // the re-execution restarts the run clock
			j.levels = nil
			j.mu.Unlock()
			sum.Requeued++
			m.noteRecovered(recoveryRequeued, JobQueued)
			m.cfg.Store.AppendState(j.id, string(JobQueued), attempts, time.Now())
			delay := retry.Backoff(m.cfg.RetryBackoff, maxRetryDelay, attempts)
			m.scheduleRequeue(j, delay)
			m.cfg.Logger.Info("requeueing interrupted job", "job", j.id,
				"attempt", attempts, "backoff", delay)
		}
	}
	return sum
}

// maxRetryDelay caps the backoff before re-executing a recovered job.
// retry.Backoff doubles RetryBackoff per prior attempt up to it, then
// jitters, so a restart with many interrupted jobs spreads their
// re-executions out instead of retrying in lockstep.
const maxRetryDelay = time.Minute

// scheduleRequeue enqueues the job after the delay, retrying while the
// queue is full and giving up silently once the manager shuts down (the
// journal still records the job as queued, so the next boot retries it).
func (m *Manager) scheduleRequeue(j *Job, delay time.Duration) {
	time.AfterFunc(delay, func() {
		m.mu.Lock()
		if m.closed || j.State().Terminal() { // shut down, or cancelled while waiting
			m.mu.Unlock()
			return
		}
		select {
		case m.queue <- func() { m.runJob(j) }:
			m.mu.Unlock()
		default:
			m.mu.Unlock()
			m.scheduleRequeue(j, delay)
		}
	})
}

// noteRecovered forwards one recovery outcome to metrics.
func (m *Manager) noteRecovered(outcome string, state JobState) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.JobRecovered(state, outcome)
	}
}

// idNumber extracts the numeric part of a "j-000042" job id (0 when the
// id does not match), so Restore can keep new ids above recovered ones.
func idNumber(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "j-%d", &n); err != nil {
		return 0
	}
	return n
}
