// Package corpus is permined's job engine. A job mines one or more
// subject sequences with one algorithm and one set of parameters, one
// shard per sequence: a /v1/jobs job is a job of one shard, a /v1/corpus
// job has one shard per FASTA record. The engine schedules every shard
// on a caller-provided worker pool and merges the shards' pattern sets
// into one result with per-shard provenance.
//
// Every shard boundary is hardened. An attempt runs behind a panic
// barrier, under an optional per-attempt deadline; a transient failure (a
// panic, an injected fault, a lapsed attempt deadline, or an error the
// runner marks Transient) is retried under one budget with jittered
// exponential backoff; any other outcome is final and classified by one
// rule (Outcome). A job whose shards do not all complete degrades to
// "partial" — the merge covers the completed shards and a failed-shard
// manifest names the rest — rather than failing whole.
//
// The engine keeps no durable state: the caller journals transitions
// through the Hooks (permined routes them into the internal/server/store
// WAL) and rebuilds interrupted jobs with RestoreShard and Recover after
// a crash, so only incomplete shards are re-mined.
package corpus

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"permine/internal/core"
	"permine/internal/obs"
	"permine/internal/seq"
)

// State is the lifecycle state of a job.
type State string

// Job states. Transitions: queued → running → {done, partial, failed,
// cancelled, resource_exhausted}; queued → terminal directly when a job
// ends before its first attempt starts (cancelled, answered at submit).
// "partial" is the graceful-degradation state: some shards failed but the
// rest completed, and the merge covers them. "resource_exhausted" marks a
// job whose every shard hit its memory budget: the shards keep their
// completed levels, and nothing of it is cached — a bigger budget might
// finish.
const (
	StateQueued            State = "queued"
	StateRunning           State = "running"
	StateDone              State = "done"
	StatePartial           State = "partial"
	StateFailed            State = "failed"
	StateCancelled         State = "cancelled"
	StateResourceExhausted State = "resource_exhausted"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StatePartial, StateFailed, StateCancelled, StateResourceExhausted:
		return true
	}
	return false
}

// ShardState is the lifecycle state of one shard.
type ShardState string

// Shard states. pending → running → {done, failed, resource_exhausted},
// with running → retrying → running loops while the retry budget lasts.
// A shard interrupted by its job's end or by daemon shutdown reverts to
// pending (the interruption costs no budget).
const (
	ShardPending   ShardState = "pending"
	ShardRunning   ShardState = "running"
	ShardRetrying  ShardState = "retrying"
	ShardDone      ShardState = "done"
	ShardFailed    ShardState = "failed"
	ShardExhausted ShardState = "resource_exhausted"
)

// Terminal reports whether the shard state is final.
func (s ShardState) Terminal() bool {
	return s == ShardDone || s == ShardFailed || s == ShardExhausted
}

// Shard is one per-sequence unit of a job. All mutable fields are guarded
// by the owning Job's mutex; the exported getters are safe to call from
// Hooks (a shard's fields never change once it is terminal) and from the
// Runner on the attempt's own goroutine.
type Shard struct {
	index int
	seq   *seq.Sequence

	state      ShardState
	scheduled  bool // holds one of the job's in-flight slots
	attempts   int
	replayed   bool // restored complete from the journal, not mined this boot
	cacheHit   bool // answered from the result cache when its job was submitted
	result     *core.Result
	levels     []core.LevelMetrics
	err        error
	note       string
	finishedAt time.Time
}

// Index returns the shard's position in the job (0-based).
func (s *Shard) Index() int { return s.index }

// Name returns the shard sequence's name.
func (s *Shard) Name() string { return s.seq.Name() }

// Seq returns the shard's subject sequence.
func (s *Shard) Seq() *seq.Sequence { return s.seq }

// State returns the shard's state.
func (s *Shard) State() ShardState { return s.state }

// Attempts returns how many executions the shard consumed.
func (s *Shard) Attempts() int { return s.attempts }

// Spec describes a job to NewJob.
type Spec struct {
	// ID is the job identifier; Kind says which endpoint submitted it
	// (the engine never reads it); Name labels the job (may be empty).
	ID, Kind, Name string
	// Algorithm and Params apply to every shard.
	Algorithm core.Algorithm
	Params    core.Params
	// Seqs are the shard subject sequences, one shard per sequence, in
	// input order. Must be non-empty and share one alphabet.
	Seqs []*seq.Sequence
	// Ctx and Cancel bound the whole job's execution (the manager derives
	// them from its base context so daemon shutdown interrupts shards).
	Ctx    context.Context
	Cancel context.CancelFunc
	// Trace links the job's attempt spans to the submitting request; each
	// attempt runs under a span named Span ("job.run", "corpus.shard").
	// Queue, when set, covers the wait for the first attempt: the engine
	// ends it when that attempt starts or the job ends first.
	Trace obs.SpanContext
	Span  string
	Queue *obs.Span
	// Timeout bounds the job from its first attempt (0: none); on expiry
	// the job ends with the shards that finished in time. ShardTimeout
	// bounds each attempt (0: none); a lapsed attempt is retried.
	Timeout, ShardTimeout time.Duration
	// Attempts is the crash-recovery execution count already consumed
	// (non-zero only for restored jobs).
	Attempts int
	// CreatedAt defaults to now (restored jobs carry their original time).
	CreatedAt time.Time
}

// Job is one mining job: a set of shards plus the merge of their results.
// All mutable state is guarded by mu; read through Snapshot.
type Job struct {
	id, kind, name string
	algorithm      core.Algorithm
	params         core.Params
	trace          obs.SpanContext
	span           string
	queueSpan      *obs.Span
	timeout        time.Duration
	shardTimeout   time.Duration

	ctx    context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	state      State
	shards     []*Shard
	inflight   int
	attempts   int
	deadline   *time.Timer
	accepted   View
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	merged     *Result
	err        error
	note       string
}

// NewJob builds a job with one pending shard per sequence.
func NewJob(spec Spec) (*Job, error) {
	if len(spec.Seqs) == 0 {
		return nil, errors.New("corpus: a job needs at least one sequence")
	}
	alpha := spec.Seqs[0].Alphabet()
	for _, s := range spec.Seqs[1:] {
		if s.Alphabet() != alpha {
			return nil, fmt.Errorf("corpus: mixed alphabets (%s and %s) in one corpus",
				alpha.Name(), s.Alphabet().Name())
		}
	}
	if spec.Ctx == nil {
		spec.Ctx, spec.Cancel = context.WithCancel(context.Background())
	}
	if spec.CreatedAt.IsZero() {
		spec.CreatedAt = time.Now()
	}
	j := &Job{
		id: spec.ID, kind: spec.Kind, name: spec.Name,
		algorithm: spec.Algorithm, params: spec.Params,
		trace: spec.Trace, span: spec.Span, queueSpan: spec.Queue,
		timeout: spec.Timeout, shardTimeout: spec.ShardTimeout,
		ctx: spec.Ctx, cancel: spec.Cancel,
		state: StateQueued, attempts: spec.Attempts, createdAt: spec.CreatedAt,
	}
	for i, s := range spec.Seqs {
		j.shards = append(j.shards, &Shard{index: i, seq: s, state: ShardPending})
	}
	return j, nil
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Kind returns the submitting endpoint's label.
func (j *Job) Kind() string { return j.kind }

// Name returns the job's label.
func (j *Job) Name() string { return j.name }

// Algorithm returns the mining algorithm applied to every shard.
func (j *Job) Algorithm() core.Algorithm { return j.algorithm }

// Params returns the mining parameters applied to every shard.
func (j *Job) Params() core.Params { return j.params }

// Context returns the job's context, cancelled when the job ends.
func (j *Job) Context() context.Context { return j.ctx }

// Timeout returns the job's deadline (0: none).
func (j *Job) Timeout() time.Duration { return j.timeout }

// Shard returns the i-th shard.
func (j *Job) Shard(i int) *Shard { return j.shards[i] }

// Sequences returns the shard subject sequences in shard order.
func (j *Job) Sequences() []*seq.Sequence {
	out := make([]*seq.Sequence, len(j.shards))
	for i, s := range j.shards {
		out[i] = s.seq
	}
	return out
}

// State returns the job's lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Attempts returns the crash-recovery execution count.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Accepted returns the job as its submit accepted it: snapshotted before
// any shard could run, so the answer to a submit reads queued (or
// terminal, for a job answered at submit) however soon a worker starts it.
func (j *Job) Accepted() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.accepted
}

// AddLevel records one completed mining level of a shard's running
// attempt and returns the shard's level count — the sequence number of
// its progress events.
func (j *Job) AddLevel(s *Shard, lm core.LevelMetrics) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	s.levels = append(s.levels, lm)
	return len(s.levels)
}

// SetNote sets a running shard's note (a forwarded shard names its peer).
func (j *Job) SetNote(s *Shard, note string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s.note = note
}

// RestoreShard folds one journaled shard checkpoint into the job before
// it is (re-)dispatched: state done with its result, failed with the
// error that exhausted its budget, or resource_exhausted with its partial
// result. Restored shards are marked replayed so observers can tell them
// from re-mined ones; duplicates keep the first outcome.
func (j *Job) RestoreShard(index int, state ShardState, attempts int, res *core.Result, errMsg string, finishedAt time.Time) error {
	if index < 0 || index >= len(j.shards) {
		return fmt.Errorf("corpus: shard index %d out of range (job has %d shards)", index, len(j.shards))
	}
	if !state.Terminal() {
		return fmt.Errorf("corpus: cannot restore shard %d to non-terminal state %q", index, state)
	}
	if state != ShardFailed && res == nil {
		return fmt.Errorf("corpus: restored shard %d is %s but has no result", index, state)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.shards[index]
	if s.state.Terminal() {
		return nil // duplicate checkpoint; first outcome wins
	}
	s.state, s.attempts, s.result, s.finishedAt = state, attempts, res, finishedAt
	s.replayed = true
	if res != nil {
		s.levels = res.Levels
	}
	if errMsg != "" {
		s.err = errors.New(errMsg)
	}
	return nil
}

// AnswerShard settles a shard from the result cache before the job is
// started, as done; note says how the cached result answers it (empty
// for an exact hit, which then carries the outcome rule's note, as a
// fresh run would).
func (j *Job) AnswerShard(index int, res *core.Result, note string) {
	if note == "" {
		_, note, _ = Outcome(res, nil)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.shards[index]
	s.state, s.result, s.levels, s.note = ShardDone, res, res.Levels, note
	s.cacheHit = true
	s.finishedAt = time.Now()
}

// RestoreTerminal restores a journaled terminal job (queryable but never
// re-dispatched): its final state, merged result (nil: merge the
// shards), and timings.
func (j *Job) RestoreTerminal(state State, merged *Result, errMsg, note string, startedAt, finishedAt time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.merged, j.note = state, merged, note
	j.startedAt, j.finishedAt = startedAt, finishedAt
	if errMsg != "" {
		j.err = errors.New(errMsg)
	}
	j.cancel()
}

// Finish ends a job whose every shard was settled before it started (all
// answered from the cache): no hook fires, the caller journals and
// reports it. Returns false, doing nothing, while any shard is pending.
func (j *Job) Finish() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.settledLocked() {
		return false
	}
	j.startedAt = time.Now()
	j.state, j.err, j.note = j.outcomeLocked()
	j.finishedAt = j.startedAt
	j.accepted = j.snapshotLocked()
	j.cancel()
	return true
}

// ReplayedShards counts shards restored complete from the journal.
func (j *Job) ReplayedShards() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, s := range j.shards {
		if s.replayed {
			n++
		}
	}
	return n
}

// Merged returns the merged result of a terminal job (nil before): the
// journaled merge of a restored job, else the merge of its shards.
func (j *Job) Merged() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.merged == nil && j.state.Terminal() {
		j.merged = j.snapshotLocked().Merge()
	}
	return j.merged
}

// ShardView is the JSON representation of one shard's state. The fields
// without a JSON name carry what the single-sequence job view shows.
type ShardView struct {
	Index    int        `json:"index"`
	Name     string     `json:"name"`
	SeqLen   int        `json:"seq_len"`
	State    ShardState `json:"state"`
	Attempts int        `json:"attempts"`
	// Patterns is the shard's frequent-pattern count (done shards only).
	Patterns int `json:"patterns,omitempty"`
	// Replayed marks a shard restored complete from the journal after a
	// crash instead of mined in this process.
	Replayed bool   `json:"replayed,omitempty"`
	Error    string `json:"error,omitempty"`

	CacheHit   bool                `json:"-"`
	Note       string              `json:"-"`
	Result     *core.Result        `json:"-"`
	Levels     []core.LevelMetrics `json:"-"`
	FinishedAt time.Time           `json:"-"`
}

// View is the JSON representation of a job at one instant.
type View struct {
	ID            string      `json:"id"`
	Name          string      `json:"name,omitempty"`
	State         State       `json:"state"`
	Algorithm     string      `json:"algorithm"`
	ShardCount    int         `json:"shard_count"`
	ShardsDone    int         `json:"shards_done"`
	ShardsFailed  int         `json:"shards_failed"`
	ShardsPending int         `json:"shards_pending"`
	Attempts      int         `json:"attempts,omitempty"`
	CreatedAt     time.Time   `json:"created_at"`
	StartedAt     *time.Time  `json:"started_at,omitempty"`
	FinishedAt    *time.Time  `json:"finished_at,omitempty"`
	Shards        []ShardView `json:"shards,omitempty"`
	// Result is the merged result, present only in terminal states (the
	// corpus view sets it from Job.Merged).
	Result *Result `json:"result,omitempty"`
	// FailedShards is the explicit manifest of terminal shards missing
	// from the merge (partial/failed jobs).
	FailedShards []FailedShard `json:"failed_shards,omitempty"`
	Error        string        `json:"error,omitempty"`
	Note         string        `json:"note,omitempty"`
	TraceID      string        `json:"trace_id,omitempty"`
}

// viewLocked renders one shard. Caller holds the job's mutex (or the
// shard is terminal).
func (s *Shard) viewLocked() ShardView {
	v := ShardView{
		Index: s.index, Name: s.seq.Name(), SeqLen: s.seq.Len(),
		State: s.state, Attempts: s.attempts, Replayed: s.replayed,
		CacheHit: s.cacheHit, Note: s.note, Result: s.result,
		Levels: s.levels[:len(s.levels):len(s.levels)], FinishedAt: s.finishedAt,
	}
	if s.result != nil && s.state == ShardDone {
		v.Patterns = len(s.result.Patterns)
	}
	if s.err != nil {
		v.Error = s.err.Error()
	}
	return v
}

// View renders the shard for hooks and events. Safe without the job lock
// only for terminal shards (the Hooks contract).
func (s *Shard) View() ShardView { return s.viewLocked() }

// Snapshot renders the job at one instant.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job) snapshotLocked() View {
	v := View{
		ID: j.id, Name: j.name, State: j.state, Algorithm: j.algorithm.String(),
		ShardCount: len(j.shards), Attempts: j.attempts, CreatedAt: j.createdAt,
		Note: j.note, TraceID: j.trace.TraceID,
	}
	for _, s := range j.shards {
		v.Shards = append(v.Shards, s.viewLocked())
		switch {
		case s.state == ShardDone:
			v.ShardsDone++
		case s.state.Terminal():
			v.ShardsFailed++
		default:
			v.ShardsPending++
		}
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
		v.FailedShards = v.failedManifest()
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// FailedShard is one entry of a job's failed-shard manifest.
type FailedShard struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
}

// ShardSupport is one shard's contribution to a merged pattern: the
// provenance record saying where the pattern was frequent and how strongly.
type ShardSupport struct {
	// Shard is the contributing shard's index; Name its sequence name.
	Shard int    `json:"shard"`
	Name  string `json:"name"`
	// Support and Ratio are the pattern's support and support ratio within
	// that shard.
	Support int64   `json:"support"`
	Ratio   float64 `json:"ratio"`
}

// MergedPattern is one pattern of the merged result.
type MergedPattern struct {
	// Chars is the shorthand pattern string.
	Chars string `json:"chars"`
	// Shards counts the shards in which the pattern is frequent; Support
	// sums its support across them.
	Shards  int   `json:"shards"`
	Support int64 `json:"support"`
	// PerShard is the per-shard provenance, in shard order.
	PerShard []ShardSupport `json:"per_shard"`
}

// Result is the merged outcome of a job. It is deterministic in the job's
// content alone — shard completion order, retries and crash/resume cycles
// do not change a byte of it.
type Result struct {
	Algorithm string `json:"algorithm"`
	// Shards is the shard count; Mined how many completed.
	Shards int `json:"shards"`
	Mined  int `json:"mined"`
	// Failed names the shards missing from the merge.
	Failed []FailedShard `json:"failed,omitempty"`
	// Patterns is the union of the per-shard frequent pattern sets, sorted
	// by length then lexicographically, each with per-shard provenance.
	Patterns []MergedPattern `json:"patterns"`
}

// failedManifest lists the terminal shards that did not complete, in
// shard order.
func (v View) failedManifest() []FailedShard {
	var out []FailedShard
	for _, s := range v.Shards {
		if s.State.Terminal() && s.State != ShardDone {
			out = append(out, FailedShard{Index: s.Index, Name: s.Name, Attempts: s.Attempts, Error: s.Error})
		}
	}
	return out
}

// Merge builds the merged result from the view's done shards. Iterating
// shards in index order and sorting the union makes the output
// deterministic regardless of completion order.
func (v View) Merge() *Result {
	res := &Result{Algorithm: v.Algorithm, Shards: len(v.Shards), Failed: v.failedManifest()}
	merged := make(map[string]*MergedPattern)
	for _, s := range v.Shards {
		if s.State != ShardDone || s.Result == nil {
			continue
		}
		res.Mined++
		for _, p := range s.Result.Patterns {
			mp, ok := merged[p.Chars]
			if !ok {
				mp = &MergedPattern{Chars: p.Chars}
				merged[p.Chars] = mp
			}
			mp.Shards++
			mp.Support += p.Support
			mp.PerShard = append(mp.PerShard, ShardSupport{
				Shard: s.Index, Name: s.Name, Support: p.Support, Ratio: p.Ratio,
			})
		}
	}
	res.Patterns = make([]MergedPattern, 0, len(merged))
	for _, mp := range merged {
		res.Patterns = append(res.Patterns, *mp)
	}
	sort.Slice(res.Patterns, func(i, k int) bool {
		if len(res.Patterns[i].Chars) != len(res.Patterns[k].Chars) {
			return len(res.Patterns[i].Chars) < len(res.Patterns[k].Chars)
		}
		return res.Patterns[i].Chars < res.Patterns[k].Chars
	})
	return res
}

// Outcome is the one rule that classifies a shard attempt the engine does
// not retry: its terminal state, the note it reports and the error that
// ended it. A budget-stopped run keeps its completed levels: the
// candidate budget's (Result.Truncated, with or without
// core.ErrBudgetExceeded) is done with a note, the memory budget's is
// resource_exhausted. Any other error fails the shard.
func Outcome(res *core.Result, err error) (ShardState, string, error) {
	var exhausted *core.ResourceExhaustedError
	switch {
	case res != nil && errors.As(err, &exhausted):
		return ShardExhausted, fmt.Sprintf("memory budget exhausted at level %d; completed levels only", exhausted.Level), err
	case err == nil || (res != nil && errors.Is(err, core.ErrBudgetExceeded)):
		if res != nil && res.Truncated {
			return ShardDone, "candidate budget exhausted; completed levels only", nil
		}
		return ShardDone, "", nil
	default:
		return ShardFailed, "", err
	}
}

// settledLocked reports whether every shard is terminal.
func (j *Job) settledLocked() bool {
	for _, s := range j.shards {
		if !s.state.Terminal() {
			return false
		}
	}
	return true
}

// outcomeLocked derives a settled job's state from its shards: done when
// all completed, resource_exhausted when all hit their memory budget,
// failed when none completed, partial otherwise. A one-shard job reports
// its shard's own error and note.
func (j *Job) outcomeLocked() (State, error, string) {
	done, exhausted := 0, 0
	for _, s := range j.shards {
		switch s.state {
		case ShardDone:
			done++
		case ShardExhausted:
			exhausted++
		}
	}
	n := len(j.shards)
	if n == 1 {
		s := j.shards[0]
		state := StateFailed
		switch s.state {
		case ShardDone:
			state = StateDone
		case ShardExhausted:
			state = StateResourceExhausted
		}
		return state, s.err, s.note
	}
	switch {
	case done == n:
		return StateDone, nil, ""
	case exhausted == n:
		return StateResourceExhausted, fmt.Errorf("all %d shards exhausted their memory budget", n), ""
	case done == 0:
		return StateFailed, fmt.Errorf("all %d shards failed", n), ""
	default:
		return StatePartial, nil, fmt.Sprintf("%d of %d shards failed; merged the %d completed shards", n-done, n, done)
	}
}
