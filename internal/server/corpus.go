package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"time"

	"permine/internal/cluster"
	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/obs"
	"permine/internal/retry"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// This file wires internal/corpus behind the manager and the HTTP API:
// corpus submission splits a multi-FASTA input into per-sequence shards,
// the engine schedules them on the shared worker pool, per-shard
// checkpoints flow into the WAL as shard_done/shard_failed events, and the
// merged result (with per-shard provenance and a failed-shard manifest) is
// served from GET /v1/corpus/{id}.

// ErrCorpusNotFound reports an unknown corpus id.
var ErrCorpusNotFound = errors.New("server: corpus not found")

// ErrCorpusFinished rejects cancelling a corpus already terminal.
var ErrCorpusFinished = errors.New("server: corpus already finished")

// SubmitCorpus registers a sharded corpus mining job: one shard per
// sequence, mined with the same algorithm and parameters. The job starts
// immediately (no queued state — shards queue individually on the worker
// pool). timeout > 0 bounds the whole corpus; on expiry the job degrades
// to partial with the shards that finished in time.
func (m *Manager) SubmitCorpus(rctx context.Context, name string, seqs []*seq.Sequence, algo core.Algorithm, params core.Params, timeout time.Duration) (*corpus.Job, error) {
	_, span := obs.Start(rctx, "corpus.job",
		obs.KV("algorithm", algo.String()), obs.KV("shards", len(seqs)))
	defer span.End()
	if params.MemoryBudget == 0 {
		params.MemoryBudget = m.cfg.MemBudget
	}
	np, err := params.Normalize()
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	// Corpus jobs are the most expensive admission class: they fan out
	// into many shards and are never cache-derivable as a whole, so the
	// governor sheds them first when brownout begins.
	if err := m.admit(shedClassCorpus); err != nil {
		span.RecordError(err)
		return nil, err
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		span.RecordError(ErrShuttingDown)
		return nil, ErrShuttingDown
	}
	m.nextCorpusID++
	id := fmt.Sprintf("c-%06d", m.nextCorpusID)
	span.SetAttr("corpus", id)
	j, err := corpus.NewJob(corpus.Spec{
		ID: id, Name: name, Algorithm: algo, Params: np,
		Seqs: seqs, Ctx: ctx, Cancel: cancel, Trace: span.Context(),
	})
	if err != nil {
		m.nextCorpusID--
		m.mu.Unlock()
		cancel()
		span.RecordError(err)
		return nil, err
	}
	m.registerCorpus(j)
	m.mu.Unlock()

	m.cfg.Store.AppendSubmit(corpusRecord(j, timeout))
	m.corpusTransition("", corpus.StateRunning)
	m.corpus.Start(j)
	if timeout > 0 {
		time.AfterFunc(timeout, func() {
			if m.corpus.Expire(j, timeout) {
				m.cfg.Logger.Warn("corpus deadline expired", "corpus", j.ID(), "timeout", timeout)
			}
		})
	}
	m.cfg.Logger.Info("corpus submitted", "corpus", id,
		"algorithm", algo.String(), "shards", len(seqs))
	return j, nil
}

// registerCorpus indexes the corpus job and prunes old terminal ones
// beyond the retention bound. Caller holds m.mu.
func (m *Manager) registerCorpus(j *corpus.Job) {
	m.corpusJobs[j.ID()] = j
	m.corpusOrder = append(m.corpusOrder, j.ID())
	if len(m.corpusJobs) <= m.cfg.Retain {
		return
	}
	kept := m.corpusOrder[:0]
	for _, id := range m.corpusOrder {
		old, ok := m.corpusJobs[id]
		if !ok {
			continue
		}
		if len(m.corpusJobs) > m.cfg.Retain && old.State().Terminal() {
			delete(m.corpusJobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.corpusOrder = kept
}

// GetCorpus returns the corpus job with the given id.
func (m *Manager) GetCorpus(id string) (*corpus.Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.corpusJobs[id]
	return j, ok
}

// CorpusJobs returns snapshots of every retained corpus job, newest
// first, with per-shard detail and results stripped (list view).
func (m *Manager) CorpusJobs() []corpus.View {
	m.mu.Lock()
	ordered := make([]*corpus.Job, 0, len(m.corpusJobs))
	for i := len(m.corpusOrder) - 1; i >= 0; i-- {
		if j, ok := m.corpusJobs[m.corpusOrder[i]]; ok {
			ordered = append(ordered, j)
		}
	}
	m.mu.Unlock()
	views := make([]corpus.View, len(ordered))
	for i, j := range ordered {
		v := j.Snapshot()
		v.Shards, v.Result = nil, nil
		views[i] = v
	}
	return views
}

// CancelCorpus cancels a running corpus job; in-flight shards stop at the
// next boundary and revert to pending.
func (m *Manager) CancelCorpus(id string) (*corpus.Job, error) {
	j, ok := m.GetCorpus(id)
	if !ok {
		return nil, ErrCorpusNotFound
	}
	if !m.corpus.Cancel(j) {
		return j, ErrCorpusFinished
	}
	m.cfg.Logger.Info("corpus cancelled", "corpus", id)
	return j, nil
}

// runShard mines one corpus shard on a pool worker. It is cache-aware:
// shards keyed identically to single-sequence jobs share the result cache
// in both directions (the corpus engine consults its fault injector
// before calling the runner, so injected faults are never masked by a
// cache hit). Under a cluster the shard is first placed on the ring by its
// cache identity; remote failures return to the corpus engine, whose
// retry budget and backoff requeue the shard — re-placement on the next
// attempt lands on whatever membership the health checker has left alive.
func (m *Manager) runShard(ctx context.Context, j *corpus.Job, s *corpus.Shard) (*core.Result, error) {
	p := j.Params()
	key := KeyFor(s.Seq(), j.Algorithm(), p)
	if m.cfg.Cache != nil {
		if res, ok := m.cfg.Cache.Get(key); ok {
			return res, nil
		}
	}
	var pl cluster.Placement
	if c := m.cfg.Cluster; c != nil {
		if pl = c.Place(key.ID.SeqHash[:]); pl.Node == "" {
			// Local placement still journals the assignment so a restarted
			// coordinator can tell self-owned checkpoints from orphans.
			m.cfg.Store.AppendAssign(j.ID(), store.AssignRecord{
				Shard: s.Index(), Node: c.Self(), At: time.Now(),
			})
		}
	}
	var res *core.Result
	var err error
	if pl.Node != "" {
		res, err = m.mineShardRemote(ctx, j, s, p, pl)
	} else {
		res, err = m.mineLocal(ctx, j.Algorithm(), s.Seq(), p)
	}
	if err != nil {
		return nil, err
	}
	if m.cfg.Cache != nil {
		m.cfg.Cache.Put(key, res)
	}
	return res, nil
}

// onShardEnd journals the shard checkpoint (the resume point a SIGKILL'd
// corpus job restarts from), publishes the per-shard SSE event and counts
// the outcome. The shard is terminal, so its getters are lock-free safe.
func (m *Manager) onShardEnd(j *corpus.Job, s *corpus.Shard) {
	rec := store.ShardRecord{
		Index:      s.Index(),
		Name:       s.Name(),
		State:      string(s.State()),
		Attempts:   s.Attempts(),
		FinishedAt: s.FinishedAt(),
	}
	if res := s.Result(); res != nil {
		rec.Result, _ = json.Marshal(res)
	}
	if err := s.Err(); err != nil {
		rec.Error = err.Error()
	}
	m.cfg.Store.AppendShard(j.ID(), rec)
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusShard(string(s.State()))
	}
	if m.cfg.Events != nil {
		m.cfg.Events.Publish(Event{Type: "shard", Job: j.ID(), Seq: s.Index() + 1, Data: s.View()})
	}
}

// onShardRetry surfaces one scheduled shard retry: counted (with its
// backoff) in metrics and streamed as a "retry" SSE event.
func (m *Manager) onShardRetry(j *corpus.Job, s *corpus.Shard, attempt int, err error, delay time.Duration) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusRetry(delay)
	}
	if m.cfg.Events != nil {
		m.cfg.Events.Publish(Event{Type: "retry", Job: j.ID(), Seq: s.Index() + 1, Data: map[string]any{
			"shard":      s.Index(),
			"attempt":    attempt,
			"error":      err.Error(),
			"backoff_ms": delay.Milliseconds(),
		}})
	}
}

// onCorpusEnd journals the terminal corpus outcome (merged result
// included), counts the transition and ends the job's SSE streams.
func (m *Manager) onCorpusEnd(j *corpus.Job) {
	v := j.Snapshot()
	out := store.Outcome{State: string(v.State), Note: v.Note, Error: v.Error}
	if v.FinishedAt != nil {
		out.FinishedAt = *v.FinishedAt
	}
	if v.Result != nil {
		out.Result, _ = json.Marshal(v.Result)
	}
	m.cfg.Store.AppendOutcome(j.ID(), out)
	m.corpusTransition(corpus.StateRunning, v.State)
	if m.cfg.Events != nil {
		end := v
		end.Result, end.Shards = nil, nil
		m.cfg.Events.EndJob(Event{Type: "end", Job: j.ID(), Seq: v.ShardsDone + v.ShardsFailed, Data: end})
	}
	m.cfg.Logger.Info("corpus finished", "corpus", j.ID(), "state", string(v.State),
		"shards_done", v.ShardsDone, "shards_failed", v.ShardsFailed)
}

// corpusTransition forwards a corpus state change to metrics.
func (m *Manager) corpusTransition(from, to corpus.State) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusTransition(string(from), string(to))
	}
}

// corpusRecord renders the durable submit record of a corpus job: Kind
// "corpus", with SeqData holding the canonical multi-FASTA rendering of
// every shard so a restart re-splits into identical shards.
func corpusRecord(j *corpus.Job, timeout time.Duration) store.JobRecord {
	seqs := j.Sequences()
	params, _ := json.Marshal(j.Params())
	var fasta bytes.Buffer
	_ = seq.WriteFASTA(&fasta, 0, seqs...)
	v := j.Snapshot()
	return store.JobRecord{
		ID:          j.ID(),
		Kind:        "corpus",
		Algorithm:   j.Algorithm().String(),
		SeqName:     j.Name(),
		SeqAlphabet: seqs[0].Alphabet().Name(),
		SeqSymbols:  string(seqs[0].Alphabet().Symbols()),
		SeqData:     fasta.String(),
		ShardCount:  len(seqs),
		Params:      params,
		TimeoutMS:   timeout.Milliseconds(),
		State:       string(v.State),
		Attempts:    v.Attempts,
		CreatedAt:   v.CreatedAt,
	}
}

// corpusFromRecord rebuilds a corpus job from its durable record: the
// canonical FASTA re-splits into identical shards, and journaled shard
// checkpoints are folded back in so completed shards are not re-mined.
func (m *Manager) corpusFromRecord(rec store.JobRecord) (*corpus.Job, error) {
	algo, err := core.ParseAlgorithm(strings.ToLower(rec.Algorithm))
	if err != nil {
		return nil, err
	}
	alpha, err := alphabetFor(rec.SeqAlphabet, rec.SeqSymbols)
	if err != nil {
		return nil, err
	}
	seqs, err := seq.ReadFASTA(strings.NewReader(rec.SeqData), alpha)
	if err != nil {
		return nil, fmt.Errorf("re-splitting corpus: %w", err)
	}
	if rec.ShardCount != 0 && len(seqs) != rec.ShardCount {
		return nil, fmt.Errorf("corpus re-split into %d shards, record says %d", len(seqs), rec.ShardCount)
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
	j, err := corpus.NewJob(corpus.Spec{
		ID: rec.ID, Name: rec.SeqName, Algorithm: algo, Params: np,
		Seqs: seqs, Ctx: ctx, Cancel: cancel,
		Attempts: rec.Attempts, CreatedAt: rec.CreatedAt,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	for _, sh := range rec.Shards {
		var res *core.Result
		if len(sh.Result) > 0 {
			res = new(core.Result)
			if err := json.Unmarshal(sh.Result, res); err != nil {
				cancel()
				return nil, fmt.Errorf("decoding shard %d result: %w", sh.Index, err)
			}
		}
		if err := j.RestoreShard(sh.Index, corpus.ShardState(sh.State), sh.Attempts, res, sh.Error, sh.FinishedAt); err != nil {
			cancel()
			return nil, err
		}
	}
	if state := corpus.State(rec.State); state.Terminal() {
		var merged *corpus.Result
		if len(rec.Result) > 0 {
			merged = new(corpus.Result)
			if err := json.Unmarshal(rec.Result, merged); err != nil {
				cancel()
				return nil, fmt.Errorf("decoding merged result: %w", err)
			}
		}
		j.RestoreTerminal(state, merged, rec.Error, rec.Note, rec.StartedAt, rec.FinishedAt)
	}
	return j, nil
}

// restoreCorpus registers one recovered corpus job: terminal jobs become
// queryable again; interrupted jobs resume from their journaled shard
// checkpoints — re-mining only incomplete shards — after a jittered
// backoff, each resume costing one attempt from the crash-recovery
// budget. Budget exhaustion degrades to partial (the journaled shards
// still merge) instead of discarding completed work.
func (m *Manager) restoreCorpus(rec store.JobRecord, sum *RestoreSummary) {
	j, err := m.corpusFromRecord(rec)
	if err != nil {
		sum.Skipped++
		m.noteRecovered(recoverySkipped, "")
		m.cfg.Logger.Warn("skipping unrecoverable corpus record", "corpus", rec.ID, "err", err)
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if n := corpusIDNumber(j.ID()); n > m.nextCorpusID {
		m.nextCorpusID = n
	}
	m.registerCorpus(j)
	m.mu.Unlock()

	if j.State().Terminal() {
		sum.Terminal++
		m.corpusTransition("", j.State())
		m.noteRecovered(recoveryTerminal, "")
		return
	}

	replayed := j.ReplayedShards()
	sum.ShardsReplayed += replayed
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.CorpusShardsReplayed(replayed)
	}
	m.corpusTransition("", corpus.StateRunning)

	// Journaled assignments pointing at nodes outside the restarted
	// coordinator's membership are orphans: their shards never
	// checkpointed and will re-mine on survivors. Count them so the
	// requeue shows up in permine_cluster_shards_requeued_total.
	// Membership (not health) is the test — every peer is still Unknown
	// this early in boot.
	if c := m.cfg.Cluster; c != nil {
		checkpointed := make(map[int]bool, len(rec.Shards))
		for _, sh := range rec.Shards {
			checkpointed[sh.Index] = true
		}
		for _, a := range rec.Assigns {
			if a.Shard == store.WholeJob || checkpointed[a.Shard] {
				continue
			}
			if !c.Member(a.Node) {
				c.NoteShardRequeued()
				m.cfg.Logger.Warn("shard assigned to departed node; requeueing on survivors",
					"corpus", j.ID(), "shard", a.Shard, "node", a.Node)
			}
		}
	}

	if j.Attempts() >= m.cfg.RetryBudget {
		sum.Exhausted++
		m.noteRecovered(recoveryExhausted, "")
		m.corpus.Exhaust(j, fmt.Errorf(
			"crash recovery: retry budget exhausted after %d interrupted attempts", j.Attempts()))
		m.cfg.Logger.Warn("recovered corpus exceeds retry budget; merged journaled shards",
			"corpus", j.ID(), "attempts", j.Attempts())
		return
	}

	attempts := j.Attempts() + 1
	j.SetAttempts(attempts)
	sum.Requeued++
	m.noteRecovered(recoveryRequeued, "")
	m.cfg.Store.AppendState(j.ID(), string(corpus.StateRunning), attempts, time.Now())
	delay := retry.Backoff(m.cfg.RetryBackoff, maxRetryDelay, attempts)
	time.AfterFunc(delay, func() {
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return
		}
		m.corpus.Start(j)
	})
	m.cfg.Logger.Info("resuming interrupted corpus", "corpus", j.ID(),
		"attempt", attempts, "backoff", delay,
		"shards_replayed", replayed, "shards_total", rec.ShardCount)
}

// corpusIDNumber extracts the numeric part of a "c-000042" corpus id.
func corpusIDNumber(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "c-%d", &n); err != nil {
		return 0
	}
	return n
}

// corpusRequest is the JSON body of POST /v1/corpus: a multi-FASTA
// payload mined shard-per-sequence under shared parameters.
type corpusRequest struct {
	Name      string     `json:"name,omitempty"`
	Algorithm string     `json:"algorithm"`
	Params    paramsJSON `json:"params"`
	FASTA     string     `json:"fasta"`
	Alphabet  string     `json:"alphabet,omitempty"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

// decodeCorpusRequest parses POST /v1/corpus: a JSON body, or a raw FASTA
// body (text/x-fasta or text/plain) with parameters in the query string.
func decodeCorpusRequest(r *http.Request) (corpusRequest, error) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "text/x-fasta" || ct == "text/plain" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return corpusRequest{}, fmt.Errorf("reading FASTA body: %w", err)
		}
		jr, err := jobRequestFromQuery(r, string(body))
		if err != nil {
			return corpusRequest{}, err
		}
		return corpusRequest{
			Name:      r.URL.Query().Get("name"),
			Algorithm: jr.Algorithm,
			Params:    jr.Params,
			FASTA:     jr.FASTA,
			Alphabet:  jr.fastaAlphabet,
			TimeoutMS: jr.TimeoutMS,
		}, nil
	}
	var req corpusRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return corpusRequest{}, fmt.Errorf("decoding JSON body: %w", err)
	}
	return req, nil
}

// handleCorpusSubmit implements POST /v1/corpus.
func (s *Server) handleCorpusSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeCorpusRequest(r)
	if err != nil {
		if tooLarge(w, err) {
			return
		}
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Algorithm == "" {
		req.Algorithm = "mppm"
	}
	algo, err := core.ParseAlgorithm(strings.ToLower(req.Algorithm))
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.FASTA == "" {
		apiError(w, http.StatusBadRequest, "missing fasta: a corpus is a multi-FASTA payload")
		return
	}
	alpha, err := resolveAlphabet(req.Alphabet)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seqs, err := seq.ReadFASTA(strings.NewReader(req.FASTA), alpha)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	params, err := req.Params.toParams()
	if err != nil {
		apiError(w, http.StatusBadRequest, "invalid params: %v", err)
		return
	}
	if _, err := params.Normalize(); err != nil {
		apiError(w, http.StatusBadRequest, "invalid params: %v", err)
		return
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout < 0 {
		apiError(w, http.StatusBadRequest, "timeout_ms must be >= 0")
		return
	}
	if s.cfg.MaxTimeout > 0 && timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	job, err := s.mgr.SubmitCorpus(r.Context(), req.Name, seqs, algo, params, timeout)
	switch {
	case errors.Is(err, ErrOverloaded):
		s.rejectBusy(w, err)
		return
	case errors.Is(err, ErrShuttingDown):
		apiError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

// handleCorpusList implements GET /v1/corpus.
func (s *Server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"corpus": s.mgr.CorpusJobs()})
}

// handleCorpusGet implements GET /v1/corpus/{id}.
func (s *Server) handleCorpusGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.GetCorpus(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "corpus %q not found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// handleCorpusCancel implements DELETE /v1/corpus/{id}.
func (s *Server) handleCorpusCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.mgr.CancelCorpus(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrCorpusNotFound):
		apiError(w, http.StatusNotFound, "corpus %q not found", r.PathValue("id"))
		return
	case errors.Is(err, ErrCorpusFinished):
		apiError(w, http.StatusConflict, "corpus %q already %s", job.ID(), job.State())
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// handleCorpusEvents implements GET /v1/corpus/{id}/events: per-shard
// completions ("shard"), scheduled retries ("retry") and the terminal
// "end" as Server-Sent Events. Shards already terminal when the client
// connects are replayed from the snapshot. A daemon shutdown sends a final
// "shutdown" event before the stream closes.
func (s *Server) handleCorpusEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.mgr.GetCorpus(id)
	if !ok {
		apiError(w, http.StatusNotFound, "corpus %q not found", id)
		return
	}
	s.streamEvents(w, r, id, func() []Event {
		snap := job.Snapshot()
		var evs []Event
		for _, sv := range snap.Shards {
			if sv.State.Terminal() {
				evs = append(evs, Event{Type: "shard", Job: id, Seq: sv.Index + 1, Data: sv})
			}
		}
		if snap.State.Terminal() {
			end := snap
			end.Result, end.Shards = nil, nil
			evs = append(evs, Event{Type: "end", Job: id, Seq: len(evs), Data: end})
		}
		return evs
	})
}

// tooLarge maps a MaxBytesReader overflow to 413 with the limit in the
// message; returns false for other errors.
func tooLarge(w http.ResponseWriter, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	apiError(w, http.StatusRequestEntityTooLarge,
		"request body exceeds the %d-byte limit (see -max-body-bytes)", mbe.Limit)
	return true
}
