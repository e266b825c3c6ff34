package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/seq"
	"permine/internal/server/store"
)

// Recovery outcome labels reported under the metrics snapshot's "recovery"
// map and counted by Manager.Restore.
const (
	recoveryTerminal  = "terminal"        // restored already finished, result queryable
	recoveryRequeued  = "requeued"        // interrupted job queued for re-execution
	recoveryExhausted = "retry_exhausted" // interrupted job ended: retry budget spent
	recoverySkipped   = "skipped"         // record could not be decoded
)

// record renders a job's durable record from its view. A /v1/jobs job
// records its one sequence and, once terminal, its shard's result; a
// corpus records the canonical multi-FASTA rendering of every shard (so a
// restart re-splits into identical shards), a checkpoint of each shard
// already done, and once terminal its merged result.
func record(j *corpus.Job, v corpus.View) store.JobRecord {
	params, _ := json.Marshal(j.Params())
	seqs := j.Sequences()
	rec := store.JobRecord{
		ID:          v.ID,
		Algorithm:   v.Algorithm,
		SeqName:     seqs[0].Name(),
		SeqAlphabet: seqs[0].Alphabet().Name(),
		SeqSymbols:  string(seqs[0].Alphabet().Symbols()),
		SeqData:     seqs[0].Data(),
		Params:      params,
		TimeoutMS:   j.Timeout().Milliseconds(),
		State:       string(v.State),
		Attempts:    v.Attempts,
		CreatedAt:   v.CreatedAt,
		Result:      resultJSON(j, v),
		Error:       v.Error,
		Note:        v.Note,
	}
	if v.StartedAt != nil {
		rec.StartedAt = *v.StartedAt
	}
	if v.FinishedAt != nil {
		rec.FinishedAt = *v.FinishedAt
	}
	switch {
	case isCorpus(j):
		var fasta bytes.Buffer
		_ = seq.WriteFASTA(&fasta, 0, seqs...)
		rec.Kind, rec.SeqName, rec.SeqData, rec.ShardCount = kindCorpus, j.Name(), fasta.String(), len(seqs)
		for _, sv := range v.Shards {
			if sv.State == corpus.ShardDone {
				rec.Shards = append(rec.Shards, checkpoint(sv))
			}
		}
	case j.Params().TopK > 0 || j.Params().Motif != "":
		// Query jobs (top-K / targeted) carry their query fields inside
		// Params; the kind marks them for observability.
		rec.Kind = "query"
	}
	return rec
}

// checkpoint renders one terminal shard's journal checkpoint.
func checkpoint(sv corpus.ShardView) store.ShardRecord {
	rec := store.ShardRecord{
		Index: sv.Index, Name: sv.Name, State: string(sv.State),
		Attempts: sv.Attempts, Error: sv.Error, FinishedAt: sv.FinishedAt,
	}
	if sv.Result != nil {
		rec.Result, _ = json.Marshal(sv.Result)
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

// jobFromRecord rebuilds a job from its durable record, with a live
// context rooted at the manager: its shards (a corpus re-split from its
// canonical FASTA), each journaled checkpoint folded back in so completed
// shards are not re-mined, and for a terminal job its final state and
// result.
func (m *Manager) jobFromRecord(rec store.JobRecord) (*corpus.Job, error) {
	state := corpus.State(rec.State)
	if !state.Terminal() && state != corpus.StateQueued && state != corpus.StateRunning {
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
	var params core.Params
	if err := json.Unmarshal(rec.Params, &params); err != nil {
		return nil, fmt.Errorf("decoding params: %w", err)
	}
	np, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	kind, name := kindJob, ""
	var seqs []*seq.Sequence
	if rec.Kind == kindCorpus {
		kind, name = kindCorpus, rec.SeqName
		if seqs, err = seq.ReadFASTA(strings.NewReader(rec.SeqData), alpha); err != nil {
			return nil, fmt.Errorf("re-splitting corpus: %w", err)
		}
		if rec.ShardCount != 0 && len(seqs) != rec.ShardCount {
			return nil, fmt.Errorf("corpus re-split into %d shards, record says %d", len(seqs), rec.ShardCount)
		}
	} else {
		s, err := seq.New(alpha, rec.SeqName, rec.SeqData)
		if err != nil {
			return nil, err
		}
		seqs = []*seq.Sequence{s}
	}
	j, err := m.newJob(kind, corpus.Spec{
		ID: rec.ID, Name: name, Algorithm: algo, Params: np, Seqs: seqs,
		Timeout:  time.Duration(rec.TimeoutMS) * time.Millisecond,
		Attempts: rec.Attempts, CreatedAt: rec.CreatedAt,
	})
	if err != nil {
		return nil, err
	}
	shards := rec.Shards
	var merged *corpus.Result
	if len(rec.Result) > 0 && kind == kindCorpus {
		merged = new(corpus.Result)
		err = json.Unmarshal(rec.Result, merged)
	} else if len(rec.Result) > 0 {
		// A /v1/jobs record's result is its one shard's.
		shard := store.ShardRecord{State: string(corpus.ShardDone), Result: rec.Result, FinishedAt: rec.FinishedAt}
		if state == corpus.StateResourceExhausted {
			shard.State, shard.Error = string(corpus.ShardExhausted), rec.Error
		}
		shards = append(shards, shard)
	}
	for _, sh := range shards {
		if err != nil {
			break
		}
		var res *core.Result
		if len(sh.Result) > 0 {
			res = new(core.Result)
			if err = json.Unmarshal(sh.Result, res); err != nil {
				err = fmt.Errorf("decoding shard %d result: %w", sh.Index, err)
				break
			}
		}
		err = j.RestoreShard(sh.Index, corpus.ShardState(sh.State), sh.Attempts, res, sh.Error, sh.FinishedAt)
	}
	if err != nil {
		m.engine.Interrupt(j)
		return nil, err
	}
	if state.Terminal() {
		j.RestoreTerminal(state, merged, rec.Error, rec.Note, rec.StartedAt, rec.FinishedAt)
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
	// they end failed, or partial when journaled shards completed.
	Exhausted int
	// Skipped records could not be decoded and were dropped with a warning.
	Skipped int
	// ShardsReplayed counts corpus shards restored complete from their
	// journal checkpoints — work a resumed corpus did NOT redo.
	ShardsReplayed int
}

// Restore registers jobs recovered from the store: terminal jobs become
// queryable again (their done shards also re-warm the cache), and jobs
// that were queued or running at crash time resume — re-mining only
// their incomplete shards — through the engine's Recover, each restart
// costing one attempt of the retry budget after a jittered backoff, so a
// crash-looping job cannot hot-loop the daemon.
//
// Restore must run before the first Submit (cmd/permined restores during
// boot, before serving) so recovered identifiers cannot collide with new
// ones.
func (m *Manager) Restore(records []store.JobRecord) RestoreSummary {
	var sum RestoreSummary
	for _, rec := range records {
		j, err := m.jobFromRecord(rec)
		if err != nil {
			sum.Skipped++
			m.recovered(nil, "", recoverySkipped)
			m.cfg.Logger.Warn("skipping unrecoverable job record", "job", rec.ID, "err", err)
			continue
		}
		m.mu.Lock()
		if m.closed.Load() {
			m.mu.Unlock()
			m.engine.Interrupt(j)
			break
		}
		if _, n, ok := strings.Cut(j.ID(), "-"); ok {
			if n, err := strconv.ParseUint(n, 10, 64); err == nil && n > m.nextID {
				m.nextID = n
			}
		}
		m.register(j)
		m.mu.Unlock()

		v := j.Snapshot()
		if v.State.Terminal() {
			sum.Terminal++
			m.recovered(j, v.State, recoveryTerminal)
			for i, sv := range v.Shards {
				if sv.State == corpus.ShardDone && sv.Result != nil && m.cfg.Cache != nil {
					m.cfg.Cache.Put(KeyFor(j.Shard(i).Seq(), j.Algorithm(), j.Params()), sv.Result)
				}
			}
			continue
		}
		replayed := j.ReplayedShards()
		sum.ShardsReplayed += replayed
		if isCorpus(j) {
			m.cfg.Metrics.CorpusShardsReplayed(replayed)
		}
		m.countOrphans(j, rec)
		attempt, delay, ok := m.engine.Recover(j)
		if !ok {
			sum.Exhausted++
			m.recovered(j, corpus.StateQueued, recoveryExhausted)
			m.cfg.Logger.Warn("recovered job exceeds retry budget", "job", j.ID(), "attempts", attempt)
			continue
		}
		sum.Requeued++
		m.recovered(j, corpus.StateQueued, recoveryRequeued)
		m.cfg.Store.AppendState(j.ID(), string(corpus.StateQueued), attempt, time.Now())
		m.cfg.Logger.Info("requeueing interrupted job", "job", j.ID(), "attempt", attempt,
			"backoff", delay, "shards_replayed", replayed, "shards", len(v.Shards))
	}
	return sum
}

// countOrphans counts the journaled placements of a recovered job that
// point at nodes outside the restarted coordinator's membership: their
// shards never checkpointed and will re-mine on survivors, so the requeue
// shows up in permine_cluster_shards_requeued_total. Membership (not
// health) is the test — every peer is still Unknown this early in boot.
func (m *Manager) countOrphans(j *corpus.Job, rec store.JobRecord) {
	c := m.cfg.Cluster
	if c == nil {
		return
	}
	checkpointed := make(map[int]bool, len(rec.Shards))
	for _, sh := range rec.Shards {
		checkpointed[sh.Index] = true
	}
	for _, a := range rec.Assigns {
		if a.Shard == store.WholeJob || checkpointed[a.Shard] || c.Member(a.Node) {
			continue
		}
		c.NoteShardRequeued()
		m.cfg.Logger.Warn("shard assigned to departed node; requeueing on survivors",
			"job", j.ID(), "shard", a.Shard, "node", a.Node)
	}
}

// recovered forwards one recovery outcome, and the recovered job's state,
// to metrics (nil job: a record that produced none).
func (m *Manager) recovered(j *corpus.Job, state corpus.State, outcome string) {
	m.cfg.Metrics.JobRecovered(j != nil && isCorpus(j), state, outcome)
}
