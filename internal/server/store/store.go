// Package store persists permined mining jobs across daemon restarts.
//
// The job manager journals every job transition through a Store. The
// disk-backed implementation (WAL) is an append-only, fsync-on-write
// journal of internal/frame frames with compaction to one frame per
// retained job and a torn-tail-tolerant replay; Memory is the no-op
// default for fully in-memory deployments.
//
// Stores never fail the serving path: implementations absorb disk errors
// internally (retrying with backoff, then degrading to memory-only) and
// surface their health through Stats, so a sick disk costs durability, not
// availability.
package store

import (
	"encoding/json"
	"time"
)

// JobRecord is the durable form of one mining job: everything needed to
// answer GET /v1/jobs/{id} after a restart and to re-execute the job if it
// was interrupted mid-flight. Params and Result are opaque JSON blobs
// (core.Params / core.Result marshalled by the manager) so the store stays
// decoupled from the mining vocabulary.
type JobRecord struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`

	// Kind distinguishes job flavours: empty for a plain single-sequence
	// mining job, "query" for a top-K / targeted (motif) query job (the
	// query fields ride inside Params and replay like plain jobs), and
	// "corpus" for a sharded multi-sequence corpus job (SeqData then
	// holds the canonical multi-FASTA rendering of every shard).
	Kind string `json:"kind,omitempty"`

	// SeqName, SeqAlphabet, SeqSymbols and SeqData reconstruct the subject
	// sequence: the alphabet is matched by name and symbol set (so "DNA"
	// maps back to the canonical alphabet) or rebuilt from SeqSymbols.
	SeqName     string `json:"seq_name"`
	SeqAlphabet string `json:"seq_alphabet"`
	SeqSymbols  string `json:"seq_symbols"`
	SeqData     string `json:"seq_data"`

	// ShardCount and Shards belong to corpus jobs: the number of shards the
	// input splits into, and the per-shard completion checkpoints folded
	// from shard_done/shard_failed journal events. A crashed corpus job
	// resumes from Shards instead of re-mining from scratch.
	ShardCount int           `json:"shard_count,omitempty"`
	Shards     []ShardRecord `json:"shards,omitempty"`

	// Assigns are the cluster node assignments folded from assign journal
	// events, last-wins per shard index. A coordinator restart consults
	// them to count shards whose assigned node has left the membership —
	// those requeue onto survivors through the normal retry budget.
	Assigns []AssignRecord `json:"assigns,omitempty"`

	Params    json.RawMessage `json:"params"`
	TimeoutMS int64           `json:"timeout_ms"`

	// State is the job lifecycle state (internal/corpus.State as a
	// string). Attempts counts executions started, including crash-recovery
	// re-executions.
	State    string `json:"state"`
	Attempts int    `json:"attempts"`

	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`

	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Note   string          `json:"note,omitempty"`
}

// Outcome is the terminal portion of a job: state plus whatever the run
// produced.
type Outcome struct {
	State      string
	Result     json.RawMessage
	Error      string
	Note       string
	FinishedAt time.Time
}

// ShardRecord is the durable completion checkpoint of one corpus shard:
// either "done" with the shard's mining result or "failed" with the error
// that exhausted its retry budget. Journaled as a shard_done/shard_failed
// event and folded into the owning corpus job's record, so a restart
// resumes from completed shards.
type ShardRecord struct {
	// Index is the shard's position in the corpus split (0-based); Name is
	// the shard sequence's FASTA name.
	Index int    `json:"index"`
	Name  string `json:"name"`
	// State is "done" or "failed".
	State string `json:"state"`
	// Attempts counts executions of this shard, retries included.
	Attempts int `json:"attempts"`

	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	FinishedAt time.Time       `json:"finished_at"`
}

// AssignRecord is the durable record of one cluster placement decision:
// which node a shard (or, with Shard == WholeJob, the whole job) was last
// sent to. Node is the peer's base URL, or the coordinator's own
// advertised address for local placements.
type AssignRecord struct {
	// Shard is the assigned shard's index, or WholeJob (-1) when a whole
	// single-sequence job was forwarded.
	Shard int       `json:"shard"`
	Node  string    `json:"node"`
	At    time.Time `json:"at"`
}

// WholeJob is the AssignRecord.Shard value marking a whole-job (rather
// than per-shard) assignment.
const WholeJob = -1

// Stats is a point-in-time snapshot of a store's health and accounting,
// exposed via /v1/metrics and (backend/degraded) /healthz.
type Stats struct {
	// Backend is "wal" or "memory".
	Backend string `json:"backend"`
	// Degraded reports that a disk-backed store gave up on its journal and
	// is running memory-only (or that persistence could not be opened).
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`

	JournalBytes int64 `json:"journal_bytes"`
	Appends      int64 `json:"appends"`
	Fsyncs       int64 `json:"fsyncs"`
	WriteErrors  int64 `json:"write_errors"`
	WriteRetries int64 `json:"write_retries"`
	Compactions  int64 `json:"compactions"`

	// ReplayedRecords and TruncatedBytes describe the last Open: valid
	// journal records folded in, and corrupt/torn tail bytes dropped.
	ReplayedRecords int64 `json:"replayed_records"`
	TruncatedBytes  int64 `json:"truncated_bytes"`
}

// Store journals job state for crash recovery. Append methods must not
// block the serving path on a sick disk: implementations retry briefly,
// then degrade to memory-only and report the condition through Stats.
//
// Callers must finish Recovered-driven restoration before the first
// AppendSubmit so identifiers cannot collide.
type Store interface {
	// Recovered returns the jobs reconstructed from disk when the store was
	// opened, in submit order. Nil for stores with nothing to recover.
	Recovered() []JobRecord
	// AppendSubmit durably records a newly accepted job (which may already
	// be terminal, e.g. a cache hit).
	AppendSubmit(rec JobRecord)
	// AppendState durably records a non-terminal state change.
	AppendState(id, state string, attempts int, at time.Time)
	// AppendOutcome durably records a terminal transition.
	AppendOutcome(id string, out Outcome)
	// AppendShard durably records one corpus shard reaching "done" or
	// "failed", the per-shard checkpoint a crashed corpus job resumes from.
	AppendShard(id string, sh ShardRecord)
	// AppendAssign durably records a cluster placement decision, so a
	// coordinator restart can requeue shards assigned to departed nodes.
	AppendAssign(id string, a AssignRecord)
	// Stats reports health and accounting counters.
	Stats() Stats
	// Close releases the journal; subsequent appends are no-ops.
	Close() error
}

// Memory is the no-op Store used when persistence is disabled or could not
// be opened (degraded). It keeps nothing: the manager's own in-memory
// bookkeeping is the only job state.
type Memory struct {
	reason string
}

// NewMemory returns a healthy no-op store.
func NewMemory() *Memory { return &Memory{} }

// NewDegraded returns a no-op store that reports itself degraded with the
// given reason — the fallback when opening a WAL fails at boot.
func NewDegraded(err error) *Memory {
	reason := "unknown"
	if err != nil {
		reason = err.Error()
	}
	return &Memory{reason: reason}
}

// Recovered implements Store.
func (m *Memory) Recovered() []JobRecord { return nil }

// AppendSubmit implements Store.
func (m *Memory) AppendSubmit(JobRecord) {}

// AppendState implements Store.
func (m *Memory) AppendState(string, string, int, time.Time) {}

// AppendOutcome implements Store.
func (m *Memory) AppendOutcome(string, Outcome) {}

// AppendShard implements Store.
func (m *Memory) AppendShard(string, ShardRecord) {}

// AppendAssign implements Store.
func (m *Memory) AppendAssign(string, AssignRecord) {}

// Stats implements Store.
func (m *Memory) Stats() Stats {
	return Stats{Backend: "memory", Degraded: m.reason != "", DegradedReason: m.reason}
}

// Close implements Store.
func (m *Memory) Close() error { return nil }
