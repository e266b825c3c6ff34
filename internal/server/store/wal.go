package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"permine/internal/frame"
	"permine/internal/retry"
)

// Journal layout: a single append-only file of internal/frame frames, each
// payload one JSON-encoded event. Replay accepts the longest valid prefix:
// a torn header, short payload, CRC mismatch or undecodable event ends the
// scan and the file is truncated back to the last valid frame, so a crash
// mid-write (or a corrupted tail) costs at most the record being written.
// Compaction rewrites the journal as one submit event per retained record
// via tmp-file + atomic rename.
const (
	journalName = "journal.wal"
	tmpName     = "journal.wal.tmp"

	// maxRecordBytes bounds one frame's payload. Appends refuse larger
	// events (the store degrades instead), and replay treats a larger
	// declared length as corruption, not a record.
	maxRecordBytes = 256 << 20

	// A failed append is retried writeRetries times, waiting
	// retry.Backoff(writeBackoff, time.Second, attempt) before each, before
	// the store degrades to memory-only.
	writeRetries = 3
	writeBackoff = 10 * time.Millisecond
)

// Event types. State strings inside events mirror internal/corpus.State
// values; the store only distinguishes terminal from not.
const (
	evSubmit  = "submit"
	evState   = "state"
	evOutcome = "outcome"
	// evSnapshot is the single-frame compaction event older binaries
	// wrote; replay still folds it so their journals restore.
	evSnapshot    = "snapshot"
	evShardDone   = "shard_done"
	evShardFailed = "shard_failed"
	evAssign      = "assign"
)

// event is one journal entry.
type event struct {
	Type     string          `json:"t"`
	At       time.Time       `json:"at"`
	Job      *JobRecord      `json:"job,omitempty"`    // submit
	Jobs     []JobRecord     `json:"jobs,omitempty"`   // snapshot
	ID       string          `json:"id,omitempty"`     // state, outcome, shard_*, assign
	Shard    *ShardRecord    `json:"shard,omitempty"`  // shard_done, shard_failed
	Assign   *AssignRecord   `json:"assign,omitempty"` // assign
	State    string          `json:"state,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	Note     string          `json:"note,omitempty"`
}

// terminalState mirrors corpus.State.Terminal over the wire strings.
func terminalState(state string) bool {
	switch state {
	case "done", "failed", "cancelled", "partial", "resource_exhausted":
		return true
	}
	return false
}

// Options configures a WAL. Zero values take the documented defaults.
type Options struct {
	// Dir is the data directory holding the journal (required).
	Dir string
	// CompactBytes triggers compaction once the journal exceeds
	// this many bytes (default 4 MiB).
	CompactBytes int64
	// RetainTerminal bounds terminal job records kept across compactions
	// (default 1024, matching the manager's retention default); the oldest
	// terminal records are dropped first.
	RetainTerminal int
	// FS defaults to the real filesystem; tests inject faults here.
	FS FS
	// Logger defaults to slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.CompactBytes <= 0 {
		o.CompactBytes = 4 << 20
	}
	if o.RetainTerminal <= 0 {
		o.RetainTerminal = 1024
	}
	if o.FS == nil {
		o.FS = OSFS
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// WAL is the disk-backed Store: an fsync'd write-ahead journal plus the
// folded in-memory job state it implies (kept for compaction and
// recovery hand-off). All methods are safe for concurrent use.
type WAL struct {
	opts Options

	mu             sync.Mutex
	f              File  // nil once closed or degraded
	size           int64 // bytes of valid, synced journal
	nextCompact    int64
	degraded       bool
	degradedReason string

	jobs  map[string]*JobRecord // folded journal state
	order []string              // submit order of jobs keys

	recovered []JobRecord // snapshot taken at Open, before any appends

	appends, fsyncs, writeErrors, writeRetries, compactions int64
	replayed, truncatedBytes                                int64
}

// Open replays (and, if needed, repairs) the journal in dir and returns a
// ready WAL positioned for appends. A corrupt or torn tail is truncated at
// the last valid record; only an unusable directory or unreadable journal
// file is an error — callers are expected to fall back to NewDegraded.
func Open(opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	// A leftover tmp file means a compaction was interrupted before its
	// atomic rename; the journal itself is still consistent.
	_ = opts.FS.Remove(filepath.Join(opts.Dir, tmpName))

	f, err := opts.FS.OpenFile(filepath.Join(opts.Dir, journalName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	w := &WAL{opts: opts, f: f, jobs: make(map[string]*JobRecord)}
	if err := w.replay(); err != nil {
		f.Close()
		return nil, err
	}
	w.nextCompact = w.size + opts.CompactBytes
	w.recovered = w.snapshotLocked()
	if w.truncatedBytes > 0 {
		opts.Logger.Warn("journal tail truncated at last valid record",
			"dir", opts.Dir, "dropped_bytes", w.truncatedBytes, "records", w.replayed)
	}
	return w, nil
}

// replay folds the longest valid frame prefix into w.jobs and truncates
// the file after it. Called once from Open, before w escapes.
func (w *WAL) replay() error {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking journal: %w", err)
	}
	r := bufio.NewReader(w.f)
	var good int64
	for {
		// Clean EOF, a torn or corrupt frame, or an undecodable event: stop
		// at the last good frame.
		payload, err := frame.Read(r, maxRecordBytes)
		if err != nil {
			break
		}
		var ev event
		if err := json.Unmarshal(payload, &ev); err != nil {
			break
		}
		w.applyLocked(ev)
		good += frame.HeaderSize + int64(len(payload))
		w.replayed++
	}
	end, err := w.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: sizing journal: %w", err)
	}
	if end > good {
		w.truncatedBytes = end - good
		if err := w.f.Truncate(good); err != nil {
			return fmt.Errorf("store: truncating corrupt journal tail: %w", err)
		}
	}
	if _, err := w.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("store: seeking journal end: %w", err)
	}
	w.size = good
	return nil
}

// applyLocked folds one event into the jobs map. Out-of-order events are
// tolerated: events of a job with no submit record before them (older
// releases could journal a job's first transition ahead of its submit)
// and state changes for already-terminal jobs are ignored, so a terminal
// outcome can never be rolled back by a late "running" append, nor an
// orphan event folded into a later job that reuses its id.
func (w *WAL) applyLocked(ev event) {
	switch ev.Type {
	case evSnapshot:
		w.jobs = make(map[string]*JobRecord, len(ev.Jobs))
		w.order = w.order[:0]
		for i := range ev.Jobs {
			rec := ev.Jobs[i]
			if _, ok := w.jobs[rec.ID]; ok {
				continue
			}
			w.jobs[rec.ID] = &rec
			w.order = append(w.order, rec.ID)
		}
	case evSubmit:
		if ev.Job == nil {
			return
		}
		rec := *ev.Job
		if _, ok := w.jobs[rec.ID]; ok {
			return
		}
		w.jobs[rec.ID] = &rec
		w.order = append(w.order, rec.ID)
	case evState:
		rec, ok := w.jobs[ev.ID]
		if !ok || terminalState(rec.State) {
			return
		}
		rec.State = ev.State
		if ev.Attempts > 0 {
			rec.Attempts = ev.Attempts
		}
		if ev.State == "running" && rec.StartedAt.IsZero() {
			rec.StartedAt = ev.At
		}
	case evOutcome:
		rec, ok := w.jobs[ev.ID]
		if !ok || terminalState(rec.State) {
			return
		}
		rec.State = ev.State
		rec.FinishedAt = ev.At
		rec.Result = ev.Result
		rec.Error = ev.Error
		rec.Note = ev.Note
	case evShardDone, evShardFailed:
		rec, ok := w.jobs[ev.ID]
		if !ok || terminalState(rec.State) || ev.Shard == nil {
			return
		}
		// Shard checkpoints are idempotent: a shard that already reached a
		// terminal state keeps its first outcome (replays and narrow
		// crash-window duplicates fold away).
		for i := range rec.Shards {
			if rec.Shards[i].Index == ev.Shard.Index {
				return
			}
		}
		rec.Shards = append(rec.Shards, *ev.Shard)
		// Kept sorted by shard index so recovered records are deterministic
		// regardless of completion order.
		sort.Slice(rec.Shards, func(i, j int) bool {
			return rec.Shards[i].Index < rec.Shards[j].Index
		})
	case evAssign:
		rec, ok := w.jobs[ev.ID]
		if !ok || terminalState(rec.State) || ev.Assign == nil {
			return
		}
		// Assignments are last-wins per shard index: a retried shard's new
		// placement supersedes the one a dead node held.
		for i := range rec.Assigns {
			if rec.Assigns[i].Shard == ev.Assign.Shard {
				rec.Assigns[i] = *ev.Assign
				return
			}
		}
		rec.Assigns = append(rec.Assigns, *ev.Assign)
		// Sorted by shard index, like Shards, for deterministic recovery.
		sort.Slice(rec.Assigns, func(i, j int) bool {
			return rec.Assigns[i].Shard < rec.Assigns[j].Shard
		})
	}
}

// snapshotLocked copies the folded state in submit order.
func (w *WAL) snapshotLocked() []JobRecord {
	out := make([]JobRecord, 0, len(w.jobs))
	for _, id := range w.order {
		if rec, ok := w.jobs[id]; ok {
			out = append(out, *rec)
		}
	}
	return out
}

// Recovered implements Store.
func (w *WAL) Recovered() []JobRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]JobRecord(nil), w.recovered...)
}

// AppendSubmit implements Store.
func (w *WAL) AppendSubmit(rec JobRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(event{Type: evSubmit, At: rec.CreatedAt, Job: &rec})
}

// AppendState implements Store.
func (w *WAL) AppendState(id, state string, attempts int, at time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(event{Type: evState, At: at, ID: id, State: state, Attempts: attempts})
}

// AppendOutcome implements Store.
func (w *WAL) AppendOutcome(id string, out Outcome) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(event{
		Type: evOutcome, At: out.FinishedAt, ID: id, State: out.State,
		Result: out.Result, Error: out.Error, Note: out.Note,
	})
}

// AppendShard implements Store.
func (w *WAL) AppendShard(id string, sh ShardRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	kind := evShardDone
	if sh.State == "failed" {
		kind = evShardFailed
	}
	w.appendLocked(event{Type: kind, At: sh.FinishedAt, ID: id, Shard: &sh})
}

// AppendAssign implements Store.
func (w *WAL) AppendAssign(id string, a AssignRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.appendLocked(event{Type: evAssign, At: a.At, ID: id, Assign: &a})
}

// appendLocked folds the event into memory, then journals it with retries;
// persistent write failure degrades the store instead of surfacing an
// error (memory state stays authoritative for the running process).
func (w *WAL) appendLocked(ev event) {
	w.applyLocked(ev)
	if w.f == nil {
		return // closed or degraded: memory-only
	}
	buf, err := appendEvent(nil, ev)
	if err != nil {
		// An event over maxRecordBytes (or, by programmer error, one that
		// does not marshal) must not reach the journal: replay would stop
		// at it and drop everything after. A journal must never take down
		// the daemon either, so the store degrades.
		w.degradeLocked(err)
		return
	}

	for attempt := 1; ; attempt++ {
		err = w.writeFrameLocked(buf)
		if err == nil {
			break
		}
		w.writeErrors++
		// Rewind any partial write so a retry cannot interleave torn bytes
		// with a fresh frame; if even that fails the journal is unusable.
		if terr := w.rewindLocked(); terr != nil {
			w.degradeLocked(fmt.Errorf("append failed (%v) and rewind failed: %w", err, terr))
			return
		}
		if attempt > writeRetries {
			w.degradeLocked(fmt.Errorf("append failed after %d retries: %w", writeRetries, err))
			return
		}
		w.writeRetries++
		time.Sleep(retry.Backoff(writeBackoff, time.Second, attempt))
	}
	w.size += int64(len(buf))
	w.appends++
	if w.size >= w.nextCompact {
		w.compactLocked()
	}
}

// appendEvent appends ev to dst as one journal frame.
func appendEvent(dst []byte, ev event) ([]byte, error) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return dst, fmt.Errorf("marshalling %s event: %w", ev.Type, err)
	}
	dst, err = frame.Append(dst, payload, maxRecordBytes)
	if err != nil {
		return dst, fmt.Errorf("journaling %d-byte %s event: %w", len(payload), ev.Type, err)
	}
	return dst, nil
}

// writeFrameLocked appends one encoded frame and syncs it to stable
// storage.
func (w *WAL) writeFrameLocked(b []byte) error {
	if _, err := w.f.Write(b); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs++
	return nil
}

// rewindLocked discards any partially written bytes past the last synced
// frame.
func (w *WAL) rewindLocked() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	_, err := w.f.Seek(w.size, io.SeekStart)
	return err
}

// degradeLocked flips the store into memory-only mode: the journal handle
// is dropped and every later append is a cheap no-op. The condition is
// surfaced via Stats (and from there /healthz, /v1/metrics) and the log.
func (w *WAL) degradeLocked(cause error) {
	if w.degraded {
		return
	}
	w.degraded = true
	w.degradedReason = cause.Error()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.opts.Logger.Warn("job store degraded to memory-only; jobs will not survive a restart",
		"dir", w.opts.Dir, "cause", cause)
}

// compactLocked rewrites the journal as one submit frame per retained
// record (tmp file + atomic rename, one write and one fsync), pruning the
// oldest terminal records beyond RetainTerminal. A record carries its whole
// folded state, so replay restores it through the submit case, and no frame
// is larger than the biggest record. On failure (including a record that
// outgrew maxRecordBytes) the current journal, which still replays, keeps
// growing and the next attempt is pushed a full CompactBytes out.
func (w *WAL) compactLocked() {
	w.pruneLocked()
	tmpPath := filepath.Join(w.opts.Dir, tmpName)
	journalPath := filepath.Join(w.opts.Dir, journalName)
	var buf []byte
	err := func() error {
		for _, rec := range w.snapshotLocked() {
			var err error
			if buf, err = appendEvent(buf, event{Type: evSubmit, At: rec.CreatedAt, Job: &rec}); err != nil {
				return err
			}
		}
		tmp, err := w.opts.FS.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		return w.opts.FS.Rename(tmpPath, journalPath)
	}()
	if err != nil {
		w.writeErrors++
		w.nextCompact = w.size + w.opts.CompactBytes
		w.opts.Logger.Warn("journal compaction failed; continuing on the uncompacted journal",
			"dir", w.opts.Dir, "err", err)
		_ = w.opts.FS.Remove(tmpPath)
		return
	}
	// The old handle now points at an unlinked inode; reopen the compacted
	// journal for appends.
	w.f.Close()
	f, err := w.opts.FS.OpenFile(journalPath, os.O_RDWR, 0o644)
	if err != nil {
		w.f = nil
		w.degradeLocked(fmt.Errorf("reopening compacted journal: %w", err))
		return
	}
	if _, err := f.Seek(int64(len(buf)), io.SeekStart); err != nil {
		w.f = nil
		f.Close()
		w.degradeLocked(fmt.Errorf("seeking compacted journal: %w", err))
		return
	}
	w.f = f
	w.size = int64(len(buf))
	w.nextCompact = w.size + w.opts.CompactBytes
	w.compactions++
	w.opts.Logger.Info("journal compacted", "dir", w.opts.Dir,
		"bytes", w.size, "jobs", len(w.jobs))
}

// pruneLocked drops the oldest terminal records beyond RetainTerminal.
// Non-terminal records are always kept: they are the recovery set.
func (w *WAL) pruneLocked() {
	terminal := 0
	for _, rec := range w.jobs {
		if terminalState(rec.State) {
			terminal++
		}
	}
	if terminal <= w.opts.RetainTerminal {
		return
	}
	kept := w.order[:0]
	for _, id := range w.order {
		rec, ok := w.jobs[id]
		if !ok {
			continue
		}
		if terminal > w.opts.RetainTerminal && terminalState(rec.State) {
			delete(w.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	w.order = kept
}

// Stats implements Store.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Backend:         "wal",
		Degraded:        w.degraded,
		DegradedReason:  w.degradedReason,
		JournalBytes:    w.size,
		Appends:         w.appends,
		Fsyncs:          w.fsyncs,
		WriteErrors:     w.writeErrors,
		WriteRetries:    w.writeRetries,
		Compactions:     w.compactions,
		ReplayedRecords: w.replayed,
		TruncatedBytes:  w.truncatedBytes,
	}
}

// Close implements Store. Appends after Close are silent no-ops (the
// drain path may still be finishing jobs while the daemon exits).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
