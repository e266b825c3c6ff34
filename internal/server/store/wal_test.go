package store_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"permine/internal/frame"
	"permine/internal/server/store"
	"permine/internal/server/store/storetest"
)

// retainAll is a RetainTerminal bound above every job count these tests
// write.
const retainAll = 1 << 20

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func openWAL(t *testing.T, opts store.Options) *store.WAL {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	w, err := store.Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// openFloorWAL opens a WAL whose compaction floor is floor bytes.
func openFloorWAL(t *testing.T, opts store.Options, floor int64) *store.WAL {
	t.Helper()
	opts.Logger = quietLogger()
	w, err := store.OpenFloor(opts, floor)
	if err != nil {
		t.Fatalf("OpenFloor(%s): %v", opts.Dir, err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// copyJournal copies dir's journal into a fresh directory, so it can be
// replayed while the WAL that writes it stays open.
func copyJournal(t *testing.T, dir string) string {
	t.Helper()
	raw, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir()
	if err := os.WriteFile(journalPath(cp), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return cp
}

// sameRecords compares two record sets by their journal encoding.
func sameRecords(t *testing.T, got, want []store.JobRecord) bool {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return string(g) == string(w)
}

func submitRec(id string) store.JobRecord {
	return store.JobRecord{
		ID:          id,
		Algorithm:   "MPPm",
		SeqName:     "test",
		SeqAlphabet: "DNA",
		SeqSymbols:  "ACGT",
		SeqData:     "ACGTACGTACGT",
		Params:      json.RawMessage(`{"Gap":{"N":0,"M":2},"MinSupport":0.1}`),
		TimeoutMS:   60000,
		State:       "queued",
		CreatedAt:   time.Now().UTC(),
	}
}

func journalPath(dir string) string { return filepath.Join(dir, "journal.wal") }

// TestWALRoundTrip: a submit→running→done lifecycle survives a close and
// reopen with the folded record intact.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	if got := w.Recovered(); len(got) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(got))
	}

	w.AppendSubmit(submitRec("j-000001"))
	w.AppendSubmit(submitRec("j-000002"))
	started := time.Now().UTC()
	w.AppendState("j-000001", "running", 0, started)
	w.AppendOutcome("j-000001", store.Outcome{
		State:      "done",
		Result:     json.RawMessage(`{"Patterns":null}`),
		Note:       "note",
		FinishedAt: started.Add(time.Second),
	})
	st := w.Stats()
	if st.Appends != 4 || st.Fsyncs != 4 || st.Degraded {
		t.Fatalf("stats after appends: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w2.Recovered()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if recs[0].ID != "j-000001" || recs[1].ID != "j-000002" {
		t.Fatalf("recovered order %s, %s", recs[0].ID, recs[1].ID)
	}
	done := recs[0]
	if done.State != "done" || done.Note != "note" || string(done.Result) != `{"Patterns":null}` {
		t.Errorf("folded record = %+v", done)
	}
	if !done.StartedAt.Equal(started) {
		t.Errorf("StartedAt = %v, want %v", done.StartedAt, started)
	}
	if recs[1].State != "queued" {
		t.Errorf("second record state = %s, want queued", recs[1].State)
	}
	if st := w2.Stats(); st.ReplayedRecords != 4 || st.TruncatedBytes != 0 {
		t.Errorf("replay stats: %+v", st)
	}
}

// TestWALOutOfOrderEvents: transitions for unknown jobs are dropped and a
// terminal outcome is never rolled back by a late state append (the
// submit/execute race documented in the manager).
func TestWALOutOfOrderEvents(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	w.AppendState("j-000009", "running", 0, time.Now()) // unknown id: ignored
	w.AppendOutcome("j-000009", store.Outcome{State: "done"})
	w.AppendSubmit(submitRec("j-000001"))
	w.AppendOutcome("j-000001", store.Outcome{State: "cancelled", FinishedAt: time.Now()})
	w.AppendState("j-000001", "running", 0, time.Now()) // after terminal: ignored
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w2.Recovered()
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	if recs[0].ID != "j-000001" || recs[0].State != "cancelled" {
		t.Errorf("record = %s/%s, want j-000001/cancelled", recs[0].ID, recs[0].State)
	}
}

// TestWALTruncatedTail: a torn final record (crash mid-write) is dropped
// at replay, every record before it survives, and the repaired journal
// accepts new appends.
func TestWALTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	w.AppendSubmit(submitRec("j-000001"))
	w.AppendSubmit(submitRec("j-000002"))
	w.Close()

	// Simulate a crash mid-append: a frame header promising more payload
	// than was ever written.
	f, err := os.OpenFile(journalPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w2.Recovered()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	st := w2.Stats()
	if st.TruncatedBytes != 10 || st.ReplayedRecords != 2 {
		t.Errorf("stats = %+v, want 10 truncated bytes over 2 records", st)
	}

	// The repaired journal keeps working: append, reopen, observe.
	w2.AppendSubmit(submitRec("j-000003"))
	w2.Close()
	w3 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	if recs := w3.Recovered(); len(recs) != 3 {
		t.Errorf("after repair + append: recovered %d records, want 3", len(recs))
	}
}

// TestWALBitFlip: corruption in the middle of the journal (a flipped
// payload byte) fails that record's checksum; every record before the
// damage is recovered.
func TestWALBitFlip(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	w.AppendSubmit(submitRec("j-000001"))
	sizeAfterFirst := w.Stats().JournalBytes
	w.AppendSubmit(submitRec("j-000002"))
	w.AppendSubmit(submitRec("j-000003"))
	w.Close()

	raw, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[sizeAfterFirst+20] ^= 0x40 // inside the second record's payload
	if err := os.WriteFile(journalPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w2.Recovered()
	if len(recs) != 1 || recs[0].ID != "j-000001" {
		t.Fatalf("recovered %v, want exactly the record before the damage", recs)
	}
	if st := w2.Stats(); st.TruncatedBytes == 0 {
		t.Errorf("stats report no truncation: %+v", st)
	}
}

// TestWALCompaction: once the journal reaches its compaction size it is
// rewritten as one frame per record, shrinking the file while preserving
// the folded state.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openFloorWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll}, 2048)
	for i := 0; i < 40; i++ {
		id := jobID(i)
		w.AppendSubmit(submitRec(id))
		w.AppendOutcome(id, store.Outcome{State: "done", FinishedAt: time.Now()})
	}
	st := w.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 80 appends over a 2 KiB floor: %+v", st)
	}
	if st.Degraded {
		t.Fatalf("degraded during compaction: %+v", st)
	}
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w2.Recovered()
	if len(recs) != 40 {
		t.Fatalf("recovered %d records after compaction, want 40", len(recs))
	}
	for i, rec := range recs {
		if rec.ID != jobID(i) || rec.State != "done" {
			t.Fatalf("record %d = %s/%s", i, rec.ID, rec.State)
		}
	}
}

// TestWALCompactionDoubling: n equal appends that the journal all retains
// compact once each time the journal has doubled, O(log n) times, and
// their rewrites total at most twice the bytes appended. (A fixed
// interval compacted every floor bytes, rewriting the whole journal each
// time: O(n) compactions and O(n²) bytes.)
func TestWALCompactionDoubling(t *testing.T) {
	const floor, n = 4 << 10, 200
	w := openFloorWAL(t, store.Options{Dir: t.TempDir(), RetainTerminal: retainAll}, floor)
	var appended, rewritten int64
	for i := 0; i < n; i++ {
		before := w.Stats()
		rec := submitRec(jobID(i))
		rec.State, rec.Result = "done", json.RawMessage(`{"Patterns":null}`)
		w.AppendSubmit(rec)
		st := w.Stats()
		if st.Compactions == before.Compactions {
			appended += st.JournalBytes - before.JournalBytes
			continue
		}
		// Every record is retained whole, so the compacted journal is the
		// one before it plus this append.
		appended = st.JournalBytes
		rewritten += st.JournalBytes
	}
	st := w.Stats()
	if st.Degraded || st.Compactions == 0 {
		t.Fatalf("stats after %d appends: %+v", n, st)
	}
	maxCompactions := int64(math.Log2(float64(appended)/floor)) + 1
	if st.Compactions > maxCompactions {
		t.Errorf("%d compactions for %d appended bytes over a %d-byte floor, want <= %d",
			st.Compactions, appended, floor, maxCompactions)
	}
	if rewritten > 2*appended {
		t.Errorf("compactions rewrote %d bytes for %d appended, want <= twice", rewritten, appended)
	}
}

// TestWALReopenedJournalCompacts: a journal reopened run after run, each
// run appending less than the journal holds, is after every reopen at most
// max(floor, twice what its fold compacts to): Open schedules the next
// compaction from the size a compaction would write, not from the
// replayed journal, and compacts at once a journal already past that.
// (Scheduled from the replayed journal's size, each restart pushed the
// trigger ahead of the journal, which then never compacted again.)
func TestWALReopenedJournalCompacts(t *testing.T) {
	dir := t.TempDir()
	const floor, retain, runs = 1 << 10, 4, 12
	result := json.RawMessage(`{"Patterns":"` + strings.Repeat("A", 400) + `"}`)
	reopen := func(run, retain int) *store.WAL {
		t.Helper()
		w := openFloorWAL(t, store.Options{Dir: dir, RetainTerminal: retain}, floor)
		compacted, err := store.CompactedSize(w)
		if err != nil {
			t.Fatal(err)
		}
		if size := w.Stats().JournalBytes; size > max(floor, 2*compacted) {
			t.Fatalf("run %d: reopened journal holds %d bytes, want <= max(%d, 2 × %d compacted)",
				run, size, floor, compacted)
		}
		return w
	}
	var want []store.JobRecord
	for run, next := 0, 0; run < runs; run++ {
		w := reopen(run, retain)
		if got := w.Recovered(); !sameRecords(t, got, want) {
			t.Fatalf("run %d: recovered %d records, want the %d folded", run, len(got), len(want))
		}
		// Two jobs a run: once retention is full, less than the journal holds.
		for k := 0; k < 2; k++ {
			id := jobID(next)
			next++
			w.AppendSubmit(submitRec(id))
			w.AppendOutcome(id, store.Outcome{State: "done", Result: result, FinishedAt: time.Now().UTC()})
		}
		want = store.Fold(w)
		w.Close()
	}

	// A lower bound shrinks the fold below half the journal: Open compacts.
	w := reopen(runs, 1)
	st := w.Stats()
	if st.Compactions != 1 || st.Degraded {
		t.Fatalf("reopen with a bound of 1: stats = %+v, want one compaction at Open", st)
	}
	if got, want := w.Recovered(), want[len(want)-1:]; !sameRecords(t, got, want) {
		t.Fatalf("reopen with a bound of 1 recovered %+v, want %+v", got, want)
	}
	w.Close()
	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: 1})
	if rst := w2.Stats(); rst.ReplayedRecords != 1 || rst.JournalBytes != st.JournalBytes {
		t.Fatalf("replay after the compaction at Open: stats = %+v, want 1 record in %d bytes", rst, st.JournalBytes)
	}
}

// TestWALFailedCompactionRetried: a compaction that fails leaves the
// journal growing and is retried under the same rule, once the journal
// has doubled from the size it failed at; the attempt that succeeds keeps
// every record.
func TestWALFailedCompactionRetried(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory where compaction writes its temporary file
	// fails every attempt; Open cannot remove it either.
	blocker := filepath.Join(dir, "journal.wal.tmp")
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	const floor = 2 << 10
	w := openFloorWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll}, floor)
	// The journal sizes before and after each append that attempted a
	// compaction. (Frames differ by a byte or two with their timestamps.)
	var attempts [][2]int64
	appendJob := func(i int) store.Stats {
		before := w.Stats()
		w.AppendSubmit(submitRec(jobID(i)))
		st := w.Stats()
		if st.WriteErrors > before.WriteErrors {
			attempts = append(attempts, [2]int64{before.JournalBytes, st.JournalBytes})
		}
		return st
	}
	i := 0
	for ; len(attempts) < 4; i++ {
		if st := appendJob(i); st.Compactions != 0 || st.Degraded {
			t.Fatalf("append %d past a blocked compaction: %+v", i, st)
		}
	}
	trigger := int64(floor)
	for k, at := range attempts {
		if at[0] >= trigger || at[1] < trigger {
			t.Errorf("attempt %d by the append from %d to %d bytes, want the first append at or past %d",
				k, at[0], at[1], trigger)
		}
		trigger = 2 * at[1]
	}

	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	for ; w.Stats().Compactions == 0; i++ {
		if size := w.Stats().JournalBytes; size >= trigger {
			t.Fatalf("no compaction at %d bytes, past the retry at %d", size, trigger)
		}
		appendJob(i)
	}
	want := store.Fold(w)
	if len(want) != i {
		t.Fatalf("fold holds %d records after %d submits", len(want), i)
	}
	w2 := openWAL(t, store.Options{Dir: copyJournal(t, dir), RetainTerminal: retainAll})
	if got := w2.Recovered(); !sameRecords(t, got, want) {
		t.Errorf("replay after the retried compaction restored %d records, want the %d folded", len(got), len(want))
	}
}

// TestWALRetention: the fold drops the oldest terminal records beyond
// RetainTerminal each time a job ends, in an append or at replay, but
// always keeps non-terminal ones — they are the recovery set — so a
// compaction writes out the fold as it is.
func TestWALRetention(t *testing.T) {
	dir := t.TempDir()
	const retain = 3
	w := openFloorWAL(t, store.Options{Dir: dir, RetainTerminal: retain}, 1024)
	// checkRetained: the queued j-000001 and, of the terminal records,
	// only the newest ones up to newest, at most limit of them.
	checkRetained := func(when string, recs []store.JobRecord, newest, limit int) {
		t.Helper()
		var terminal []string
		queued := 0
		for _, rec := range recs {
			switch rec.State {
			case "queued":
				queued++
				if rec.ID != "j-000001" {
					t.Errorf("%s: unexpected queued record %s", when, rec.ID)
				}
			case "done":
				terminal = append(terminal, rec.ID)
			}
		}
		if queued != 1 {
			t.Errorf("%s: non-terminal records kept = %d, want 1", when, queued)
		}
		if len(terminal) > limit {
			t.Errorf("%s: terminal records kept = %v, want <= %d", when, terminal, limit)
		}
		for k, id := range terminal {
			if want := jobID(newest - len(terminal) + 1 + k); id != want {
				t.Errorf("%s: terminal records kept = %v, want the newest, ending at %s", when, terminal, jobID(newest))
				break
			}
		}
	}
	w.AppendSubmit(submitRec("j-000001")) // stays queued: must survive
	for i := 1; i < 30; i++ {
		id := jobID(i)
		w.AppendSubmit(submitRec(id))
		w.AppendOutcome(id, store.Outcome{State: "done", FinishedAt: time.Now()})
		checkRetained("after "+id+" ended", store.Fold(w), i, retain)
	}
	if st := w.Stats(); st.Compactions == 0 {
		t.Fatalf("expected a compaction: %+v", st)
	}
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retain})
	checkRetained("after replay", w2.Recovered(), 29, retain)
	w2.Close()
	// The journal's uncompacted tail holds more than one terminal record;
	// replay prunes as it folds.
	w3 := openWAL(t, store.Options{Dir: dir, RetainTerminal: 1})
	checkRetained("after replay with a bound of 1", w3.Recovered(), 29, 1)
}

// TestWALCompactionFramePerRecord: compaction writes one frame per
// retained record, so a replay right after any compaction folds N records
// from N frames and restores every retained record as the WAL held it,
// and no frame grows with the number of jobs retained. (A single snapshot
// frame holding every record passed the replay size limit once enough
// large results were retained, and replay then dropped the whole journal.)
func TestWALCompactionFramePerRecord(t *testing.T) {
	dir := t.TempDir()
	const retain = 8
	// A 1-byte floor compacts each time the journal has doubled.
	w := openFloorWAL(t, store.Options{Dir: dir, RetainTerminal: retain}, 1)
	var compactions int64
	for i := 0; i < 24; i++ {
		id := jobID(i)
		for _, appendEvent := range []func(){
			func() { w.AppendSubmit(submitRec(id)) },
			func() { w.AppendState(id, "running", 1, time.Now().UTC()) },
			func() {
				w.AppendOutcome(id, store.Outcome{
					State: "done", Result: json.RawMessage(`{"Patterns":null}`), FinishedAt: time.Now().UTC(),
				})
			},
		} {
			appendEvent()
			st := w.Stats()
			if st.Compactions == compactions {
				continue
			}
			compactions = st.Compactions
			want := store.Fold(w)
			w2 := openWAL(t, store.Options{Dir: copyJournal(t, dir), RetainTerminal: retain})
			if rst := w2.Stats(); rst.ReplayedRecords != int64(len(want)) || rst.TruncatedBytes != 0 {
				t.Fatalf("compaction %d: replay stats = %+v, want %d records from %d frames",
					compactions, rst, len(want), len(want))
			}
			if got := w2.Recovered(); !sameRecords(t, got, want) {
				t.Fatalf("compaction %d: replay restored %+v, want %+v", compactions, got, want)
			}
			w2.Close()
		}
	}
	if st := w.Stats(); st.Compactions < 3 || st.Degraded {
		t.Fatalf("stats after 72 appends = %+v, want a few compactions", st)
	}
	want := store.Fold(w)
	w.Close()
	w3 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retain})
	if got := w3.Recovered(); !sameRecords(t, got, want) {
		t.Fatalf("replay of the final journal restored %+v, want %+v", got, want)
	}
}

// TestWALCompactionKeepsResults: a compaction copies each record's result
// into its frame without re-encoding it, and a replay of the compacted
// journal restores every record with its result byte for byte, whatever
// the result holds.
func TestWALCompactionKeepsResults(t *testing.T) {
	dir := t.TempDir()
	var results []json.RawMessage
	for _, v := range []any{
		nil,
		map[string]any{"Patterns": nil},
		map[string]any{"p": "A<g(9,12)>&T", "u": "é \t", "q": `"\`, "n": []any{1, 2.5e-3, map[string]any{"k": []int{}}}},
		[]string{},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, b)
	}
	w := openFloorWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll}, 1)
	for i, res := range results {
		id := jobID(i)
		w.AppendSubmit(submitRec(id))
		w.AppendOutcome(id, store.Outcome{State: "done", Result: res, FinishedAt: time.Now().UTC()})
	}
	w.AppendSubmit(submitRec(jobID(len(results)))) // stays queued, without a result
	// Append until a compaction has rewritten every outcome.
	for n, i := w.Stats().Compactions, 0; w.Stats().Compactions == n; i++ {
		if i == 10000 {
			t.Fatalf("no compaction in %d appends: %+v", i, w.Stats())
		}
		w.AppendState(jobID(len(results)), "queued", 0, time.Time{})
	}
	if st := w.Stats(); st.Degraded {
		t.Fatalf("degraded: %+v", st)
	}
	want := store.Fold(w)
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	got := w2.Recovered()
	if st := w2.Stats(); st.ReplayedRecords != int64(len(want)) || st.TruncatedBytes != 0 {
		t.Fatalf("replay stats = %+v, want %d records from %d frames", st, len(want), len(want))
	}
	if !sameRecords(t, got, want) {
		t.Fatalf("replay restored %+v, want %+v", got, want)
	}
	for i, res := range results {
		if !bytes.Equal(got[i].Result, res) {
			t.Errorf("record %d: result %s after compaction, want %s", i, got[i].Result, res)
		}
	}
	if q := got[len(results)]; q.State != "queued" || q.Result != nil {
		t.Errorf("queued record = %+v, want queued without a result", q)
	}
}

// TestWALReplaysLegacySnapshot: a journal compacted by an older binary —
// one snapshot frame holding every record — still restores, and appends
// continue after it.
func TestWALReplaysLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	done, queued := submitRec("j-000001"), submitRec("j-000002")
	done.State, done.Result = "done", json.RawMessage(`{"Patterns":null}`)
	payload, err := json.Marshal(map[string]any{
		"t": "snapshot", "at": time.Now().UTC(), "jobs": []store.JobRecord{done, queued},
	})
	if err != nil {
		t.Fatal(err)
	}
	journal, err := frame.Append(nil, payload, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(dir), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	w := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w.Recovered()
	if len(recs) != 2 || recs[0].ID != "j-000001" || recs[0].State != "done" ||
		string(recs[0].Result) != `{"Patterns":null}` || recs[1].ID != "j-000002" || recs[1].State != "queued" {
		t.Fatalf("recovered %+v, want the snapshot's done and queued records", recs)
	}
	if st := w.Stats(); st.ReplayedRecords != 1 || st.TruncatedBytes != 0 {
		t.Errorf("replay stats = %+v, want 1 snapshot frame and no truncation", st)
	}
	w.AppendState("j-000002", "running", 1, time.Now())
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	if recs := w2.Recovered(); len(recs) != 2 || recs[1].State != "running" || recs[1].Attempts != 1 {
		t.Fatalf("after an append on the legacy journal: %+v", recs)
	}
}

// jobID renders the manager's id format for the i-th test job.
func jobID(i int) string { return fmt.Sprintf("j-%06d", i+1) }

// TestWALRetryExhaustion: writes that keep failing (while rewinds succeed)
// burn the retry budget (3 retries) and then degrade the store.
func TestWALRetryExhaustion(t *testing.T) {
	dir := t.TempDir()
	fs := &storetest.FaultFS{FailOps: map[int64]bool{}}
	w := openWAL(t, store.Options{Dir: dir, FS: fs, RetainTerminal: retainAll})
	w.AppendSubmit(submitRec("j-000001"))

	// Fail every Write of the next append; the interleaved Truncate/Seek
	// rewinds succeed, so the append exhausts its retries.
	o := fs.Ops()
	fs.FailOps[o+1], fs.FailOps[o+3], fs.FailOps[o+5], fs.FailOps[o+7] = true, true, true, true
	w.AppendSubmit(submitRec("j-000002"))
	st := w.Stats()
	if !st.Degraded {
		t.Fatalf("not degraded after exhausting retries: %+v", st)
	}
	if st.WriteRetries != 3 || st.WriteErrors != 4 {
		t.Errorf("stats = %+v, want 3 retries and 4 write errors", st)
	}
}

// TestWALTransientWriteFailure: a single injected write error is retried
// and the append lands; the store stays healthy.
func TestWALTransientWriteFailure(t *testing.T) {
	dir := t.TempDir()
	fs := &storetest.FaultFS{FailOps: map[int64]bool{2: true}} // first append's Write
	w := openWAL(t, store.Options{Dir: dir, FS: fs, RetainTerminal: retainAll})
	w.AppendSubmit(submitRec("j-000001"))
	st := w.Stats()
	if st.Degraded {
		t.Fatalf("degraded on a transient error: %+v", st)
	}
	if st.WriteErrors != 1 || st.WriteRetries != 1 || st.Appends != 1 {
		t.Errorf("stats = %+v, want 1 error, 1 retry, 1 append", st)
	}
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	if recs := w2.Recovered(); len(recs) != 1 {
		t.Errorf("recovered %d records after transient failure, want 1", len(recs))
	}
}

// TestWALPersistentFailureDegrades: when the disk stays broken the store
// flips to memory-only instead of failing appends forever; records synced
// before the failure survive on disk.
func TestWALPersistentFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	fs := &storetest.FaultFS{}
	w := openWAL(t, store.Options{Dir: dir, FS: fs, RetainTerminal: retainAll})
	w.AppendSubmit(submitRec("j-000001"))

	fs.FailFrom = fs.Ops() + 1 // every write-class op fails from here on
	w.AppendSubmit(submitRec("j-000002"))
	st := w.Stats()
	if !st.Degraded {
		t.Fatalf("not degraded under persistent write failure: %+v", st)
	}
	if st.DegradedReason == "" {
		t.Error("degraded without a reason")
	}
	// Appends after degradation are silent no-ops.
	w.AppendSubmit(submitRec("j-000003"))
	if got := w.Stats().Appends; got != 1 {
		t.Errorf("appends = %d, want 1 (only the pre-failure one)", got)
	}
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll}) // healthy filesystem again
	recs := w2.Recovered()
	if len(recs) != 1 || recs[0].ID != "j-000001" {
		t.Fatalf("recovered %v, want only the pre-failure record", recs)
	}
}

// TestWALShortWriteTornTail: a short write followed by a dead disk leaves
// a torn frame on disk; the next open truncates it and recovers everything
// synced before it.
func TestWALShortWriteTornTail(t *testing.T) {
	dir := t.TempDir()
	fs := &storetest.FaultFS{}
	w := openWAL(t, store.Options{Dir: dir, FS: fs, RetainTerminal: retainAll})
	w.AppendSubmit(submitRec("j-000001"))

	fs.ShortWriteOps = map[int64]bool{fs.Ops() + 1: true} // next Write torn
	fs.FailFrom = fs.Ops() + 2                            // and the rewind fails too
	w.AppendSubmit(submitRec("j-000002"))
	if st := w.Stats(); !st.Degraded {
		t.Fatalf("not degraded after torn write + dead disk: %+v", st)
	}
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w2.Recovered()
	if len(recs) != 1 || recs[0].ID != "j-000001" {
		t.Fatalf("recovered %v, want only the record before the torn write", recs)
	}
	if st := w2.Stats(); st.TruncatedBytes == 0 {
		t.Errorf("torn frame not truncated: %+v", st)
	}
}

// TestWALOpenFailure: an unusable data dir (a regular file where the
// directory should be) fails Open so callers can fall back to NewDegraded.
func TestWALOpenFailure(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(store.Options{Dir: blocked, RetainTerminal: retainAll, Logger: quietLogger()}); err == nil {
		t.Fatal("Open on a file path succeeded")
	}
	if _, err := store.Open(store.Options{Dir: dir, Logger: quietLogger()}); err == nil {
		t.Fatal("Open without a RetainTerminal bound succeeded")
	}
	deg := store.NewDegraded(io.ErrClosedPipe)
	if st := deg.Stats(); !st.Degraded || st.Backend != "memory" {
		t.Errorf("NewDegraded stats = %+v", st)
	}
}

// corpusRec is a minimal corpus-kind submit record with n shards.
func corpusRec(id string, n int) store.JobRecord {
	rec := submitRec(id)
	rec.Kind = "corpus"
	rec.ShardCount = n
	rec.State = "running"
	return rec
}

// TestWALShardCheckpoints: shard_done/shard_failed events fold into the
// owning corpus record across a reopen, ordered by shard index, with the
// first terminal outcome per shard winning.
func TestWALShardCheckpoints(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	w.AppendSubmit(corpusRec("c-000001", 3))
	at := time.Now().UTC()
	w.AppendShard("c-000001", store.ShardRecord{
		Index: 2, Name: "s2", State: "failed", Attempts: 3,
		Error: "injected", FinishedAt: at,
	})
	w.AppendShard("c-000001", store.ShardRecord{
		Index: 0, Name: "s0", State: "done", Attempts: 1,
		Result: json.RawMessage(`{"Patterns":null}`), FinishedAt: at,
	})
	// Duplicate checkpoint for shard 0: the first outcome must win.
	w.AppendShard("c-000001", store.ShardRecord{
		Index: 0, Name: "s0", State: "failed", Attempts: 9, FinishedAt: at,
	})
	// Checkpoint for an unknown corpus id: ignored.
	w.AppendShard("c-999999", store.ShardRecord{Index: 0, State: "done", FinishedAt: at})
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w2.Recovered()
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Kind != "corpus" || rec.ShardCount != 3 || rec.State != "running" {
		t.Fatalf("folded corpus record = %+v", rec)
	}
	if len(rec.Shards) != 2 {
		t.Fatalf("folded %d shard checkpoints, want 2", len(rec.Shards))
	}
	if rec.Shards[0].Index != 0 || rec.Shards[1].Index != 2 {
		t.Errorf("shard order = %d, %d, want by index 0, 2", rec.Shards[0].Index, rec.Shards[1].Index)
	}
	s0 := rec.Shards[0]
	if s0.State != "done" || s0.Attempts != 1 || string(s0.Result) != `{"Patterns":null}` {
		t.Errorf("shard 0 duplicate overwrote the first checkpoint: %+v", s0)
	}
	s2 := rec.Shards[1]
	if s2.State != "failed" || s2.Error != "injected" || s2.Attempts != 3 {
		t.Errorf("shard 2 checkpoint = %+v", s2)
	}
}

// TestWALAssignEvents: node-assignment events fold last-wins per shard
// index, sorted by index, ignore unknown and already-terminal jobs, and
// survive replay — the record a restarted coordinator uses to requeue a
// departed node's shards.
func TestWALAssignEvents(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	w.AppendSubmit(corpusRec("c-000001", 3))
	at := time.Now().UTC()
	w.AppendAssign("c-000001", store.AssignRecord{Shard: 2, Node: "http://b:1", At: at})
	w.AppendAssign("c-000001", store.AssignRecord{Shard: 0, Node: "http://b:1", At: at})
	// Retry re-placement: the newest assignment for shard 2 must win.
	w.AppendAssign("c-000001", store.AssignRecord{Shard: 2, Node: "http://c:1", At: at.Add(time.Second)})
	// Whole-job assignment on a plain job coexists with shard assigns.
	w.AppendSubmit(submitRec("j-000001"))
	w.AppendAssign("j-000001", store.AssignRecord{Shard: store.WholeJob, Node: "http://c:1", At: at})
	// Unknown job: ignored.
	w.AppendAssign("c-999999", store.AssignRecord{Shard: 0, Node: "http://b:1", At: at})
	// Terminal job: ignored.
	w.AppendOutcome("j-000001", store.Outcome{State: "done", FinishedAt: at})
	w.AppendAssign("j-000001", store.AssignRecord{Shard: store.WholeJob, Node: "http://d:1", At: at})
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w2.Recovered()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	corpus := recs[0]
	if len(corpus.Assigns) != 2 {
		t.Fatalf("folded %d assigns, want 2: %+v", len(corpus.Assigns), corpus.Assigns)
	}
	if corpus.Assigns[0].Shard != 0 || corpus.Assigns[1].Shard != 2 {
		t.Errorf("assign order = %d, %d, want by shard index 0, 2",
			corpus.Assigns[0].Shard, corpus.Assigns[1].Shard)
	}
	if corpus.Assigns[1].Node != "http://c:1" {
		t.Errorf("shard 2 assign = %q, want the last-wins re-placement http://c:1",
			corpus.Assigns[1].Node)
	}
	job := recs[1]
	if len(job.Assigns) != 1 || job.Assigns[0].Shard != store.WholeJob ||
		job.Assigns[0].Node != "http://c:1" {
		t.Errorf("whole-job assigns = %+v (post-terminal assign must be ignored)", job.Assigns)
	}
}

// TestWALPartialOutcomeTerminal: "partial" is a terminal corpus state — a
// late state append must not roll it back, and the merged result survives
// replay next to the shard checkpoints.
func TestWALPartialOutcomeTerminal(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	w.AppendSubmit(corpusRec("c-000001", 2))
	at := time.Now().UTC()
	w.AppendShard("c-000001", store.ShardRecord{Index: 0, State: "done",
		Result: json.RawMessage(`{"Patterns":null}`), FinishedAt: at})
	w.AppendShard("c-000001", store.ShardRecord{Index: 1, State: "failed",
		Error: "boom", FinishedAt: at})
	w.AppendOutcome("c-000001", store.Outcome{
		State: "partial", Result: json.RawMessage(`{"mined":1}`), FinishedAt: at,
	})
	w.AppendState("c-000001", "running", 1, time.Now()) // after terminal: ignored
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w2.Recovered()
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.State != "partial" {
		t.Errorf("state = %s, want partial (terminal, not rolled back)", rec.State)
	}
	if string(rec.Result) != `{"mined":1}` {
		t.Errorf("merged result = %s", rec.Result)
	}
	if len(rec.Shards) != 2 {
		t.Errorf("shard checkpoints = %d, want 2", len(rec.Shards))
	}
}

// TestWALEventBeforeSubmitDropped: an event journaled for a job with no
// submit record before it is dropped at replay, never held: after a
// restart, a new job given the same id must not take the old outcome.
func TestWALEventBeforeSubmitDropped(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	w.AppendState("j-000001", "running", 1, time.Now())
	w.AppendOutcome("j-000001", store.Outcome{State: "done", Result: []byte(`{"Patterns":[]}`), FinishedAt: time.Now()})
	w.Close()

	w2 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	if recs := w2.Recovered(); len(recs) != 0 {
		t.Fatalf("recovered %+v from events with no submit", recs)
	}
	rec := submitRec("j-000001")
	rec.SeqData = "TTTTGGGG"
	w2.AppendSubmit(rec)
	w2.Close()

	w3 := openWAL(t, store.Options{Dir: dir, RetainTerminal: retainAll})
	recs := w3.Recovered()
	if len(recs) != 1 || recs[0].State != "queued" || recs[0].Attempts != 0 || recs[0].Result != nil || recs[0].SeqData != "TTTTGGGG" {
		t.Fatalf("recovered %+v, want the new j-000001 queued with no result", recs)
	}
}
