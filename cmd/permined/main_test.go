package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"permine"
	"permine/internal/server"
)

func TestVersionFlag(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	want := "permined " + permine.Version + "\n"
	if out.String() != want {
		t.Errorf("output = %q, want %q", out.String(), want)
	}
}

func TestBadFlag(t *testing.T) {
	// -compact-bytes is gone: the journal compacts once it has doubled.
	for _, args := range [][]string{{"-no-such-flag"}, {"-compact-bytes", "4194304"}} {
		var out strings.Builder
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("%v: expected a flag parse error", args)
		}
	}
}

// TestFlagsDefault: with no flags the daemon's settings are the resolved
// zero config, each flag bound over server.Defaults.
func TestFlagsDefault(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := server.Defaults(); !reflect.DeepEqual(o.cfg, want) {
		t.Errorf("no flags give %+v, want %+v", o.cfg, want)
	}
	o, err = parseFlags([]string{"-workers", "8", "-job-timeout", "1m", "-slo-p99-ms", "40",
		"-cluster-peers", " http://a:1/, ,http://b:2"})
	if err != nil {
		t.Fatal(err)
	}
	c := o.cfg
	if c.Workers != 8 || c.JobTimeout != time.Minute || c.SLOTargetP99 != 40*time.Millisecond ||
		!reflect.DeepEqual(c.ClusterPeers, []string{"http://a:1", "http://b:2"}) {
		t.Errorf("flags bound to %+v", c)
	}
	// The derived settings still follow theirs.
	if c.MaxTimeout != 0 || c.CorpusMaxInflight != 0 {
		t.Errorf("max timeout %v and corpus inflight %d set by other flags, want both 0 (derived)", c.MaxTimeout, c.CorpusMaxInflight)
	}
}

// TestTraceSampleZero: -trace-sample 0 drops every trace, where a zero
// Config.TraceSample would sample them all.
func TestTraceSampleZero(t *testing.T) {
	for _, c := range []struct {
		args  []string
		spans bool
	}{{nil, true}, {[]string{"-trace-sample", "0"}, false}} {
		o, err := parseFlags(c.args)
		if err != nil {
			t.Fatal(err)
		}
		o.cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		srv := server.New(o.cfg)
		srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
		if got := srv.Traces().Len() > 0; got != c.spans {
			t.Errorf("%v: spans recorded = %v, want %v", c.args, got, c.spans)
		}
		srv.Shutdown(context.Background())
	}
}

// lineWriter signals once a full line has been written.
type lineWriter struct {
	mu    sync.Mutex
	buf   strings.Builder
	ready chan struct{}
	once  sync.Once
}

func (w *lineWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.WriteString(string(b))
	if strings.Contains(w.buf.String(), "\n") {
		w.once.Do(func() { close(w.ready) })
	}
	return n, err
}

func (w *lineWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestServeSmoke boots the daemon on an ephemeral port, hits /healthz, and
// shuts it down through context cancellation (the signal path).
func TestServeSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	out := &lineWriter{ready: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"}, out)
	}()

	select {
	case <-out.ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never announced its address")
	}
	line := strings.TrimSpace(out.String())
	addr := line[strings.LastIndex(line, " ")+1:]

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz on %q: %v", addr, err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["version"] != permine.Version {
		t.Errorf("healthz = %v, want ok + %s", health, permine.Version)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not stop after context cancellation")
	}
}

// startPermined launches the given binary and returns the process plus the
// address it announced on stdout.
func startPermined(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	out := &lineWriter{ready: make(chan struct{})}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-out.ready:
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never announced its address")
	}
	line := strings.TrimSpace(out.String())
	return cmd, line[strings.LastIndex(line, " ")+1:]
}

// TestRestartRecovery is the crash-recovery proof at the process level: a
// permined binary is SIGKILLed right after accepting a job, restarted on
// the same data dir, and must drive the recovered job to done.
func TestRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary")
	}
	bin := filepath.Join(t.TempDir(), "permined")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-workers", "1",
		"-data-dir", dataDir, "-retry-backoff", "50ms", "-drain-timeout", "5s"}

	cmd1, addr := startPermined(t, bin, args...)
	// A sequence long enough that the job is very likely still in flight
	// when the process dies (recovery is correct either way: terminal
	// replays, interrupted re-runs).
	var sb strings.Builder
	state := uint64(7)
	for i := 0; i < 40000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		sb.WriteByte("ACGT"[state>>62])
	}
	body := `{"algorithm":"mppm","params":{"gap_min":2,"gap_max":4,"min_support":0.0005,"max_len":6},` +
		`"sequence":{"alphabet":"dna","name":"crashme","data":"` + sb.String() + `"}}`
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		cmd1.Process.Kill()
		t.Fatal(err)
	}
	var submitted struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || submitted.ID == "" {
		cmd1.Process.Kill()
		t.Fatalf("submit decode: %v (id %q)", err, submitted.ID)
	}

	// SIGKILL: no drain, no journal finalisation — a genuine crash.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	cmd2, addr2 := startPermined(t, bin, args...)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after restart", submitted.ID)
		}
		resp, err := http.Get("http://" + addr2 + "/v1/jobs/" + submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET recovered job: status %d", resp.StatusCode)
		}
		var view struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view.State {
		case "done":
			if len(view.Result) == 0 {
				t.Fatal("recovered job done without a result")
			}
			return
		case "failed", "cancelled":
			t.Fatalf("recovered job landed in %s (%s)", view.State, view.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestQueryJobRestartRecovery proves query jobs are as durable as plain
// ones: a top-K + targeted job is journaled with its query params (WAL
// kind "query"), the daemon is SIGKILLed mid-run, and the restarted
// process must re-execute the job and honor both query fields — the
// round-trip through the journal must lose neither.
func TestQueryJobRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary")
	}
	bin := filepath.Join(t.TempDir(), "permined")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-workers", "1",
		"-data-dir", dataDir, "-retry-backoff", "50ms", "-drain-timeout", "5s"}

	cmd1, addr := startPermined(t, bin, args...)
	var sb strings.Builder
	state := uint64(13)
	for i := 0; i < 40000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		sb.WriteByte("ACGT"[state>>62])
	}
	body := `{"algorithm":"mppm","params":{"gap_min":2,"gap_max":4,"min_support":0.0005,"max_len":6,` +
		`"top_k":3,"motif":"AC"},` +
		`"sequence":{"alphabet":"dna","name":"crashquery","data":"` + sb.String() + `"}}`
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		cmd1.Process.Kill()
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || submitted.ID == "" {
		cmd1.Process.Kill()
		t.Fatalf("submit decode: %v (id %q)", err, submitted.ID)
	}

	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	cmd2, addr2 := startPermined(t, bin, args...)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("query job %s not terminal after restart", submitted.ID)
		}
		resp, err := http.Get("http://" + addr2 + "/v1/jobs/" + submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET recovered query job: status %d", resp.StatusCode)
		}
		var view struct {
			State  string `json:"state"`
			Error  string `json:"error"`
			Result *struct {
				Params struct {
					TopK  int    `json:"TopK"`
					Motif string `json:"Motif"`
				} `json:"Params"`
				Patterns []struct {
					Chars string `json:"Chars"`
				} `json:"Patterns"`
			} `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view.State {
		case "done":
			if view.Result == nil {
				t.Fatal("recovered query job done without a result")
			}
			if view.Result.Params.TopK != 3 || view.Result.Params.Motif != "AC" {
				t.Fatalf("query params lost across restart: top_k=%d motif=%q, want 3/AC",
					view.Result.Params.TopK, view.Result.Params.Motif)
			}
			if len(view.Result.Patterns) > 3 {
				t.Fatalf("top-3 query returned %d patterns", len(view.Result.Patterns))
			}
			for _, p := range view.Result.Patterns {
				if !strings.Contains(p.Chars, "AC") {
					t.Errorf("recovered targeted result has pattern %q without motif AC", p.Chars)
				}
			}
			return
		case "failed", "cancelled":
			t.Fatalf("recovered query job landed in %s (%s)", view.State, view.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// corpusFASTA builds a deterministic multi-record FASTA corpus of n
// sequences, each seqLen bases.
func corpusFASTA(n, seqLen int) string {
	var sb strings.Builder
	state := uint64(11)
	for i := 0; i < n; i++ {
		sb.WriteString(">shard")
		sb.WriteByte(byte('0' + i))
		sb.WriteByte('\n')
		for j := 0; j < seqLen; j++ {
			state = state*6364136223846793005 + 1442695040888963407
			sb.WriteByte("ACGT"[state>>62])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// corpusView is the subset of the corpus job view the tests poll.
type corpusView struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	ShardCount int             `json:"shard_count"`
	ShardsDone int             `json:"shards_done"`
	Result     json.RawMessage `json:"result"`
	Error      string          `json:"error"`
}

func getCorpus(t *testing.T, addr, id string) corpusView {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/corpus/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET corpus %s: status %d", id, resp.StatusCode)
	}
	var v corpusView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func submitCorpus(t *testing.T, addr, body string) corpusView {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/corpus", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/corpus: status %d: %s", resp.StatusCode, raw)
	}
	var v corpusView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatal("corpus submit returned no id")
	}
	return v
}

// waitCorpusDone polls until the corpus job is terminal and returns its
// final view, requiring state "done" with a result.
func waitCorpusDone(t *testing.T, addr, id string) corpusView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("corpus %s not terminal in time", id)
		}
		v := getCorpus(t, addr, id)
		switch v.State {
		case "done":
			if len(v.Result) == 0 {
				t.Fatal("corpus done without a merged result")
			}
			return v
		case "partial", "failed", "cancelled":
			t.Fatalf("corpus landed in %s (%s)", v.State, v.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCorpusRestartResume is the journaled-resume proof at the process
// level: a corpus job is SIGKILLed after some shards checkpointed, the
// daemon restarts on the same data dir, and must finish the job by
// replaying completed shards from the journal (visible as
// shards_replayed_total in /v1/metrics) instead of re-mining them — with
// a merged result byte-identical to an uninterrupted run.
func TestCorpusRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary")
	}
	bin := filepath.Join(t.TempDir(), "permined")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-workers", "1", "-corpus-max-inflight", "1",
		"-data-dir", dataDir, "-retry-backoff", "50ms", "-drain-timeout", "5s"}

	body := `{"algorithm":"mppm","params":{"gap_min":2,"gap_max":4,"min_support":0.0005,"max_len":6},` +
		`"alphabet":"dna","fasta":` + strconv.Quote(corpusFASTA(6, 30000)) + `}`

	cmd1, addr := startPermined(t, bin, args...)
	sub := submitCorpus(t, addr, body)
	if sub.ShardCount != 6 {
		cmd1.Process.Kill()
		t.Fatalf("shard_count = %d, want 6", sub.ShardCount)
	}

	// Wait for at least one shard checkpoint, then SIGKILL mid-corpus.
	var doneBefore int
	killDeadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(killDeadline) {
			cmd1.Process.Kill()
			t.Fatal("no shard finished before the kill deadline")
		}
		v := getCorpus(t, addr, sub.ID)
		if v.State != "running" {
			cmd1.Process.Kill()
			t.Fatalf("corpus finished too fast to interrupt (state %s); enlarge the shards", v.State)
		}
		if v.ShardsDone >= 1 && v.ShardsDone < v.ShardCount {
			doneBefore = v.ShardsDone
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	cmd2, addr2 := startPermined(t, bin, args...)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	resumed := waitCorpusDone(t, addr2, sub.ID)

	// The restarted daemon must have replayed every checkpointed shard
	// (at least the ones we saw complete) and re-mined only the rest.
	mresp, err := http.Get("http://" + addr2 + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Corpus struct {
			Shards         map[string]int64 `json:"shards_total"`
			ShardsReplayed int64            `json:"shards_replayed_total"`
		} `json:"corpus"`
	}
	err = json.NewDecoder(mresp.Body).Decode(&metrics)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	replayed := metrics.Corpus.ShardsReplayed
	if replayed < int64(doneBefore) || replayed >= int64(sub.ShardCount) {
		t.Errorf("shards_replayed_total = %d, want in [%d, %d)", replayed, doneBefore, sub.ShardCount)
	}
	if mined := metrics.Corpus.Shards["done"]; mined != int64(sub.ShardCount)-replayed {
		t.Errorf("re-mined %d shards after restart, want %d (replayed %d of %d)",
			mined, int64(sub.ShardCount)-replayed, replayed, sub.ShardCount)
	}

	// An uninterrupted run of the same corpus must merge byte-identically.
	cmd3, addr3 := startPermined(t, bin,
		"-addr", "127.0.0.1:0", "-workers", "1", "-data-dir", t.TempDir(), "-drain-timeout", "5s")
	defer func() {
		cmd3.Process.Signal(syscall.SIGTERM)
		cmd3.Wait()
	}()
	clean := waitCorpusDone(t, addr3, submitCorpus(t, addr3, body).ID)
	if string(resumed.Result) != string(clean.Result) {
		t.Errorf("resumed merge differs from clean run:\nresumed: %.400s\nclean:   %.400s",
			resumed.Result, clean.Result)
	}
}
