package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"permine/internal/obs"
)

// benchFile mirrors BENCHMARK.json at the repository root.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the harness's
// workload and metric tables in step.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := loadBenchFile(t)
	if got, want := len(b.Workloads), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", got, want)
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness reports %d", len(b.EndToEnd), len(endToEndDefs))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		if m.Name != endToEndDefs[i].name || m.Unit != endToEndDefs[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s (%s), the harness %s (%s)",
				i, m.Name, m.Unit, endToEndDefs[i].name, endToEndDefs[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(b.PerLayer), len(perLayerDefs))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayerDefs[i].name || m.Unit != perLayerDefs[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the harness %s (%s)",
				i, m.Name, m.Unit, perLayerDefs[i].name, perLayerDefs[i].unit)
		}
	}
}

// lastLine decodes the result object a run prints last.
func lastLine(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout)
	}
	return r
}

// TestSmoke runs every workload at quick scale, untraced and traced, and
// checks that each prints every metric BENCHMARK.json lists, with its
// unit, and that no operation failed.
func TestSmoke(t *testing.T) {
	b := loadBenchFile(t)
	t.Setenv("TMPDIR", t.TempDir()) // the daemon's journal
	for _, trace := range []string{"0", "1"} {
		t.Run("trace="+trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-quick", "-seconds", "0.2", "-trace", trace, "-seed", "3"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
			}
			type def struct{ name, unit string }
			var defs []def
			if trace == "0" {
				for _, m := range b.EndToEnd {
					defs = append(defs, def{m.Name, m.Unit})
				}
			} else {
				for _, m := range b.PerLayer {
					defs = append(defs, def{m.Name, m.Unit})
				}
			}
			if want := len(defs) * len(b.Workloads); len(r.Metrics) != want {
				t.Errorf("%d metrics printed, want %d", len(r.Metrics), want)
			}
			for _, w := range b.Workloads {
				for _, d := range defs {
					m, ok := r.Metrics[w.Name+"/"+d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("%s: %s printed=%v unit=%q, want unit %q", w.Name, d.name, ok, m.Unit, d.unit)
					}
				}
			}
			if trace == "1" {
				for _, w := range b.Workloads {
					serve := w.Name == "serve"
					// Two of a cycle's three cache lookups hit; a cache race
					// adds a miss.
					if got := r.Metrics[w.Name+"/cache.hit_frac"].Value; serve && (got <= 0.5 || got > 2.0/3) {
						t.Errorf("%s: cache.hit_frac = %v, want 2/3 less any races", w.Name, got)
					}
					if got := r.Metrics[w.Name+"/serve.hit_s"].Value; serve != (got > 0) {
						t.Errorf("%s: serve.hit_s = %v", w.Name, got)
					}
					if got := r.Metrics[w.Name+"/server.submit_s"].Value; serve != (got > 0) {
						t.Errorf("%s: server.submit_s = %v", w.Name, got)
					}
					if got := r.Metrics[w.Name+"/embound.em_s"].Value; got <= 0 {
						t.Errorf("%s: embound.em_s = %v", w.Name, got)
					}
				}
			}
		})
	}
}

// TestWrongOutputFails is the negative control: with every reference
// digest corrupted, each timed output mismatches and the run must fail.
func TestWrongOutputFails(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the daemon's journal
	o := options{
		seed:   5,
		phase:  100 * time.Millisecond,
		quick:  true,
		tamper: func(d *[32]byte) { d[0] ^= 1 },
	}
	for _, name := range []string{"paper", "serve"} {
		w, _ := lookupWorkload(name)
		var stdout, stderr bytes.Buffer
		if code := execute(context.Background(), o, []workload{w}, "", "", &stdout, &stderr); code == 0 {
			t.Errorf("%s: exit 0 with corrupted references\n%s", name, stdout.String())
		}
		r := lastLine(t, stdout.String())
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d with corrupted references", name, r.Correct, r.Failed)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, m, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || m != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, m, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 1.05}
	cases := []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", base, true, "ok"},
		{"slower", scale(base, 1.2), true, "worse"},
		{"faster", scale(base, 0.8), true, "ok"},
		{"lower throughput", scale(base, 0.8), false, "worse"},
		{"noisy", noisy, true, "unresolved"},
		{"noisy but all faster", scale(noisy, 0.5), true, "ok"},
	}
	for _, c := range cases {
		if _, got := verdict(base, c.b, 0.1, c.lower); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestHitRaceRetries drives one cycle against a fake daemon whose first
// resubmit finds the result not yet cached and queues a second mine (202):
// the cycle must wait for that mine, ask again, and succeed, counting one
// race so the round is left out of the timings.
func TestHitRaceRetries(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts++
		n := posts
		mu.Unlock()
		switch n {
		case 1, 2: // the fresh job, then the racing resubmit
			w.WriteHeader(http.StatusAccepted)
		default:
			w.WriteHeader(http.StatusOK)
		}
		fmt.Fprintf(w, `{"id": "j-%06d", "state": "queued"}`, n)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "event: end\ndata: {\"data\": {\"state\": \"done\"}}\n\n")
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id": %q, "state": "done"}`, r.PathValue("id"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := newCaller(&daemon{base: ts.URL, client: ts.Client()})
	cy := &cycle{}
	c.runCycle(context.Background(), cy, [numClasses][]byte{{'{', '}'}, {'{', '}'}, {'{', '}'}}, nil)
	if cy.err != nil || cy.done != int(numClasses) {
		t.Fatalf("cycle failed after %d steps: %v", cy.done, cy.err)
	}
	if cy.races != 1 || cy.jobID[opHit] != "j-000003" {
		t.Errorf("races = %d, hit job %s; want 1 race and the retried job j-000003", cy.races, cy.jobID[opHit])
	}
	if (&round{cycles: []*cycle{cy}}).clean() {
		t.Error("a round with a cache race counts as clean")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := obs.SpanData{Start: at(0), End: at(10)}
	kids := []obs.SpanData{
		{Start: at(1), End: at(3)},
		{Start: at(2), End: at(5)},  // overlaps the first: [1,5] covered once
		{Start: at(8), End: at(12)}, // clipped to the parent: [8,10]
	}
	if got := selfTime(parent, kids); got != 4*time.Millisecond {
		t.Errorf("selfTime = %v, want 4ms", got)
	}
}
