// Command e2e is permine's end-to-end benchmark. It generates every input
// from a seed, mines through the two entry points users have — the
// permine facade (permine.Mine) and an in-process permined daemon
// (server.New on loopback, journal on disk) — checks every output, and
// prints its metrics by name and unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 78, "failed": 0, "metrics": {"op_p50_ref": {"value": 17.2, "unit": "ref"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is traced and reports the per-layer ones instead (BENCHMARK.json lists
// both sets, README.md defines them).
//
// Usage, from the repository root:
//
//	bash benchmarks/e2e/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-json FILE] [-spans FILE] [-quick]
//	bash benchmarks/e2e/run.sh compare [-bench BENCHMARK.json] A.jsonl B.jsonl
//
// Without -workload every workload runs in turn and the metric names on
// the last line are prefixed with "<workload>/".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"permine/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options configures one invocation.
type options struct {
	seed  uint64
	phase time.Duration // length of one timed phase
	trace bool
	quick bool
	// tamper, when set, is applied to every reference digest before timed
	// outputs are compared with it; the smoke test's negative control uses
	// it to prove that a wrong output fails the run.
	tamper func(*[32]byte)
}

// moreSetups reports whether a workload that has set up n times, taking
// spent in all, sets up again before its timed phase. setup_s is the
// median, so one slow set-up does not move it: at least five, and cheap
// set-ups repeat until they have taken three seconds (at most 25).
func (o options) moreSetups(n int, spent time.Duration) bool {
	if o.quick {
		return n < 1
	}
	return n < 5 || (spent < 3*time.Second && n < 25)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and fixes its unit; the two lists below must
// match BENCHMARK.json (the smoke test checks it).
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ref", "ref"},
	{"ops_per_ref", "1/ref"},
	{"mem_high_mb", "MB"},
}

var perLayerDefs = []metricDef{
	{"embound.em_s", "s"},
	{"pil.scan3_s", "s"},
	{"pil.joins_twoptr", "count"},
	{"pil.joins_cum", "count"},
	{"pil.joins_bitap", "count"},
	{"pil.entries", "count"},
	{"mine.gen_s", "s"},
	{"mine.count_s", "s"},
	{"mine.self_s", "s"},
	{"mine.candidates", "count"},
	{"mine.frequent_per_candidate", "ratio"},
	{"mine.auto_n", "count"},
	{"mine.alloc_mb", "MB"},
	{"mine.gc_cycles", "count"},
	{"query.derive_s", "s"},
	{"serve.fresh_s", "s"},
	{"serve.hit_s", "s"},
	{"serve.derive_s", "s"},
	{"server.submit_s", "s"},
	{"server.http_self_s", "s"},
	{"server.response_mb", "MB"},
	{"server.queue_wait_s", "s"},
	{"server.run_s", "s"},
	{"store.persist_s", "s"},
	{"store.fsyncs_per_job", "count"},
	{"store.compactions_per_job", "count"},
	{"cache.hit_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// serverLayerMetrics are the per-layer metrics only the daemon's request
// path produces; the facade workloads bypass that path and report 0.
var serverLayerMetrics = []string{
	"serve.fresh_s", "serve.hit_s", "serve.derive_s",
	"server.submit_s", "server.http_self_s", "server.response_mb",
	"server.queue_wait_s", "server.run_s", "store.persist_s",
	"store.fsyncs_per_job", "store.compactions_per_job",
	"cache.hit_frac",
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	failures          []error            // the first few, for the error log
	values            map[string]float64 // by metric name
	raw               map[string]float64 // untraced runs: the raw numbers behind the ref metrics
	notes             []string           // printed with the metrics
	spans             []obs.SpanData     // traced runs only
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, raw: map[string]float64{}}
}

// fail counts one failed operation; a nil err is a success.
func (o *outcome) fail(err error) {
	if err == nil {
		return
	}
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, err)
	}
}

// report is one workload run as written to -json files and read back by
// compare. Raw holds, in seconds, the median operation latency, the
// operations per second and the reference kernel's median time the ref
// metrics were computed from (serve adds its cache races).
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Raw       map[string]float64 `json:"raw,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, in order)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 traces the run and reports per-layer metrics instead of end-to-end ones")
	jsonPath := fs.String("json", "", "append one JSON line per workload run to this file")
	spansPath := fs.String("spans", "", "with -trace 1, write every recorded span to this file as JSON")
	quick := fs.Bool("quick", false, "shrink inputs for a smoke run of a few seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "e2e: want [-workload NAME] [-seed N] [-seconds S>0] [-trace 0|1] [-json FILE] [-spans FILE] [-quick]")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "e2e: unknown workload %q (want one of %s)\n", *name, workloadNames())
			return 2
		}
		selected = []workload{w}
	}
	o := options{
		seed:  *seed,
		phase: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1,
		quick: *quick,
	}
	return execute(context.Background(), o, selected, *jsonPath, *spansPath, stdout, stderr)
}

// execute runs the selected workloads and prints their metrics; it
// returns the process exit code.
func execute(ctx context.Context, o options, selected []workload, jsonPath, spansPath string, stdout, stderr io.Writer) int {
	defs := endToEndDefs
	if o.trace {
		defs = perLayerDefs
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	var spans []obs.SpanData
	for _, w := range selected {
		out, err := runWorkload(ctx, w, o)
		if err != nil {
			fmt.Fprintf(stderr, "e2e: %s: %v\n", w.name, err)
			return 1
		}
		for _, err := range out.failures {
			fmt.Fprintf(stderr, "e2e: %s: failed: %v\n", w.name, err)
		}
		rep := report{
			Workload:  w.name,
			Seed:      o.seed,
			Trace:     o.trace,
			Correct:   out.failed == 0,
			Attempted: out.attempted,
			Failed:    out.failed,
			Metrics:   map[string]metric{},
			Raw:       out.raw,
		}
		for _, d := range defs {
			v, ok := out.values[d.name]
			if !ok {
				fmt.Fprintf(stderr, "e2e: %s did not measure %s\n", w.name, d.name)
				return 1
			}
			rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
		printReport(stdout, rep, defs, out.notes, out.spans)
		if jsonPath != "" {
			if err := appendJSONLine(jsonPath, rep); err != nil {
				fmt.Fprintf(stderr, "e2e: %v\n", err)
				return 1
			}
		}
		spans = append(spans, out.spans...)
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for n, m := range rep.Metrics {
			if len(selected) > 1 {
				n = w.name + "/" + n
			}
			final.Metrics[n] = m
		}
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			fmt.Fprintf(stderr, "e2e: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "e2e: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		fmt.Fprintf(stderr, "e2e: %d of %d operations failed\n", final.Failed, final.Attempted)
		return 1
	}
	return 0
}

// runWorkload runs a facade or a daemon workload.
func runWorkload(ctx context.Context, w workload, o options) (*outcome, error) {
	if w.serve {
		return runServe(ctx, w, o)
	}
	return runMining(ctx, w, o)
}

// printReport writes the human-readable summary of one workload run.
func printReport(w io.Writer, rep report, defs []metricDef, notes []string, spans []obs.SpanData) {
	mode := "end to end"
	if rep.Trace {
		mode = "per layer, traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s): %d operations, %d failed\n",
		rep.Workload, rep.Seed, mode, rep.Attempted, rep.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "   %-28s %14.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	if len(spans) > 0 {
		printSpanTable(w, spans)
	}
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func writeSpans(path string, spans []obs.SpanData) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	data, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
