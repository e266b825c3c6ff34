package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// samples holds one side's end-to-end values by workload, then metric;
// the raw numbers behind the ref metrics are kept under "raw." + name.
type samples map[string]map[string][]float64

// loadReports reads a file of -json lines, keeping the untraced runs.
func loadReports(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := samples{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		for name, v := range r.Raw {
			out[r.Workload]["raw."+name] = append(out[r.Workload]["raw."+name], v)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, the median and the third quartile,
// with the same interpolation as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// verdict compares two sides of one metric. A side whose quartile spread
// exceeds the bound cannot resolve a change of that size, unless every run
// of B beats every run of A.
func verdict(a, b []float64, bound float64, lowerIsBetter bool) (change float64, v string) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	change = bm/am - 1
	worse := change
	if !lowerIsBetter {
		worse = -change
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (lowerIsBetter && y >= x) || (!lowerIsBetter && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return change, "ok"
	case (aq3-aq1)/am > bound || (bq3-bq1)/bm > bound:
		return change, "unresolved"
	case worse > bound:
		return change, "worse"
	}
	return change, "ok"
}

// runCompare implements "e2e compare A.jsonl B.jsonl": for every workload
// and end-to-end metric both files hold, it prints each side's median and
// quartiles and a verdict against the metric's bound in BENCHMARK.json.
// It exits 1 unless every verdict is ok.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "e2e compare: want [-bench BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	bench, err := loadBenchSpec(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "e2e compare: %v\n", err)
		return 2
	}
	var sides [2]samples
	for i, path := range fs.Args() {
		if sides[i], err = loadReports(path); err != nil {
			fmt.Fprintf(stderr, "e2e compare: %v\n", err)
			return 2
		}
	}
	names := make([]string, 0, len(sides[0]))
	for w := range sides[0] {
		if sides[1][w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "e2e compare: the two files share no workload")
		return 1
	}
	fmt.Fprintf(stdout, "%-13s %-12s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	allOK := true
	for _, w := range names {
		for _, m := range bench.EndToEnd {
			a, b := sides[0][w][m.Name], sides[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stdout, "%-13s %-12s missing on one side\n", w, m.Name)
				allOK = false
				continue
			}
			change, v := verdict(a, b, m.Bound, m.Better == "lower")
			allOK = allOK && v == "ok"
			fmt.Fprintf(stdout, "%-13s %-12s %-34s %-34s %+7.1f%% %5.0f%%  %s\n",
				w, m.Name, spread(a), spread(b), change*100, m.Bound*100, v)
		}
		// The raw seconds behind the ref metrics, so that a shift in the
		// reference kernel itself shows next to the verdicts.
		for _, raw := range []struct{ name, label string }{
			{"raw.op_p50_s", "op p50 s"},
			{"raw.ops_per_s", "ops/s"},
			{"raw.ref_s", "ref s"},
		} {
			a, b := sides[0][w][raw.name], sides[1][w][raw.name]
			if len(a) > 0 && len(b) > 0 {
				fmt.Fprintf(stdout, "%-13s %-12s %-34s %-34s %+7.1f%%\n",
					w, raw.label, spread(a), spread(b), (median(b)/median(a)-1)*100)
			}
		}
	}
	if !allOK {
		return 1
	}
	return 0
}

func spread(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", m, q1, q3, len(xs))
}
