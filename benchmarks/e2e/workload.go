package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"permine"
)

// Every workload mines with the paper's MPPm at m = 8 on two workers; the
// top-K queries ask for the 20 best patterns.
const (
	emOrder  = 8
	workers  = 2
	topK     = 20
	startLen = 3 // the miners' default first level, seeded by pil.ScanKPacked
)

// spec fixes a workload's inputs and mining parameters. Input i of seed s
// is permine.GenerateGenomeLike(L, s+i).
type spec struct {
	L      int
	gap    permine.Gap
	rho    float64 // support threshold ρs as a ratio
	inputs int     // distinct inputs a facade phase cycles through, or a daemon session serves
}

// params returns the mining parameters every timed operation uses.
func (s spec) params() permine.Params {
	return permine.Params{Gap: s.gap, MinSupport: s.rho, EmOrder: emOrder, Workers: workers}
}

// quick shrinks the inputs so a smoke run of every workload takes seconds.
func (s spec) quick() spec {
	s.L = min(s.L, 3000)
	if s.gap.M-s.gap.N > 4 {
		s.L = min(s.L, 300)
	}
	s.inputs = min(s.inputs, 2*clients) // serve: two rounds per session
	return s
}

func (s spec) input(seed uint64, i int) (*permine.Sequence, error) {
	return permine.GenerateGenomeLike(s.L, seed+uint64(i))
}

// warmupSeed generates the input every set-up warms up on. It is the same
// for every --seed, so set-up time does not vary with how long the
// seed's own inputs take to mine.
const warmupSeed = 1 << 40

func (s spec) warmupInput() (*permine.Sequence, error) {
	return permine.GenerateGenomeLike(s.L, warmupSeed)
}

// opClass is one kind of daemon request cycle step.
type opClass int

const (
	opFresh  opClass = iota // a new job: POST, wait for its end event, GET the result
	opHit                   // the same job again: answered from the result cache
	opDerive                // its top-K query: derived from the cached result
	numClasses
)

func (c opClass) String() string {
	return [...]string{"fresh", "hit", "derive"}[c]
}

// workload is one benchmark input set and traffic shape. Facade workloads
// time permine.Mine; the serve workload drives the daemon with a
// three-step cycle. BENCHMARK.json and README.md record why each exists.
type workload struct {
	name  string
	spec  spec
	serve bool
}

var workloads = []workload{
	{name: "paper", spec: spec{L: 1000, gap: permine.Gap{N: 9, M: 12}, rho: 0.00003, inputs: 10}},
	{name: "wide-gap", spec: spec{L: 1000, gap: permine.Gap{N: 9, M: 16}, rho: 0.00003, inputs: 8}},
	{name: "genome", spec: spec{L: 100_000, gap: permine.Gap{N: 10, M: 12}, rho: 0.00006, inputs: 2}},
	// Each daemon session serves one cycle per input, clients at a time.
	{name: "serve", spec: spec{L: 1000, gap: permine.Gap{N: 9, M: 12}, rho: 0.00003, inputs: clients * sessionRounds}, serve: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// digest fingerprints a mining result: sha256 over every pattern's
// characters and support, in result order (the miners sort by length, then
// lexicographically), followed by the estimate N.
func digest(r *permine.Result) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, p := range r.Patterns {
		io.WriteString(h, p.Chars)
		binary.LittleEndian.PutUint64(buf[:], uint64(p.Support))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(r.N))
	h.Write(buf[:])
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// levelSums totals a run's per-level counters and timings.
type levelSums struct {
	joins, twoPtr, cum, bitap, entries int64
	candidates, frequent               int64
	gen, count                         time.Duration
}

func sumLevels(levels []permine.LevelMetrics) levelSums {
	var s levelSums
	for _, l := range levels {
		s.joins += l.PILJoins
		s.twoPtr += l.JoinTwoPointer
		s.cum += l.JoinCum
		s.bitap += l.JoinBitap
		s.entries += l.PILEntries
		s.candidates += l.Candidates
		s.frequent += l.Frequent
		s.gen += l.GenElapsed
		s.count += l.CountElapsed
	}
	return s
}

// check reports a run whose join strategies do not account for every join.
func (s levelSums) check() error {
	if s.twoPtr+s.cum+s.bitap != s.joins {
		return fmt.Errorf("join strategies sum to %d, PILJoins is %d", s.twoPtr+s.cum+s.bitap, s.joins)
	}
	return nil
}

// countValues returns the exact per-layer counters of one result; they
// repeat exactly for a given input.
func countValues(r *permine.Result, s levelSums) map[string]float64 {
	v := map[string]float64{
		"pil.joins_twoptr":            float64(s.twoPtr),
		"pil.joins_cum":               float64(s.cum),
		"pil.joins_bitap":             float64(s.bitap),
		"pil.entries":                 float64(s.entries),
		"mine.candidates":             float64(s.candidates),
		"mine.frequent_per_candidate": 0,
		"mine.auto_n":                 float64(r.N),
	}
	if s.candidates > 0 {
		v["mine.frequent_per_candidate"] = float64(s.frequent) / float64(s.candidates)
	}
	return v
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// series collects named samples and reduces each to its median.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) addDur(name string, d time.Duration) { s.add(name, d.Seconds()) }

// medians writes the median of every series into vals.
func (s series) medians(vals map[string]float64) {
	for name, xs := range s {
		vals[name] = median(xs)
	}
}
