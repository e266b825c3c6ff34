package embound_test

import (
	"math"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"testing"

	"permine/internal/combinat"
	"permine/internal/embound"
	"permine/internal/gen"
	"permine/internal/seq"
)

// TestTable2Paper reproduces the paper's Table 2: S = ACGTCCGT, gap [1,2],
// m = 2 gives K_r = [2,1,2,1,0,0,0,0] (1-based r = 1..8) and e_m = 2.
func TestTable2Paper(t *testing.T) {
	s, err := seq.NewDNA("table2", "ACGTCCGT")
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 1, M: 2}
	want := []int64{2, 1, 2, 1, 0, 0, 0, 0}
	for r0 := range want {
		got, err := embound.Kr(s, g, 2, r0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[r0] {
			t.Errorf("K_%d = %d, want %d", r0+1, got, want[r0])
		}
	}
	em, err := embound.Em(s, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if em != 2 {
		t.Errorf("e_2 = %d, want 2", em)
	}
}

// TestEmBoundsW: 1 <= e_m <= W^m always (so W^m/e_m >= 1, the premise of
// Theorem 2's improvement over Theorem 1).
func TestEmBoundsW(t *testing.T) {
	s, err := gen.GenomeLike(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []combinat.Gap{{N: 1, M: 2}, {N: 2, M: 4}, {N: 9, M: 12}} {
		for m := 1; m <= 4; m++ {
			em, err := embound.Em(s, g, m)
			if err != nil {
				t.Fatal(err)
			}
			wm := math.Pow(float64(g.W()), float64(m))
			if em < 1 || float64(em) > wm {
				t.Errorf("g=%v m=%d: e_m=%d out of [1, W^m=%v]", g, m, em, wm)
			}
		}
	}
}

// TestEmRepetitiveSequence: on a perfectly periodic sequence every gap
// choice spells the same pattern, so e_m reaches its maximum W^m.
func TestEmRepetitiveSequence(t *testing.T) {
	s, err := seq.NewDNA("polyA", gen.TandemRepeat("A", 60))
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 1, M: 3}
	m := 3
	em, err := embound.Em(s, g, m)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(math.Pow(float64(g.W()), float64(m)))
	if em != want {
		t.Errorf("e_%d on poly-A = %d, want W^m = %d", m, em, want)
	}
}

// TestEmUniqueSequence: with W = 1 there is exactly one offset sequence
// per start, so e_m = 1 wherever any fits.
func TestEmW1(t *testing.T) {
	s, err := gen.Uniform(seq.DNA, "u", 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	em, err := embound.Em(s, combinat.Gap{N: 2, M: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if em != 1 {
		t.Errorf("e_m with W=1 = %d, want 1", em)
	}
}

// TestEmTooShort: when no length-(m+1) offset sequence fits, Em degrades
// to 1 (documented behaviour) rather than 0 or an error.
func TestEmTooShort(t *testing.T) {
	s, err := seq.NewDNA("short", "ACGT")
	if err != nil {
		t.Fatal(err)
	}
	em, err := embound.Em(s, combinat.Gap{N: 9, M: 12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if em != 1 {
		t.Errorf("degenerate e_m = %d, want 1", em)
	}
}

func TestEmErrors(t *testing.T) {
	s, err := seq.NewDNA("x", "ACGTACGTACGT")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := embound.Em(s, combinat.Gap{N: 1, M: 2}, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := embound.Em(s, combinat.Gap{N: 3, M: 1}, 2); err == nil {
		t.Error("invalid gap accepted")
	}
	if _, err := embound.Kr(s, combinat.Gap{N: 1, M: 2}, 2, -1); err == nil {
		t.Error("negative r accepted")
	}
	if _, err := embound.Kr(s, combinat.Gap{N: 1, M: 2}, 2, 99); err == nil {
		t.Error("out-of-range r accepted")
	}
}

// TestKrBruteForce cross-checks the packed-code walker against a naive
// string-map implementation on a generated sequence.
func TestKrBruteForce(t *testing.T) {
	s, err := gen.Uniform(seq.DNA, "u", 80, 11)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 1, M: 3}
	m := 3
	for r := 0; r < s.Len(); r += 7 {
		got, err := embound.Kr(s, g, m, r)
		if err != nil {
			t.Fatal(err)
		}
		if want := stringKr(s, g, m, r); got != want {
			t.Errorf("K_r(r=%d) = %d, brute force %d", r, got, want)
		}
	}
}

// stringKr is K_r by brute force: every length-(m+1) offset sequence from
// r, its pattern counted under a string key.
func stringKr(s *seq.Sequence, g combinat.Gap, m, r int) int64 {
	if r+combinat.MinSpan(m+1, g) > s.Len() {
		return 0
	}
	counts := map[string]int64{}
	var best int64
	var walk func(pos, depth int, acc []byte)
	walk = func(pos, depth int, acc []byte) {
		acc = append(acc, s.At(pos))
		if depth == m {
			counts[string(acc)]++
			best = max(best, counts[string(acc)])
			return
		}
		for next := pos + g.N + 1; next <= pos+g.M+1 && next < s.Len(); next++ {
			walk(next, depth+1, acc)
		}
	}
	walk(r, 0, nil)
	return best
}

// TestKrPatternCodesPast64Bits: once |Σ|^m passes 2^64 (protein, m = 15),
// two patterns from one start can have base-|Σ| codes that differ by
// exactly 2^64. Here, from r = 0 with gap [20,21], the path that steps 22
// every time spells 'C' and then the 15 base-20 digits of 2^64, while
// every path that misses those positions spells 'C' and then 15 'A's;
// the two codes are 20^15 + 2^64 and 20^15. K_0 and e_m (both through the
// per-offset fallback) must equal a string-keyed count over every start.
func TestKrPatternCodesPast64Bits(t *testing.T) {
	digits := []int{11, 5, 3, 11, 19, 17, 0, 7, 11, 14, 4, 13, 19, 0, 16}
	var two64 big.Int
	for _, d := range digits {
		two64.Mul(&two64, big.NewInt(20))
		two64.Add(&two64, big.NewInt(int64(d)))
	}
	if want := new(big.Int).Lsh(big.NewInt(1), 64); two64.Cmp(want) != 0 {
		t.Fatalf("digits spell %v, not 2^64", &two64)
	}
	data := []byte(strings.Repeat("A", 331))
	data[0] = 'C'
	for j, d := range digits {
		data[22*(j+1)] = seq.Protein.Symbol(d)
	}
	s, err := seq.New(seq.Protein, "wrap", string(data))
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 20, M: 21}
	const m = 15
	var wantEm int64
	for r := 0; r < s.Len(); r++ {
		wantEm = max(wantEm, stringKr(s, g, m, r))
	}
	want0 := stringKr(s, g, m, 0)
	if want0 != 16384 || wantEm != 16384 {
		t.Fatalf("brute force K_0 = %d, e_m = %d; fixture broken, want 16384 each", want0, wantEm)
	}
	if got, err := embound.Kr(s, g, m, 0); err != nil || got != want0 {
		t.Errorf("Kr(r=0) = %d (err %v), brute force %d", got, err, want0)
	}
	if got, _, err := embound.EmWorkers(s, g, m, 2); err != nil || got != wantEm {
		t.Errorf("EmWorkers = %d (err %v), brute force %d", got, err, wantEm)
	}
}

// TestLambdaPrimeTightens: λ' >= λ with equality while d < m, and the
// boost factor is (W^m/e_m)^floor(d/m).
func TestLambdaPrime(t *testing.T) {
	c := combinat.MustCounter(1000, combinat.Gap{N: 9, M: 12})
	m := 4
	em := int64(9) // pretend measurement; W^m = 256
	for l := 5; l <= 30; l += 5 {
		for d := 1; d < l-1; d++ {
			lam := c.Lambda(l, d)
			lp := embound.LambdaPrime(c, l, d, m, em)
			s := d / m
			boost := math.Pow(math.Pow(4, float64(m))/float64(em), float64(s))
			if math.Abs(lp-boost*lam) > 1e-9*math.Max(lp, 1) {
				t.Errorf("λ'(%d,%d) = %v, want %v·%v", l, d, lp, boost, lam)
			}
			if lp < lam-1e-15 {
				t.Errorf("λ'(%d,%d)=%v < λ=%v (must tighten, never loosen)", l, d, lp, lam)
			}
			if d < m && math.Abs(lp-lam) > 1e-15 {
				t.Errorf("λ'(%d,%d)=%v != λ=%v for d<m", l, d, lp, lam)
			}
		}
	}
	if got := embound.LambdaPrime(c, 10, 0, m, em); got != 1 {
		t.Errorf("λ'(10,0) = %v, want 1", got)
	}
}

// dfsEm is the reference e_m: the per-start DFS maximum of K_r, with 0
// degraded to 1 as Em's contract says.
func dfsEm(t *testing.T, s *seq.Sequence, g combinat.Gap, m int) int64 {
	t.Helper()
	var want int64
	for r := 0; r < s.Len(); r++ {
		kr, err := embound.Kr(s, g, m, r)
		if err != nil {
			t.Fatal(err)
		}
		want = max(want, kr)
	}
	return max(want, 1)
}

// TestEmSweepMatchesDFS: the suffix-sharing sweep must equal the naive
// per-start DFS maximum of K_r on assorted sequences and gaps.
func TestEmSweepMatchesDFS(t *testing.T) {
	seqs := []*seq.Sequence{}
	for _, seed := range []uint64{1, 2, 3} {
		s, err := gen.GenomeLike(120, seed)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	b, err := gen.BacterialLike(150, 9)
	if err != nil {
		t.Fatal(err)
	}
	seqs = append(seqs, b)
	for _, s := range seqs {
		for _, g := range []combinat.Gap{{N: 0, M: 1}, {N: 1, M: 3}, {N: 2, M: 2}, {N: 9, M: 12}} {
			for m := 1; m <= 4; m++ {
				em, err := embound.Em(s, g, m)
				if err != nil {
					t.Fatal(err)
				}
				if want := dfsEm(t, s, g, m); em != want {
					t.Errorf("%s g=%v m=%d: sweep e_m=%d, DFS max K_r=%d", s.Name(), g, m, em, want)
				}
			}
		}
	}
}

// TestEmWorkersMatchesDFS: the split sweep equals the DFS reference for
// every worker count, on inputs long enough to split into several chunks
// and on inputs shorter than one chunk's warm-up (down to L = 1).
// GOMAXPROCS is raised so four workers really run four chunks.
func TestEmWorkersMatchesDFS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var seqs []*seq.Sequence
	for i, L := range []int{400, 777, 1500} {
		s, err := gen.GenomeLike(L, uint64(20+i))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	b, err := gen.BacterialLike(1000, 31)
	if err != nil {
		t.Fatal(err)
	}
	seqs = append(seqs, b)
	for _, L := range []int{1, 2, 7, 30, 60} {
		s, err := gen.GenomeLike(L, uint64(L))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, s)
	}
	for _, s := range seqs {
		for _, g := range []combinat.Gap{{N: 1, M: 3}, {N: 9, M: 12}, {N: 9, M: 16}} {
			for m := 1; m <= 4; m++ {
				want := dfsEm(t, s, g, m)
				for workers := 1; workers <= 4; workers++ {
					em, chunks, err := embound.EmWorkers(s, g, m, workers)
					if err != nil {
						t.Fatal(err)
					}
					if em != want {
						t.Errorf("L=%d g=%v m=%d workers=%d: e_m=%d, DFS max K_r=%d",
							s.Len(), g, m, workers, em, want)
					}
					wantChunks := max(1, min(workers, s.Len()/(2*m*(g.M+1))))
					if chunks != wantChunks {
						t.Errorf("L=%d g=%v m=%d workers=%d: %d chunks, want %d",
							s.Len(), g, m, workers, chunks, wantChunks)
					}
				}
			}
		}
	}
}

// TestEmWorkersPlantedRun pins e_m = W^m to one start p*: a run of A's
// covering exactly the positions p*+N+1 .. p*+m(M+1) in an A-free
// background, so only K_p* reaches W^m and its last path ends m(M+1)
// positions right of p*. Sliding p* over the whole sequence puts it just
// left of every chunk boundary, where a warm-up one position short
// would lose that path.
func TestEmWorkersPlantedRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const L, m = 400, 3
	g := combinat.Gap{N: 1, M: 3}
	bg, err := gen.Weighted(seq.DNA, "bg", L, []float64{0, 1, 1, 1}, 17)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(math.Pow(float64(g.W()), m))
	for ps := 0; ps+m*(g.M+1) < L; ps++ {
		data := []byte(bg.Data())
		for q := ps + g.N + 1; q <= ps+m*(g.M+1); q++ {
			data[q] = 'A'
		}
		s, err := seq.NewDNA("planted", string(data))
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
			if em, _, err := embound.EmWorkers(s, g, m, workers); err != nil || em != want {
				t.Fatalf("p*=%d workers=%d: e_m=%d (err %v), want W^m=%d", ps, workers, em, err, want)
			}
		}
	}
}

// TestEmWorkersConcurrent calls the split sweep from several goroutines
// at once; run it under -race. Each call owns its scratch, so every
// caller must see the one-worker answer.
func TestEmWorkersConcurrent(t *testing.T) {
	s, err := gen.GenomeLike(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 9, M: 12}
	want, err := embound.Em(s, g, 6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			em, _, err := embound.EmWorkers(s, g, 6, workers)
			if err != nil {
				t.Error(err)
				return
			}
			if em != want {
				t.Errorf("workers=%d: e_m=%d, want %d", workers, em, want)
			}
		}(i%3 + 2)
	}
	wg.Wait()
}

// TestEmProteinFallbackPaths exercises the large-code-space paths: the
// merge-based sweep (|Σ|^m beyond the dense table) and, for Kr, the map
// fallback — both against each other and the DFS.
func TestEmProteinFallbackPaths(t *testing.T) {
	s, err := gen.ProteinRepeat(250, 13)
	if err != nil {
		t.Fatal(err)
	}
	g := combinat.Gap{N: 1, M: 2}
	// m = 6: 20^6 = 6.4e7 > 1<<24, so Em uses emSweepMerge and Kr's
	// kounter uses the map table.
	em, err := embound.Em(s, g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if want := dfsEm(t, s, g, 6); em != want {
		t.Errorf("merge sweep e_m=%d, DFS max K_r=%d", em, want)
	}
	if em < 1 || em > int64(math.Pow(float64(g.W()), 6)) {
		t.Errorf("e_m=%d out of range", em)
	}
}
