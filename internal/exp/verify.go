package exp

import (
	"fmt"
	"io"
)

// Claim is one verifiable shape statement from the paper's evaluation,
// with the measured evidence.
type Claim struct {
	Exhibit string
	Name    string
	OK      bool
	Detail  string
}

// Verify re-runs the exhibits and checks every shape claim EXPERIMENTS.md
// makes against the paper. It returns all claims (pass and fail);
// cfg.Quick shrinks the sweeps (the claims are chosen to hold either
// way).
func Verify(cfg Config) ([]Claim, error) {
	cfg = cfg.withDefaults()
	var claims []Claim
	add := func(exhibit, name string, ok bool, detail string, args ...any) {
		claims = append(claims, Claim{
			Exhibit: exhibit, Name: name, OK: ok, Detail: fmt.Sprintf(detail, args...),
		})
	}

	// Table 2: exact reproduction.
	rows2, em, err := RunTable2()
	if err != nil {
		return nil, err
	}
	want2 := []int64{2, 1, 2, 1, 0, 0, 0, 0}
	exact := em == 2 && len(rows2) == len(want2)
	for i := range want2 {
		exact = exact && rows2[i].Kr == want2[i]
	}
	add("Table 2", "K_r values and e_m match the paper exactly", exact, "e_m=%d", em)

	// Figure 4 doubles as the Table 3 source: the candidate hierarchy
	// and timing shapes.
	rows4, err := RunFig4(cfg)
	if err != nil {
		return nil, err
	}
	hierOK, timeOK, monoOK, autoOK := true, true, true, true
	for i, r := range rows4 {
		hierOK = hierOK && r.WorstCand >= r.MPPmCand && r.MPPmCand >= r.BestCand
		timeOK = timeOK && r.WorstSec > r.MPPmSec
		autoOK = autoOK && r.AutoN >= r.No
		if i > 0 {
			monoOK = monoOK && r.Patterns <= rows4[i-1].Patterns
		}
	}
	add("Table 3", "candidate hierarchy worst >= MPPm >= best at every threshold", hierOK, "%d thresholds", len(rows4))
	add("Figure 4a", "MPPm beats MPP(worst) in wall-clock at every threshold", timeOK,
		"first %.2fx, last %.2fx", rows4[0].WorstSec/rows4[0].MPPmSec,
		rows4[len(rows4)-1].WorstSec/rows4[len(rows4)-1].MPPmSec)
	add("Figure 4b", "MPPm's auto n always covers the longest frequent pattern", autoOK, "autoN=%d", rows4[0].AutoN)
	add("Figure 4", "frequent-pattern count shrinks as ρs grows", monoOK, "%d -> %d patterns",
		rows4[0].Patterns, rows4[len(rows4)-1].Patterns)

	// Figure 5: candidate work grows with the user estimate n.
	rows5, err := RunFig5(cfg)
	if err != nil {
		return nil, err
	}
	inc5 := true
	for i := 1; i < len(rows5); i++ {
		inc5 = inc5 && rows5[i].Candidates >= rows5[i-1].Candidates
	}
	add("Figure 5", "candidate totals increase monotonically with n", inc5,
		"%d (n=%d) -> %d (n=%d)", rows5[0].Candidates, rows5[0].N,
		rows5[len(rows5)-1].Candidates, rows5[len(rows5)-1].N)

	// Figure 6: runtime grows with the gap flexibility W (each W's
	// fastest of 3 timed runs).
	rows6, err := RunFig6(cfg)
	if err != nil {
		return nil, err
	}
	grow6 := rows6[len(rows6)-1].Seconds > rows6[0].Seconds
	add("Figure 6", "runtime grows with gap flexibility W", grow6,
		"%.3fs (W=%d) -> %.3fs (W=%d)", rows6[0].Seconds, rows6[0].X,
		rows6[len(rows6)-1].Seconds, rows6[len(rows6)-1].X)

	// Figure 7: pruning weakens (more candidates) as N grows.
	rows7, err := RunFig7(cfg)
	if err != nil {
		return nil, err
	}
	inc7 := true
	for i := 1; i < len(rows7); i++ {
		inc7 = inc7 && rows7[i].Candidates >= rows7[i-1].Candidates
	}
	add("Figure 7", "candidate totals increase with minimum gap N (λ weakens)", inc7,
		"%d (N=%d) -> %d (N=%d)", rows7[0].Candidates, rows7[0].X,
		rows7[len(rows7)-1].Candidates, rows7[len(rows7)-1].X)

	// Figure 8: near-linear scaling in L.
	c8 := cfg
	c8.EmOrder = 10
	rows8, err := RunFig8(c8)
	if err != nil {
		return nil, err
	}
	first, last := rows8[0], rows8[len(rows8)-1]
	linearity := (last.Seconds / first.Seconds) / (float64(last.X) / float64(first.X))
	add("Figure 8", "runtime scales linearly in L (ratio within 2x of proportional)",
		linearity > 0.4 && linearity < 2.5, "linearity=%.2f", linearity)

	// Case study: the §7 census contrasts.
	cs, err := RunCaseStudy(CaseConfig{Quick: cfg.Quick, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	at, _, multi := Averages(cs.Bacterial)
	add("Case study", "bacteria: AT-only length-8 patterns nearly all frequent (paper ~250/256)",
		at >= 200, "avg %.1f/256", at)
	add("Case study", "bacteria: multi-C/G length-8 patterns rare (paper 3.9)",
		multi <= 100, "avg %.1f/63232", multi)
	atE, _, multiE := Averages(cs.Eukaryote)
	add("Case study", "eukaryotes: the AT signal persists in some fragments",
		atE >= 100, "avg %.1f/256", atE)
	add("Case study", "eukaryotes carry more C/G-rich patterns than bacteria",
		multiE > multi, "%.1f vs %.1f", multiE, multi)
	anyG16 := false
	for _, fc := range cs.Eukaryote {
		anyG16 = anyG16 || fc.G16
	}
	add("Case study", "a long all-G pattern is frequent in a eukaryote fragment (paper: 16-17 G's in H. sapiens)",
		anyG16, "G16=%v", anyG16)

	return claims, nil
}

// FprintClaims renders the verification report; it returns an error if
// any claim failed (so callers can exit non-zero).
func FprintClaims(w io.Writer, claims []Claim) error {
	failed := 0
	for _, c := range claims {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
			failed++
		}
		if err := fprintf(w, "%-4s %-11s %s (%s)\n", status, c.Exhibit, c.Name, c.Detail); err != nil {
			return err
		}
	}
	if err := fprintf(w, "%d/%d shape claims hold\n", len(claims)-failed, len(claims)); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("exp: %d shape claim(s) failed", failed)
	}
	return nil
}
