package mine

import (
	"testing"

	"permine/internal/core"
	"permine/internal/pil"
)

// TestJoinChoice pins the kernel selection rules of joinChoice: under auto
// the dense table for span <= 4·uses·|S|, the compact layout for
// span/64 words <= compactWordsPerUse·uses·|S|, the two-pointer merge for
// sparser lists; forced twoptr always merges; forced cum always takes a
// table. A dense choice past maxCumSpan lands in the compact layout and is
// flagged as capped, forced or not.
func TestJoinChoice(t *testing.T) {
	// spread builds an n-entry list over span positions.
	spread := func(n, span int) pil.List {
		l := make(pil.List, n)
		for i := range l {
			l[i] = pil.NewEntry(int32(i*(span-1)/max(n-1, 1)), 1)
		}
		return l
	}
	cases := []struct {
		name   string
		forced core.JoinStrategy
		n      int
		span   int
		uses   int32
		kern   joinKernel
		capped bool
	}{
		{"auto, dense at the rule's edge", core.JoinAuto, 100, 400, 1, denseCum, false},
		{"auto, just past the dense rule", core.JoinAuto, 100, 401, 1, compactCum, false},
		{"auto, uses amortize the dense table", core.JoinAuto, 100, 1600, 4, denseCum, false},
		{"auto, compact at its rule's edge", core.JoinAuto, 10, 64 * 4 * 10 * 2, 2, compactCum, false},
		{"auto, just past the compact rule", core.JoinAuto, 10, 64*4*10*2 + 1, 2, twoPointer, false},
		{"auto, dense but capped", core.JoinAuto, maxCumSpan/4 + 1, maxCumSpan + 2, 1, compactCum, true},
		{"twoptr, dense list", core.JoinTwoPointer, 100, 100, 4, twoPointer, false},
		{"twoptr, capped list", core.JoinTwoPointer, 3, maxCumSpan + 2, 1, twoPointer, false},
		{"cum, sparse list", core.JoinCum, 3, 1 << 16, 1, denseCum, false},
		{"cum, capped list", core.JoinCum, 3, maxCumSpan + 1, 1, compactCum, true},
		{"cum, one entry", core.JoinCum, 1, 1, 1, denseCum, false},
	}
	for _, tc := range cases {
		s := spread(tc.n, tc.span)
		if got := int(s[len(s)-1].X-s[0].X) + 1; got != tc.span {
			t.Fatalf("%s: fixture spans %d, want %d", tc.name, got, tc.span)
		}
		kern, capped := joinChoice(tc.forced, s, tc.uses)
		if kern != tc.kern || capped != tc.capped {
			t.Errorf("%s: joinChoice = (%d, %v), want (%d, %v)", tc.name, kern, capped, tc.kern, tc.capped)
		}
	}
}
