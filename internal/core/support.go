package core

import "math"

// Meets reports sup >= threshold with a tiny relative tolerance so that
// float64 threshold computation does not drop exact-boundary supports.
// Every place a support is compared against a ρs-derived threshold — the
// level-wise miners, the enumeration baseline, MPPm's n estimation, the
// brute-force oracle and the query layer's cache filter — must go through
// this one comparison, so a cache-filtered answer agrees with a fresh
// mining run even when a support sits exactly on the boundary.
func Meets(sup int64, threshold float64) bool {
	return sup > 0 && float64(sup) >= threshold*(1-1e-12)
}

// SupportCut returns the smallest support Meets accepts for threshold,
// so Meets(sup, threshold) == (sup >= SupportCut(threshold)) for every
// support below math.MaxInt64: the integer form of the comparison, for
// code that tests one threshold many times (the miner's join kernels
// stop a join once its support provably stays below the cut). The cut is
// at least 1, since Meets rejects support 0. A threshold no int64
// support meets saturates the cut at math.MaxInt64, which supports never
// reach: the miners refuse levels whose counts could approach int64.
func SupportCut(threshold float64) int64 {
	// Meets is monotone in sup (float64 conversion is), so binary search
	// finds the cut exactly — including above 2^53, where neighbouring
	// supports convert to the same float64 — without reasoning about
	// rounding.
	if !Meets(math.MaxInt64, threshold) {
		return math.MaxInt64
	}
	lo, hi := int64(1), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if Meets(mid, threshold) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
