package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// failedMs stands in for the latency of a failed request: a failure misses
// every latency limit, so it sorts past every real sample.
const failedMs = 1e9

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tail is a tail-percentile pick: the percentile actually used, its value,
// and the sample count it was taken from.
type tail struct {
	Pct   float64 `json:"pct"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// pickTail returns the highest whole percentile <= want that has at least
// minTail samples beyond its rank, with the sample count. Too few samples
// for any tail fall back to the median.
func pickTail(sorted []float64, want float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	pct := want
	for pct > 50 && n-rank(n, pct/100) < minTail {
		pct--
	}
	pct = max(pct, 50)
	return tail{Pct: pct, Value: sorted[rank(n, pct/100)-1], N: n}
}

// quietRounds returns, in round order, the indices of the half of the
// rounds (rounded up) with the least CPU steal; ties go to the earlier round.
func quietRounds(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (nearest rank).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
