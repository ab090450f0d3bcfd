package main

import (
	"fmt"
	"math"
	"sort"
)

// The benchmark's own arithmetic: medians over iterations, the tail
// percentile rule, the geometric mean of normalized overheads, and the
// Table 3 error against the paper. Tested in stats_test.go.

// median returns the median of xs (the mean of the middle pair for an even
// count); xs is not modified.
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

// minAbove is how many samples must lie above a reported tail
// percentile: a p99 resting on fewer is one unlucky sample, not a tail.
const minAbove = 10

// percentile returns the nearest-rank p-th percentile of samples (sorted
// ascending) and how many samples lie strictly above its rank. It fails
// when fewer than minAbove samples lie above, so a p99 needs at least
// 1,000 samples.
func percentile(sorted []uint64, p float64) (uint64, int, error) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	above := n - rank
	if above < minAbove {
		return 0, above, fmt.Errorf("p%g of %d samples has %d above it; need %d", p, n, above, minAbove)
	}
	return sorted[rank-1], above, nil
}

// geomean is the geometric mean of strictly positive values.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geomean of non-positive value %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// cells maps a Table 3 row and column to a cycle count.
type cells map[string]map[string]uint64

// table3ErrPct is the mean of |sim-paper|/paper over every cell the paper
// reports, in percent. A paper cell missing from sim is an error.
func table3ErrPct(sim, paper cells) (float64, error) {
	// Sum in a fixed order: float addition is not associative, and the
	// result is compared bit for bit across iterations.
	var keys [][2]string
	for row, cols := range paper {
		for col := range cols {
			keys = append(keys, [2]string{row, col})
		}
	}
	if len(keys) == 0 {
		return 0, fmt.Errorf("no paper cells")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	sum := 0.0
	for _, k := range keys {
		want := paper[k[0]][k[1]]
		got, ok := sim[k[0]][k[1]]
		if !ok {
			return 0, fmt.Errorf("table 3 has no %s / %s cell", k[0], k[1])
		}
		sum += math.Abs(float64(got)-float64(want)) / float64(want)
	}
	return 100 * sum / float64(len(keys)), nil
}
