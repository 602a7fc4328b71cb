package main

import (
	"math"
	"math/rand"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so the figures printed here agree with the
// steadiness report's. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// statistics.quantiles, method="exclusive": j = k*(n+1)//4 clamped
		// to [1, n-1], then linear inter- or extrapolation from s[j-1], s[j].
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), quantile(s, 0.5), at(3)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q=0.5 is the ordinary median).
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cellSeries holds one value per measured pass for every cell of a
// workload, indexed [cell][pass].
type cellSeries [][]float64

// medians reduces each cell's samples to its median (NaN for a cell with
// no samples, such as an analytic cell's empty set-up series).
func (cs cellSeries) medians() []float64 {
	out := make([]float64, len(cs))
	for i, xs := range cs {
		out[i] = median(xs)
	}
	return out
}

// sumOfMedians is a workload total: the sum over cells of each cell's
// median across passes. Summing medians (not taking the median of pass
// totals) keeps one slow pass of one cell from moving the total. Cells
// without samples are skipped.
func (cs cellSeries) sumOfMedians() float64 {
	var sum float64
	for _, m := range cs.medians() {
		if !math.IsNaN(m) {
			sum += m
		}
	}
	return sum
}

// maxOfMedians is the slowest (or largest) cell's median: the long pole.
// cell is -1 when no cell has samples.
func (cs cellSeries) maxOfMedians() (value float64, cell int) {
	cell = -1
	for i, m := range cs.medians() {
		if !math.IsNaN(m) && (cell < 0 || m > value) {
			value, cell = m, i
		}
	}
	return value, cell
}

// passTotals sums each pass across cells (for the reported quartiles of a
// workload total). Every cell must hold the same number of passes.
func (cs cellSeries) passTotals() []float64 {
	if len(cs) == 0 {
		return nil
	}
	out := make([]float64, len(cs[0]))
	for _, xs := range cs {
		for p, x := range xs {
			out[p] += x
		}
	}
	return out
}

// passOrder returns the order in which one pass visits n cells: a
// permutation drawn from the run's seed and the pass number, so every pass
// runs every cell exactly once (round robin) while no cell is always first
// or always follows the same neighbour.
func passOrder(n int, seed int64, pass int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	return rng.Perm(n)
}
