package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a percentile is reported only when at least
// this many samples lie beyond it.
const minBeyond = 10

// bestOf keeps, for each op position, the fastest of its k samples. The
// host alternates between a fast and a ~2x slower CPU state in phases of
// up to several seconds; an op's repetitions are spread across the whole
// run, so its minimum lands in a fast phase while a mean or median would
// track the phase mix.
type bestOf struct {
	min []float64 // ns; +Inf until the first sample
	k   []int
}

func newBestOf(n int) *bestOf {
	b := &bestOf{min: make([]float64, n), k: make([]int, n)}
	for i := range b.min {
		b.min[i] = math.Inf(1)
	}
	return b
}

func (b *bestOf) add(pos int, ns float64) {
	if ns < b.min[pos] {
		b.min[pos] = ns
	}
	b.k[pos]++
}

// values returns the per-position best of the positions sampled at least
// once, in position order.
func (b *bestOf) values() []float64 {
	out := make([]float64, 0, len(b.min))
	for i, v := range b.min {
		if b.k[i] > 0 {
			out = append(out, v)
		}
	}
	return out
}

// sum is the total over sampled positions of their best time.
func (b *bestOf) sum() float64 {
	var s float64
	for _, v := range b.values() {
		s += v
	}
	return s
}

// minK is the smallest sample count over all positions (0 when a position
// was never run).
func (b *bestOf) minK() int {
	if len(b.k) == 0 {
		return 0
	}
	m := b.k[0]
	for _, k := range b.k[1:] {
		m = min(m, k)
	}
	return m
}

// percentile returns the nearest-rank percentile of xs, given in tenths of
// a percent (500 = median, 990 = p99), and the number of samples beyond it.
func percentile(xs []float64, permille int) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max((permille*len(s)+999)/1000, 1) // 1-based nearest rank
	return s[rank-1], len(s) - rank
}

// tailOK reports whether the percentile (in tenths of a percent) of n
// samples has at least minBeyond samples beyond it.
func tailOK(n, permille int) bool {
	return n-(permille*n+999)/1000 >= minBeyond
}

// highestTail returns the highest percentile, in tenths of a percent, of n
// samples that still has at least minBeyond samples beyond it; 0 when no
// percentile does.
func highestTail(n int) int {
	for p := 999; p > 0; p-- {
		if tailOK(n, p) {
			return p
		}
	}
	return 0
}

// tailPercentile returns the percentile of xs asked for, in tenths of a
// percent, capped at the highest percentile that keeps minBeyond samples
// beyond it (the smallest sample when no percentile does). It also returns
// the percentile used and the number of samples beyond it.
func tailPercentile(xs []float64, permille int) (v float64, used, beyond int) {
	used = min(permille, highestTail(len(xs)))
	v, beyond = percentile(xs, used)
	return v, used, beyond
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 500)
	return v
}
