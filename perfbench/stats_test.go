package main

import (
	"math"
	"slices"
	"testing"
)

func TestBestOfKeepsEachPositionsMinimum(t *testing.T) {
	b := newBestOf(4)
	// Three round-robin passes; position 3 never runs.
	for _, pass := range [][]float64{{5, 9, 7}, {4, 10, 8}, {6, 8, 9}} {
		for pos, v := range pass {
			b.add(pos, v)
		}
	}
	if got, want := b.values(), []float64{4, 8, 7}; !slices.Equal(got, want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
	if got := b.sum(); got != 19 {
		t.Fatalf("sum = %v, want 19", got)
	}
	if got := b.minK(); got != 0 {
		t.Fatalf("minK = %d, want 0 for a position never run", got)
	}
	if !math.IsInf(b.min[3], 1) || b.k[1] != 3 {
		t.Fatalf("unsampled position %v, samples at 1: %d", b.min[3], b.k[1])
	}
}

func TestPercentileIsNearestRankWithSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	for _, c := range []struct {
		permille int
		v        float64
		beyond   int
	}{{500, 50, 50}, {900, 90, 10}, {990, 99, 1}, {1000, 100, 0}} {
		v, beyond := percentile(xs, c.permille)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%g = %v with %d beyond, want %v with %d", float64(c.permille)/10, v, beyond, c.v, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestTailRuleNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, permille int
		ok          bool
	}{
		{100, 900, true}, {99, 900, false},
		{1000, 990, true}, {999, 990, false},
		{120, 990, false}, {18, 900, false},
	} {
		if got := tailOK(c.n, c.permille); got != c.ok {
			t.Errorf("tailOK(%d, %d) = %v, want %v", c.n, c.permille, got, c.ok)
		}
	}
	for _, c := range []struct{ n, want int }{{100, 900}, {120, 916}, {1000, 990}, {2048, 995}, {10, 0}, {0, 0}} {
		got := highestTail(c.n)
		if got != c.want {
			t.Errorf("highestTail(%d) = %d, want %d", c.n, got, c.want)
		}
		if got > 0 && (!tailOK(c.n, got) || tailOK(c.n, got+1)) {
			t.Errorf("highestTail(%d) = %d is not the highest percentile with %d beyond", c.n, got, minBeyond)
		}
	}
}

func TestTailPercentileCapsAtTheTenBeyondRule(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n, permille      int
		v                float64
		used, wantBeyond int
	}{
		{5120, 990, 5069, 990, 51}, // serve-loopback: p99 holds
		{114, 900, 103, 900, 11},   // offline-sim: p90 holds
		{114, 990, 104, 912, 10},   // offline-sim: p99 capped at p91.2
		{18, 900, 8, 444, 10},      // reprotables-all: capped below the median
		{5, 990, 1, 0, 4},          // too few samples: the smallest
	} {
		v, used, beyond := tailPercentile(sample(c.n), c.permille)
		if v != c.v || used != c.used || beyond != c.wantBeyond {
			t.Errorf("n=%d p%g: got %v at p%g with %d beyond, want %v at p%g with %d",
				c.n, float64(c.permille)/10, v, float64(used)/10, beyond, c.v, float64(c.used)/10, c.wantBeyond)
		}
	}
}
