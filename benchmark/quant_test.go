package main

import (
	"slices"
	"testing"
)

// TestQuantileNearestRank pins the quantile definition on known
// samples: the smallest sample with at least q of the samples at or
// below it — exact, no interpolation, no buckets.
func TestQuantileNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		s    []int64
		q    float64
		want int64
	}{
		{ten, 0.5, 50},
		{ten, 0.9, 90},
		{ten, 0.91, 100},
		{ten, 0.99, 100},
		{ten, 1, 100},
		{ten, 0, 10},
		{ten, 0.1, 10},
		{ten, 0.11, 20},
		{[]int64{7}, 0.5, 7},
		{[]int64{1, 2, 3}, 0.5, 2},
		{[]int64{1, 2, 3, 4}, 0.5, 2},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.s, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %d, want %d", c.s, c.q, got, c.want)
		}
	}
	unsorted := []int64{5, 1, 4, 2, 3}
	slices.Sort(unsorted)
	if got := quantile(unsorted, 0.9); got != 5 {
		t.Errorf("p90 of 1..5 = %d, want 5", got)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}
