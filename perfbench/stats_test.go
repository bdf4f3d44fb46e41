package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
		wantOK     bool
	}{
		{n: 100, p: 90, want: 90, wantBeyond: 10, wantOK: true},
		{n: 100, p: 50, want: 50, wantBeyond: 50, wantOK: true},
		{n: 99, p: 90, want: 90, wantBeyond: 9, wantOK: false},
		{n: 110, p: 90, want: 99, wantBeyond: 11, wantOK: true},
		{n: 1000, p: 99, want: 990, wantBeyond: 10, wantOK: true},
		{n: 500, p: 99, want: 495, wantBeyond: 5, wantOK: false},
		{n: 20, p: 50, want: 10, wantBeyond: 10, wantOK: true},
		{n: 1, p: 100, want: 1, wantBeyond: 0, wantOK: false},
	} {
		got, beyond, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || beyond != tc.wantBeyond || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, p%v) = %v, %d beyond, ok=%v; want %v, %d, %v",
				tc.n, tc.p, got, beyond, ok, tc.want, tc.wantBeyond, tc.wantOK)
		}
	}
}

// A p90 is reportable exactly when at least ten samples lie beyond it,
// which for nearest rank first happens at 100 samples.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for n := 1; n <= 200; n++ {
		_, beyond, ok := percentile(seq(n), 90)
		if ok != (beyond >= minBeyond) {
			t.Fatalf("n=%d: ok=%v with %d beyond", n, ok, beyond)
		}
		if ok != (n >= 100) {
			t.Fatalf("n=%d: p90 reportable=%v, want %v", n, ok, n >= 100)
		}
	}
}

func TestPercentileRejectsBadInput(t *testing.T) {
	if _, _, ok := percentile(nil, 50); ok {
		t.Error("empty sample reported a percentile")
	}
	for _, p := range []float64{0, -1, 101, math.NaN()} {
		if _, _, ok := percentile(seq(200), p); ok {
			t.Errorf("p=%v accepted", p)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestMedianMinMax(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	if minOf([]float64{2, -1, 3}) != -1 || maxOf([]float64{2, -1, 3}) != 3 {
		t.Error("minOf/maxOf wrong")
	}
}
