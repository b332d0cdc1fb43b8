package baseline

import (
	"math"
	"math/rand"
	"testing"

	"onex/internal/dist"
)

// naiveBandedDTW is the full-matrix banded DTW of two equal-length
// sequences: every cell with |i−j| ≤ window, no row reuse, no abandoning.
func naiveBandedDTW(a, b []float64, window int) float64 {
	n := len(a)
	inf := math.Inf(1)
	acc := make([][]float64, n+1)
	for i := range acc {
		acc[i] = make([]float64, n+1)
		for j := range acc[i] {
			acc[i][j] = inf
		}
	}
	acc[0][0] = 0
	for i := 1; i <= n; i++ {
		for j := max(1, i-window); j <= min(n, i+window); j++ {
			d := a[i-1] - b[j-1]
			acc[i][j] = min(acc[i-1][j-1], acc[i-1][j], acc[i][j-1]) + float64(d*d)
		}
	}
	return math.Sqrt(acc[n][n])
}

func randWalk(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// TestDTWBandedMatchesNaiveReference: Trillion's banded kernel is the
// full-matrix banded DTW at every band width, a band as wide as the series
// is the unconstrained DTW bit for bit, and under a cutoff a finite result
// is exact while +Inf appears only above the cutoff.
func TestDTWBandedMatchesNaiveReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	abandoned := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(30)
		window := r.Intn(12)
		a, b := randWalk(r, n), randWalk(r, n)
		prev, curr := make([]float64, n+1), make([]float64, n+1)
		want := naiveBandedDTW(a, b, window)
		if got := bandedDTW(a, b, window, math.Inf(1), prev, curr); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d w=%d): banded DTW = %v, naive = %v", trial, n, window, got, want)
		}
		if got, full := bandedDTW(a, b, n, math.Inf(1), prev, curr), dist.DTW(a, b); got != full {
			t.Fatalf("trial %d: full-width band %v != unconstrained DTW %v", trial, got, full)
		}
		cutoff := float64(want * (0.25 + float64(1.5*r.Float64())))
		switch got := bandedDTW(a, b, window, cutoff, prev, curr); {
		case math.IsInf(got, 1):
			abandoned++
			if want <= cutoff-1e-9 {
				t.Fatalf("trial %d: abandoned although banded DTW %v ≤ cutoff %v", trial, want, cutoff)
			}
		case math.Abs(got-want) > 1e-9:
			t.Fatalf("trial %d: finite result %v != exact %v", trial, got, want)
		}
	}
	if abandoned == 0 {
		t.Fatal("no trial abandoned; the cutoff went untested")
	}
}

func BenchmarkDTWBanded128(b *testing.B) {
	r := rand.New(rand.NewSource(128))
	q, c := randWalk(r, 128), randWalk(r, 128)
	prev, curr := make([]float64, 129), make([]float64, 129)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bandedDTW(q, c, 8, math.Inf(1), prev, curr)
	}
}
