package dist

import (
	"math"
	"math/rand"
	"testing"
)

// naiveEnvelope is the direct O(n·r) reference for the deque-based kernel.
func naiveEnvelope(x []float64, r int) (upper, lower []float64) {
	n := len(x)
	upper = make([]float64, n)
	lower = make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := i-r, i+r
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		u, l := x[lo], x[lo]
		for j := lo + 1; j <= hi; j++ {
			if x[j] > u {
				u = x[j]
			}
			if x[j] < l {
				l = x[j]
			}
		}
		upper[i], lower[i] = u, l
	}
	return upper, lower
}

func TestEnvelopeMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(60)
		radius := r.Intn(n + 3) // occasionally beyond the full radius
		x := randSeries(r, n)
		wantU, wantL := naiveEnvelope(x, radius)
		gotU, gotL := Envelope(x, radius, nil, nil)
		for i := 0; i < n; i++ {
			if gotU[i] != wantU[i] || gotL[i] != wantL[i] {
				t.Fatalf("trial %d (n=%d r=%d) index %d: got (%v,%v) want (%v,%v)",
					trial, n, radius, i, gotU[i], gotL[i], wantU[i], wantL[i])
			}
		}
	}
}

func TestEnvelopeReusesBuffers(t *testing.T) {
	x := []float64{1, 3, 2, 5, 4}
	u1, l1 := Envelope(x, 1, nil, nil)
	u2, l2 := Envelope(x, 2, u1, l1)
	if &u1[0] != &u2[0] || &l1[0] != &l2[0] {
		t.Error("sufficient-capacity buffers were not reused")
	}
	// A longer input must grow them instead of slicing out of range.
	long := randSeries(rand.New(rand.NewSource(1)), 32)
	u3, l3 := Envelope(long, 4, u2, l2)
	if len(u3) != 32 || len(l3) != 32 {
		t.Errorf("grown envelope lengths %d/%d, want 32", len(u3), len(l3))
	}
}

func TestEnvelopeEmptyAndZeroRadius(t *testing.T) {
	u, l := Envelope(nil, 3, nil, nil)
	if len(u) != 0 || len(l) != 0 {
		t.Error("empty input must yield empty envelopes")
	}
	x := []float64{4, 1, 7}
	u, l = Envelope(x, 0, nil, nil)
	for i := range x {
		if u[i] != x[i] || l[i] != x[i] {
			t.Errorf("radius-0 envelope differs from input at %d", i)
		}
	}
}

func TestQueryOrderIsSortedPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		q := randSeries(r, 1+r.Intn(40))
		order := QueryOrder(q)
		if len(order) != len(q) {
			t.Fatalf("order length %d != %d", len(order), len(q))
		}
		seen := make([]bool, len(q))
		for i, idx := range order {
			if idx < 0 || idx >= len(q) || seen[idx] {
				t.Fatalf("order is not a permutation at %d", i)
			}
			seen[idx] = true
			if i > 0 && math.Abs(q[order[i-1]]) < math.Abs(q[idx])-1e-15 {
				t.Fatalf("order not decreasing by |q| at %d", i)
			}
		}
	}
}

func TestLBKimGolden(t *testing.T) {
	q := []float64{1, 9, 9, 2}
	c := []float64{4, 0, 6}
	// √((1−4)² + (2−6)²) = 5.
	if got := LBKim(q, c); math.Abs(got-5) > 1e-12 {
		t.Errorf("LBKim = %v, want 5", got)
	}
	// Single-point sequences pay the sole cell once, not twice.
	if got := LBKim([]float64{3}, []float64{1}); got != 2 {
		t.Errorf("LBKim singletons = %v, want 2", got)
	}
	if got := LBKim(nil, []float64{1}); got != 0 {
		t.Errorf("LBKim empty = %v, want 0", got)
	}
}

// lbKeoghUnordered is the Keogh bound summed in index order with no
// abandoning: the reference for the reordered, early-abandoning kernel.
func lbKeoghUnordered(q, upper, lower []float64) float64 {
	var sum float64
	for i, v := range q {
		if v > upper[i] {
			d := v - upper[i]
			sum += float64(d * d)
		} else if v < lower[i] {
			d := lower[i] - v
			sum += float64(d * d)
		}
	}
	return math.Sqrt(sum)
}

func TestLBKeoghOrderedMatchesUnordered(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(40)
		q := randSeries(r, n)
		c := randSeries(r, n)
		u, l := Envelope(c, r.Intn(n), nil, nil)
		want := lbKeoghUnordered(q, u, l)
		got := LBKeoghOrdered(q, u, l, QueryOrder(q), math.Inf(1))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("ordered %v != unordered %v", got, want)
		}
	}
}

func TestLBKeoghEarlyAbandon(t *testing.T) {
	q := []float64{10, 10, 10}
	u := []float64{1, 1, 1}
	l := []float64{0, 0, 0}
	exact := math.Sqrt(3 * 81)
	if got := LBKeoghOrdered(q, u, l, []int{0, 1, 2}, math.Inf(1)); math.Abs(got-exact) > 1e-12 {
		t.Errorf("LBKeoghOrdered = %v, want %v", got, exact)
	}
	if got := LBKeoghOrdered(q, u, l, []int{0, 1, 2}, exact/2); !math.IsInf(got, 1) {
		t.Errorf("ordered cutoff below bound = %v, want +Inf", got)
	}
}

// TestPropertyLowerBoundSandwich verifies, over well more than 100 random
// series pairs, the admissibility chain the Sec. 5.3 pruning cascade
// depends on: LB_Kim ≤ DTW and LB_Keogh ≤ DTW individually, hence the
// cascade's effective bound max(LB_Kim, LB_Keogh) is sandwiched between
// the cheapest bound and the true distance,
//
//	LBKim ≤ max(LBKim, LBKeogh) ≤ DTW.
//
// Note the two bounds are NOT pointwise ordered against each other: for
// q = (0,0), c = (1,0) the full-radius envelope [0,1] swallows q entirely
// (LB_Keogh = 0) while LB_Kim = 1 — which is why the cascade takes the max
// rather than assuming LB_Keogh dominates.
func TestPropertyLowerBoundSandwich(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	var w Workspace
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(40)
		q := randSeries(r, n)
		c := randSeries(r, n)
		if trial%3 == 0 {
			// Correlated pairs keep some distances small so the chain is
			// exercised away from the trivially-large regime too.
			c = append([]float64(nil), q...)
			for i := range c {
				c[i] += float64(0.1 * r.NormFloat64())
			}
		}
		u, l := Envelope(c, n, nil, nil) // full radius: admissible for unconstrained DTW
		lbKim := LBKim(q, c)
		lbKeogh := LBKeoghOrdered(q, u, l, QueryOrder(q), math.Inf(1))
		dtw := w.DTW(q, c)
		cascade := math.Max(lbKim, lbKeogh)
		if lbKim > dtw+1e-9 {
			t.Fatalf("trial %d: LBKim %v > DTW %v", trial, lbKim, dtw)
		}
		if lbKeogh > dtw+1e-9 {
			t.Fatalf("trial %d: LBKeogh %v > DTW %v", trial, lbKeogh, dtw)
		}
		if lbKim > cascade+1e-12 || cascade > dtw+1e-9 {
			t.Fatalf("trial %d: sandwich violated: %v ≤ %v ≤ %v", trial, lbKim, cascade, dtw)
		}
	}
}

// TestPropertyLBKimCrossLength checks LB_Kim's admissibility for pairs of
// different lengths — the regime the query processor uses it in before the
// same-length-only LB_Keogh applies.
func TestPropertyLBKimCrossLength(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	var w Workspace
	for trial := 0; trial < 150; trial++ {
		q := randSeries(r, 1+r.Intn(30))
		c := randSeries(r, 1+r.Intn(30))
		if lb, dtw := LBKim(q, c), w.DTW(q, c); lb > dtw+1e-9 {
			t.Fatalf("trial %d: cross-length LBKim %v > DTW %v", trial, lb, dtw)
		}
	}
}

// TestPropertyLBKeoghBanded checks admissibility of LB_Keogh for banded
// DTW whenever the envelope radius covers the band.
func TestPropertyLBKeoghBanded(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 150; trial++ {
		n := 2 + r.Intn(30)
		q := randSeries(r, n)
		c := randSeries(r, n)
		window := r.Intn(n)
		radius := window + r.Intn(n-window)
		u, l := Envelope(c, radius, nil, nil)
		lb := LBKeoghOrdered(q, u, l, QueryOrder(q), math.Inf(1))
		dtw := naiveDTW(q, c, window)
		if lb > dtw+1e-9 {
			t.Fatalf("trial %d (n=%d w=%d r=%d): LBKeogh %v > banded DTW %v",
				trial, n, window, radius, lb, dtw)
		}
	}
}
