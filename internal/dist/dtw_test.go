package dist

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDTW is an independent full-matrix reference implementation: no row
// reuse, no early abandoning, band applied directly — the golden oracle
// for the optimized kernel. window < 0 means unconstrained; otherwise the
// band is widened to |n−m| so the corner path stays feasible.
func naiveDTW(a, b []float64, window int) float64 {
	return math.Sqrt(naiveDTWAcc(a, b, window))
}

// naiveDTWAcc is naiveDTW before the root: the squared-cost accumulator of
// the last cell.
func naiveDTWAcc(a, b []float64, window int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	band := window
	if band >= 0 {
		if d := n - m; d > band {
			band = d
		} else if -d > band {
			band = -d
		}
	}
	inf := math.Inf(1)
	acc := make([][]float64, n)
	for i := range acc {
		acc[i] = make([]float64, m)
		for j := range acc[i] {
			acc[i][j] = inf
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if band >= 0 && (i-j > band || j-i > band) {
				continue
			}
			d := a[i] - b[j]
			cost := float64(d * d)
			switch {
			case i == 0 && j == 0:
				acc[i][j] = cost
			case i == 0:
				acc[i][j] = acc[i][j-1] + cost
			case j == 0:
				acc[i][j] = acc[i-1][j] + cost
			default:
				best := acc[i-1][j-1]
				if acc[i-1][j] < best {
					best = acc[i-1][j]
				}
				if acc[i][j-1] < best {
					best = acc[i][j-1]
				}
				acc[i][j] = best + cost
			}
		}
	}
	return acc[n-1][m-1]
}

func randSeries(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestDTWGolden(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{0, 1, 2}, []float64{0, 2}, 1},       // warp 1↔2 alignment
		{[]float64{1, 2, 3}, []float64{1, 2, 3}, 0},    // identical
		{[]float64{0, 0}, []float64{3, 4}, 5},          // no warp helps
		{[]float64{5}, []float64{2}, 3},                // single points
		{[]float64{1, 1, 1, 1}, []float64{1}, 0},       // constant collapse
		{[]float64{0, 1, 1, 2}, []float64{0, 1, 2}, 0}, // duplicate absorbed
	}
	for i, c := range cases {
		if got := DTW(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: DTW = %v, want %v", i, got, c.want)
		}
	}
}

func TestDTWMatchesNaiveReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var w Workspace
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		m := 1 + r.Intn(40)
		a, b := randSeries(r, n), randSeries(r, m)
		want := naiveDTW(a, b, -1)
		if got := w.DTW(a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d m=%d): DTW = %v, naive = %v", trial, n, m, got, want)
		}
		if got := DTW(a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: package DTW = %v, naive = %v", trial, got, want)
		}
	}
}

func TestDTWEarlyAbandonExactOrInf(t *testing.T) {
	// A finite result must be the exact distance; +Inf must only appear
	// when the true distance genuinely exceeds the cutoff.
	r := rand.New(rand.NewSource(11))
	var w Workspace
	abandoned, kept := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(30)
		m := 2 + r.Intn(30)
		a, b := randSeries(r, n), randSeries(r, m)
		want := naiveDTW(a, b, -1)
		cutoff := float64(want * (0.25 + float64(1.5*r.Float64()))) // straddle the true value
		got := w.DTWEarlyAbandon(a, b, cutoff)
		if math.IsInf(got, 1) {
			abandoned++
			if want <= cutoff-1e-9 {
				t.Fatalf("trial %d: abandoned although DTW %v ≤ cutoff %v", trial, want, cutoff)
			}
		} else {
			kept++
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: finite result %v != exact %v", trial, got, want)
			}
		}
	}
	if abandoned == 0 || kept == 0 {
		t.Fatalf("degenerate trial mix: %d abandoned, %d kept", abandoned, kept)
	}
}

func TestDTWEarlyAbandonKeepsResultEqualToCutoff(t *testing.T) {
	// Range searches with radius 0 rely on a result exactly at the cutoff
	// surviving: cutoff 0 must still find an identical subsequence.
	var w Workspace
	a := []float64{0.3, 0.7, 0.1}
	if got := w.DTWEarlyAbandon(a, a, 0); got != 0 {
		t.Errorf("cutoff-0 self distance = %v, want 0", got)
	}
}

func TestDTWSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a := randSeries(r, 1+r.Intn(25))
		b := randSeries(r, 1+r.Intn(25))
		if d1, d2 := DTW(a, b), DTW(b, a); math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("DTW not symmetric: %v vs %v", d1, d2)
		}
	}
}

func TestDTWAtMostED(t *testing.T) {
	// The diagonal is a valid warping path, so DTW ≤ ED for equal lengths.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(30)
		a, b := randSeries(r, n), randSeries(r, n)
		if dtw, ed := DTW(a, b), ED(a, b); dtw > ed+1e-9 {
			t.Fatalf("DTW %v > ED %v", dtw, ed)
		}
	}
}

func TestWorkspaceReuseAcrossSizes(t *testing.T) {
	// Growing and shrinking candidates must not leave stale state behind.
	r := rand.New(rand.NewSource(9))
	var w Workspace
	for _, n := range []int{50, 5, 80, 1, 33} {
		a := randSeries(r, n)
		b := randSeries(r, n/2+1)
		want := naiveDTW(a, b, -1)
		if got := w.DTW(a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("size %d: reused workspace %v != naive %v", n, got, want)
		}
	}
}

func TestNormalizedDTW(t *testing.T) {
	if d := NormalizedDTWDivisor(6, 10); d != 20 {
		t.Errorf("divisor(6,10) = %v, want 20", d)
	}
	if d := NormalizedDTWDivisor(10, 6); d != 20 {
		t.Errorf("divisor(10,6) = %v, want 20", d)
	}
	a := []float64{0, 1, 2}
	b := []float64{0, 2}
	want := 1.0 / 6 // DTW = 1, divisor = 2·3
	if got := NormalizedDTW(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("NormalizedDTW = %v, want %v", got, want)
	}
}

func TestDTWEmpty(t *testing.T) {
	if d := DTW(nil, nil); d != 0 {
		t.Errorf("DTW(nil,nil) = %v, want 0", d)
	}
	if d := DTW([]float64{1}, nil); !math.IsInf(d, 1) {
		t.Errorf("DTW(x,nil) = %v, want +Inf", d)
	}
}
