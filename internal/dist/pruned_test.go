package dist

import (
	"math"
	"math/rand"
	"testing"
)

// checkPruned asserts the kernel's contract for one (a, b, cutoff) against
// the full matrix: bit-identical whenever the true distance is ≤ cutoff,
// +Inf or bit-identical otherwise. It reports whether the kernel abandoned.
func checkPruned(t *testing.T, w *Workspace, a, b []float64, cutoff float64) bool {
	t.Helper()
	want := naiveDTW(a, b, -1)
	got := w.DTWEarlyAbandon(a, b, cutoff)
	if math.Float64bits(got) == math.Float64bits(want) {
		return false
	}
	if want <= cutoff || !math.IsInf(got, 1) {
		t.Fatalf("n=%d m=%d cutoff=%v: kernel %v, full matrix %v", len(a), len(b), cutoff, got, want)
	}
	return true
}

// shapedSeries draws a series of length n: random, zero-variance, or
// drawn from a few values so that ties and signed zeros occur.
func shapedSeries(r *rand.Rand, n, shape int) []float64 {
	v := randSeries(r, n)
	switch shape {
	case 1:
		for i := range v {
			v[i] = v[0]
		}
	case 2:
		for i := range v {
			v[i] = [...]float64{0, math.Copysign(0, -1), 1, -1}[r.Intn(4)]
		}
	}
	return v
}

// adversarialSeries draws a series of length n whose values mix signed
// zeros, magnitudes near both ends of the float64 range, small integers and
// scaled normals, so squares overflow, underflow and tie.
func adversarialSeries(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r.Intn(6) {
		case 0:
			v[i] = math.Copysign(0, -1)
		case 1:
			v[i] = 1e300 * r.NormFloat64()
		case 2:
			v[i] = 1e-300 * r.NormFloat64()
		case 3:
			v[i] = float64(r.Intn(3))
		default:
			v[i] = r.NormFloat64() * math.Pow(2, float64(r.Intn(60)-30))
		}
	}
	return v
}

// checkParent requires the kernel to return the same bits as the frozen
// parent kernel, +Inf included: the contract lets a result above the cutoff
// be +Inf or exact, and which one the kernel picks decides what a caller
// keeps, so it may not change silently either.
func checkParent(t *testing.T, w, pw *Workspace, a, b []float64, cutoff float64) {
	t.Helper()
	got, want := w.DTWEarlyAbandon(a, b, cutoff), pw.parentDTWEarlyAbandon(a, b, cutoff)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n=%d m=%d cutoff=%v: kernel %v, parent kernel %v", len(a), len(b), cutoff, got, want)
	}
}

// TestKernelMatchesParent locks the kernel to the frozen parent kernel bit
// for bit, over shaped, adversarial and near-twin pairs of equal and
// unequal lengths, at cutoffs +Inf, the distance, one ulp either side of
// it, 0, a random value and, for equal lengths, the scan's ED seed.
func TestKernelMatchesParent(t *testing.T) {
	r := rand.New(rand.NewSource(283))
	var w, pw Workspace
	for trial := 0; trial < 6000; trial++ {
		n, m := 1+r.Intn(40), 1+r.Intn(40)
		if trial%2 == 0 {
			m = n
		}
		var a, b []float64
		switch trial % 3 {
		case 0:
			a, b = shapedSeries(r, n, trial%7%3), shapedSeries(r, m, trial%5%3)
		case 1:
			a, b = adversarialSeries(r, n), adversarialSeries(r, m)
		default:
			a, b = randSeries(r, n), make([]float64, m)
			for j := range b {
				b[j] = a[j*n/m] + float64(0.05*r.NormFloat64())
			}
		}
		d := naiveDTW(a, b, -1)
		cutoffs := []float64{
			math.Inf(1), d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), 0,
			d * (0.25 + float64(1.5*r.Float64())),
		}
		if n == m {
			cutoffs = append(cutoffs, math.Sqrt(SquaredEDEarlyAbandon(a, b, math.Inf(1))))
		}
		for _, cutoff := range cutoffs {
			checkParent(t, &w, &pw, a, b, cutoff)
		}
	}
}

// tailHeavyPair returns a near-twin pair of lengths n and m whose last
// points, and the last points but one, are far apart, so most of the
// distance is the end cell's cost e and its predecessors' least cost p,
// scaled by scale.
func tailHeavyPair(r *rand.Rand, n, m int, scale float64) (a, b []float64) {
	a, b = make([]float64, n), make([]float64, m)
	for i := range a {
		a[i] = math.Sin(float64(i) / 3)
	}
	for j := range b {
		b[j] = a[j*n/m] + float64(0.05*r.NormFloat64())
	}
	a[n-1], b[m-1] = 3+float64(r.Float64()), -3-float64(r.Float64())
	if n >= 2 {
		a[n-2] = 2 + float64(r.Float64())
	}
	if m >= 2 {
		b[m-2] = -2 - float64(r.Float64())
	}
	for i := range a {
		a[i] = float64(a[i] * scale)
	}
	for j := range b {
		b[j] = float64(b[j] * scale)
	}
	return a, b
}

// TestTailBoundAdmissible checks the row thresholds that charge a row for
// what the path still owes. tailCut must bound every x with fl(x+y) ≤ T,
// the largest such x included, at every magnitude; and on pairs whose
// distance is mostly the end cell's cost and its predecessors' — at the
// distance and one ulp either side, at n or m in {1, 2, 3}, at zero and
// subnormal cutoffs, with end costs that overflow to +Inf, and with
// non-finite inputs — the kernel must keep the full matrix's contract and
// the frozen parent kernel's bits.
func TestTailBoundAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(293))
	// The lemma, at its edge: xmax is the largest float with
	// fl(xmax+y) ≤ T, found by stepping from fl(T−y).
	edges := 0
	for trial := 0; trial < 100000; trial++ {
		tt := float64((1 + float64(r.Float64())) * math.Pow(2, float64(r.Intn(2100)-1090)))
		y := float64(tt * float64(r.Float64()))
		if trial%5 == 0 {
			y = tt
		}
		x := tt - y
		for k := 0; k < 64; k++ {
			next := math.Nextafter(x, math.Inf(1))
			if !(next+y <= tt) {
				break
			}
			x = next
		}
		for x+y > tt {
			x = math.Nextafter(x, 0)
		}
		if next := math.Nextafter(x, math.Inf(1)); next+y <= tt {
			continue // too many steps above fl(T−y); xmax is unknown
		}
		if x > tt-y {
			edges++
		}
		if cut := tailCut(tt, y); !(x <= cut) {
			t.Fatalf("T=%v y=%v: fl(x+y) ≤ T at x=%v, above tailCut %v", tt, y, x, cut)
		}
	}
	if edges == 0 {
		t.Fatal("fl(T−y) was always the largest x; the margin went untested")
	}

	var w, pw Workspace
	lens := []int{1, 2, 3, 4, 8, 17, 40}
	scales := []float64{1, 1e-160, 0x1p-537, 1e150}
	for trial := 0; trial < 3000; trial++ {
		n, m := lens[r.Intn(len(lens))], lens[r.Intn(len(lens))]
		if trial%3 == 0 {
			n = 1 + r.Intn(3)
		} else if trial%3 == 1 {
			m = 1 + r.Intn(3)
		}
		a, b := tailHeavyPair(r, n, m, scales[trial%len(scales)])
		d := naiveDTW(a, b, -1)
		for _, cutoff := range []float64{
			d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), math.Inf(1),
			0, 5e-324, 1e-160, float64(d * 0.9),
		} {
			checkPruned(t, &w, a, b, cutoff)
			checkParent(t, &w, &pw, a, b, cutoff)
		}
	}
	// End costs that overflow to +Inf, at finite cutoffs up to the one whose
	// T is the largest float, and non-finite inputs at either end.
	big := math.Sqrt(math.MaxFloat64)
	for trial := 0; trial < 500; trial++ {
		n, m := 1+r.Intn(6), 1+r.Intn(6)
		a, b := tailHeavyPair(r, n, m, 1)
		switch trial % 3 {
		case 0:
			a[n-1], b[m-1] = 1e300, -1e300
		case 1:
			a[n-1] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		default:
			b[r.Intn(m)] = math.NaN()
		}
		for _, cutoff := range []float64{0, 1, 1e150, big, math.Nextafter(big, 0), float64(big * 0.999999), math.Inf(1)} {
			checkParent(t, &w, &pw, a, b, cutoff)
		}
	}
}

// TestDTWPrunedBitIdentical locks the column-window kernel to the naive full
// matrix with exact float equality, over equal and unequal lengths, length
// 1, zero-variance and tied inputs, and cutoffs at +Inf, at the distance,
// one ulp below it, at 0 and straddling it — reusing one workspace across
// all shapes.
func TestDTWPrunedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	var w Workspace
	abandoned, kept := 0, 0
	for trial := 0; trial < 2000; trial++ {
		n, m := 1+r.Intn(48), 1+r.Intn(48)
		if trial%7 == 0 {
			m = n
		}
		a, b := shapedSeries(r, n, trial%3), shapedSeries(r, m, (trial/3)%3)
		d := naiveDTW(a, b, -1)
		for _, cutoff := range []float64{
			math.Inf(1), d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), 0,
			d * (0.25 + float64(1.5*r.Float64())),
		} {
			if checkPruned(t, &w, a, b, cutoff) {
				abandoned++
			} else {
				kept++
			}
		}
	}
	if abandoned == 0 || kept == 0 {
		t.Fatalf("degenerate trial mix: %d abandoned, %d kept", abandoned, kept)
	}
}

// TestDTWCutoffAtRoundedRoot pins the threshold's margin: where √acc rounds
// to exactly the cutoff although acc > fl(cutoff²), the kernel must still
// return the cutoff — a strict cutoff² would prune it to +Inf. Single points
// sweep acc across every magnitude, subnormal squares included; random
// pairs reach the case through whole warping paths.
func TestDTWCutoffAtRoundedRoot(t *testing.T) {
	r := rand.New(rand.NewSource(277))
	var w Workspace
	zero := []float64{0}
	rounded := 0
	for trial := 0; trial < 200000; trial++ {
		x := []float64{(1 + r.Float64()) * math.Pow(10, float64(r.Intn(320)-170))}
		d := naiveDTW(x, zero, -1)
		if got := w.DTWEarlyAbandon(x, zero, d); math.Float64bits(got) != math.Float64bits(d) {
			t.Fatalf("x=%v: cutoff at the root %v returned %v", x[0], d, got)
		}
		if naiveDTWAcc(x, zero, -1) > d*d {
			rounded++
		}
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := randSeries(r, 1+r.Intn(24)), randSeries(r, 1+r.Intn(24))
		d := naiveDTW(a, b, -1)
		if got := w.DTWEarlyAbandon(a, b, d); math.Float64bits(got) != math.Float64bits(d) {
			t.Fatalf("trial %d: cutoff at the root %v returned %v", trial, d, got)
		}
		if naiveDTWAcc(a, b, -1) > d*d {
			rounded++
		}
	}
	if rounded == 0 {
		t.Fatal("no accumulator above fl(cutoff²) was met; the margin went untested")
	}
}

// TestEDSeedBoundsDTWBitwise: the scan's seed is √ of a squared-ED sum, and
// it must bound the kernel's DTW bit for bit, not within a tolerance. The
// diagonal path adds the same terms in the same order as the ED sum and
// floating-point addition is monotone, so the DTW accumulator is ≤ the sum,
// and the kernel is exact at the seed as its cutoff.
func TestEDSeedBoundsDTWBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(281))
	var w Workspace
	for trial := 0; trial < 4000; trial++ {
		n := 1 + r.Intn(40)
		var a, b []float64
		if trial%2 == 0 {
			a, b = shapedSeries(r, n, trial%3), shapedSeries(r, n, (trial/2)%3)
		} else {
			a, b = adversarialSeries(r, n), adversarialSeries(r, n)
		}
		sq := SquaredEDEarlyAbandon(a, b, math.Inf(1))
		if acc := naiveDTWAcc(a, b, -1); acc > sq {
			t.Fatalf("trial %d: DTW accumulator %v > squared ED %v", trial, acc, sq)
		}
		seed := math.Sqrt(sq)
		d := w.DTWEarlyAbandon(a, b, seed)
		if want := naiveDTW(a, b, -1); math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("trial %d: kernel at the seed cutoff %v returned %v, want %v", trial, seed, d, want)
		}
	}
}

// FuzzDTWPruned checks the kernel's contract on fuzzed pairs, and its bits
// against the frozen parent kernel: bytes map to a few coarse levels (ties,
// zero variance and signed zeros come easily), mode%6 picks the cutoff —
// +Inf, the distance, one ulp below it, 0, the fuzzed value, or one ulp
// above the distance — and mode/6 the levels' scale: 1, 2⁻⁵⁴⁰ or 2⁵¹⁰.
func FuzzDTWPruned(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 3}, uint8(0), 0.0)
	f.Add([]byte{1, 2, 3}, []byte{1, 3}, uint8(1), 0.0)
	f.Add([]byte{9, 0, 4, 4}, []byte{1, 7, 2, 8, 3}, uint8(2), 0.0)
	f.Add([]byte{5}, []byte{5}, uint8(3), 0.0)
	f.Add([]byte{5}, []byte{200}, uint8(2), 0.0)
	f.Add([]byte{7, 7, 7, 7}, []byte{7, 7, 7, 7}, uint8(3), 0.0)
	f.Add([]byte{7, 7, 7, 7}, []byte{3, 3}, uint8(4), 2.5)
	f.Add([]byte{128, 127, 129}, []byte{127, 128}, uint8(4), 1e-300)
	// Tail-heavy pairs: most of the distance is the end cell's cost and its
	// predecessors', at n or m in {1, 2, 3}, at the distance and one ulp
	// either side, at zero and subnormal cutoffs, and scaled so that the
	// end cost underflows (mode 6–11) or overflows to +Inf (mode 12–17).
	f.Add([]byte{128, 130, 160, 200}, []byte{128, 129, 96, 40}, uint8(1), 0.0)
	f.Add([]byte{128, 130, 160, 200}, []byte{128, 129, 96, 40}, uint8(2), 0.0)
	f.Add([]byte{128, 130, 160, 200}, []byte{128, 129, 96, 40}, uint8(5), 0.0)
	f.Add([]byte{128, 200}, []byte{128, 129, 130, 40}, uint8(1), 0.0)
	f.Add([]byte{200}, []byte{128, 40}, uint8(5), 0.0)
	f.Add([]byte{128, 160, 200}, []byte{40}, uint8(2), 0.0)
	f.Add([]byte{128, 160, 200}, []byte{127, 96, 40}, uint8(3), 0.0)
	f.Add([]byte{128, 160, 200}, []byte{127, 96, 40}, uint8(4), 5e-324)
	f.Add([]byte{128, 129, 160, 200}, []byte{127, 128, 96, 40}, uint8(7), 0.0)
	f.Add([]byte{128, 129, 160, 200}, []byte{127, 128, 96, 40}, uint8(10), 0x1p-1060)
	f.Add([]byte{128, 129, 160, 255}, []byte{127, 128, 96, 0}, uint8(13), 0.0)
	f.Add([]byte{128, 129, 160, 255}, []byte{127, 128, 96, 0}, uint8(16), 1e300)
	f.Fuzz(func(t *testing.T, ab, bb []byte, mode uint8, cut float64) {
		if len(ab) == 0 || len(bb) == 0 || len(ab) > 64 || len(bb) > 64 {
			return
		}
		scale := [...]float64{1, 0x1p-540, 0x1p510}[mode/6%3]
		level := func(bs []byte) []float64 {
			v := make([]float64, len(bs))
			for i, x := range bs {
				v[i] = float64(int(x)-128) / 16 * scale
			}
			return v
		}
		a, b := level(ab), level(bb)
		d := naiveDTW(a, b, -1)
		cutoff := [...]float64{math.Inf(1), d, math.Nextafter(d, 0), 0, cut, math.Nextafter(d, math.Inf(1))}[mode%6]
		var w, pw Workspace
		checkPruned(t, &w, a, b, cutoff)
		checkParent(t, &w, &pw, a, b, cutoff)
	})
}

// parentDTWEarlyAbandon is the kernel as it was before its rows were split
// into a dead-prefix loop, a branch-free pass and a backward margin scan: one
// loop that tests every cell against T. It is frozen here as the reference
// the current kernel must equal bit for bit (TestKernelMatchesParent,
// FuzzDTWPruned).
func (w *Workspace) parentDTWEarlyAbandon(q, c []float64, cutoff float64) float64 {
	n, m := len(q), len(c)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	thr := cutoff * cutoff * (1 + 1e-15) // +Inf cutoff stays +Inf

	inf := math.Inf(1)
	prev, curr := w.rows(m + 1)
	// Row 0: only the origin is reachable.
	prev[0], prev[1] = 0, inf
	lo, hi := 1, 0
	for i := 0; i < n; i++ {
		qi := q[i]
		start := lo
		// The cell left of the window reads as +Inf (column 0 included).
		curr[start-1] = inf
		nlo, nhi := 0, 0
		diag, left := prev[start-1], inf
		// Columns the previous row's window reaches. prev[hi+1] was computed
		// (above T) by that row, or is row 0's +Inf: a row stops only after
		// a cell above T, or at m.
		end := min(hi+1, m)
		ps := prev[start : end+1 : end+1]
		cs := curr[start : end+1 : end+1]
		for k, cj := range c[start-1 : end] {
			pj := ps[k]
			// The two neighbours of the previous row are off the carried
			// dependency, so their min is branch-free; only the left
			// neighbour is compared on the chain.
			best := min(pj, diag) // q advances alone, or both advance
			if left < best {      // c advances alone
				best = left
			}
			d := qi - cj
			acc := best + float64(d*d)
			cs[k] = acc
			if acc <= thr {
				if nlo == 0 {
					nlo = start + k
				}
				nhi = start + k
			}
			diag = pj
			left = acc
		}
		// Past the previous window only the left neighbour is alive.
		j := end + 1
		for ; j <= m && left <= thr; j++ {
			d := qi - c[j-1]
			left += float64(d * d)
			curr[j] = left
			if left <= thr {
				if nlo == 0 {
					nlo = j
				}
				nhi = j
			}
		}
		if nlo == 0 {
			return inf
		}
		lo, hi = nlo, nhi
		prev, curr = curr, prev
	}
	w.prev, w.curr = prev[:cap(prev)], curr[:cap(curr)]
	if hi < m {
		return inf // the last cell is above T
	}
	return math.Sqrt(prev[m])
}
