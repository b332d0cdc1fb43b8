package dist

import "math"

// NormalizedDTWDivisor returns the Def. 6 normalization divisor 2·max(n,m)
// for a length-n query and a length-m candidate. Normalized DTW is
// DTW(x,y) divided by this value — the scale the ST/2 retrieval guarantee
// (Lemma 2) is stated in.
func NormalizedDTWDivisor(n, m int) float64 {
	if m > n {
		n = m
	}
	return 2 * float64(n)
}

// NormalizedDTW is the length-normalized DTW of Def. 6:
// DTW(a,b) / (2·max(len(a),len(b))).
func NormalizedDTW(a, b []float64) float64 {
	return DTW(a, b) / NormalizedDTWDivisor(len(a), len(b))
}

// DTW returns the unconstrained Dynamic Time Warping distance of Def. 3:
// the minimum over warping paths P of √Σ_{(i,j)∈P}(aᵢ−bⱼ)². Sequences may
// have different lengths. For scratch reuse across many calls, use
// Workspace.DTW.
func DTW(a, b []float64) float64 {
	var w Workspace
	return w.DTW(a, b)
}

// Workspace holds reusable scratch for the two-row DTW dynamic program so
// tight query loops allocate only once. The zero value is ready to use.
//
// Ownership rule: a Workspace is mutable scratch with no internal locking —
// it must be owned by exactly one goroutine at a time, and a method call
// must complete before ownership may move. Callers that fan work across
// goroutines must give each worker its own Workspace; the supported pattern
// is parallel.WorkspacePool (a sync.Pool whose Get/Put hands out exclusive
// ownership), which is how the query engine's coordinator and shards keep
// every query race-free by construction. Sharing one live Workspace between goroutines is a data
// race even if calls never overlap logically.
type Workspace struct {
	prev, curr []float64
}

// rows returns the two DP rows, each of length n, growing the backing
// arrays only when a larger candidate arrives.
func (w *Workspace) rows(n int) (prev, curr []float64) {
	if cap(w.prev) < n {
		w.prev = make([]float64, n)
		w.curr = make([]float64, n)
	}
	return w.prev[:n], w.curr[:n]
}

// DTW is the unconstrained DTW distance using the workspace's scratch.
func (w *Workspace) DTW(a, b []float64) float64 {
	return w.DTWEarlyAbandon(a, b, math.Inf(1))
}

// DTWEarlyAbandon computes the unconstrained DTW distance of q and c, doing
// only the work a cutoff leaves alive: a cell is computed only while it can
// still lie on a warping path that ends at or below the threshold T, and
// the result has the bits of the parent kernel (the frozen
// parentDTWEarlyAbandon of the tests) on every input, +Inf included.
//
// The dynamic program runs over rows of squared costs and, per row, only
// over the column window [lo, hi] of cells at or below that row's threshold
// (the PrunedDTW / EAPrunedDTW idea of Silva & Batista and of Herrmann &
// Webb). A row starts at the previous row's lo, since every cell left of it
// can only extend prefixes that die; past the previous row's hi+1 its cells
// have a left neighbour alone, so the row stops as soon as that neighbour
// is above the threshold; cells outside the window read as +Inf. A row
// with no cell at or below its threshold abandons.
//
// The threshold is what the path still owes (the LB_KimFL corner of the UCR
// suite, used as a row threshold). Every path ends in the end cell, which
// adds e = fl((q[n−1]−c[m−1])²), and enters it from a predecessor (n−2,m−1),
// (n−1,m−2) or (n−2,m−2), which adds at least p, the least of their squared
// differences. So the last row runs against T, row n−2 against
// T₁ = tailCut(T, e) and rows up to n−3 against T₂ = tailCut(T₁, p); see
// tailCut for why a cell above them lies on no path that ends ≤ T.
//
// The window is tracked without a test on every cell. A row computes its
// cells from lo up to the first one at or below its threshold, testing
// each: they are the dead left margin, and that cell is the next row's lo.
// It computes the rest of [lo, hi+1] in one pass with no test, then scans
// back from hi+1 over the dead right margin to the last live cell, the next
// row's hi. Only if that is the window's last cell does the row extend past
// it. Every cell is computed once, and only dead cells and the two that
// bound the window are tested.
//
// Why the bits are the parent's. A +Inf cutoff runs every row against
// +Inf, as the parent does, and a NaN cutoff lets no cell live in either.
// Otherwise, for finite inputs, let a cell's true value be its value in the
// full O(n·m) matrix and F the end cell's; every d² ≥ 0 and no cell is NaN.
// Along the argmin chain of the end cell — each cell's least neighbour,
// back to the origin — values never decrease, as fl(v+d²) ≥ v. If F ≤ T,
// every chain cell is at or below its row's threshold (tailCut), so by
// induction along the chain each is computed from its argmin neighbour
// exactly — every other value read is at least its true value — with the
// same d² in the same floating-point order: the result is F, bit for bit.
// If F > T, the end cell, if computed at all, is at least F and above T:
// the result is +Inf. The parent, whose every row runs against T, returns
// the same two answers by the same argument. A non-finite input (ts and
// query reject them) makes every cost of its row or column NaN or +Inf; a
// finite cell is reached by a chain of finite cells, a warping path, and
// every warping path to the end cell crosses that row or column, so both
// kernels return +Inf.
//
// T = cutoff²·(1+1e-15) is at least every accumulator acc whose root rounds
// to ≤ cutoff. T grows with the cutoff, so take cutoff = d = fl(√acc); with
// u = 2⁻⁵³, acc ≤ d²(1+u)², and 1+1e-15 rounds to 1+10u. If d² is normal,
// fl(d²)·(1+10u) ≥ d²(1−u)(1+10u) ≥ acc; if it is subnormal, fl(d²) loses
// at most 2⁻¹⁰⁷⁵ and the product still exceeds acc − 2⁻¹⁰⁷⁵, less than half
// a step below acc. Either way rounding the product cannot fall below acc,
// which is representable. A strict cutoff² is not enough: √acc can round to
// exactly the cutoff while acc > fl(cutoff²), and a result equal to the
// cutoff — which callers' tie and range rules accept — would come back +Inf.
func (w *Workspace) DTWEarlyAbandon(q, c []float64, cutoff float64) float64 {
	n, m := len(q), len(c)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	thr := cutoff * cutoff * (1 + 1e-15) // +Inf cutoff stays +Inf

	inf := math.Inf(1)
	// The row thresholds: t2 for rows up to n−3, t1 for row n−2, thr for
	// the last row. A +Inf cutoff skips the bound.
	t1, t2 := thr, thr
	if n >= 2 && thr != inf {
		d := q[n-1] - c[m-1]
		t1 = tailCut(thr, float64(d*d))
		if n >= 3 {
			d = q[n-2] - c[m-1]
			p := float64(d * d)
			if m >= 2 {
				d = q[n-1] - c[m-2]
				p = min(p, float64(d*d))
				d = q[n-2] - c[m-2]
				p = min(p, float64(d*d))
			}
			t2 = tailCut(t1, p)
		}
	}
	prev, curr := w.rows(m + 1)
	// Row 0: only the origin is reachable.
	prev[0], prev[1] = 0, inf
	lo, hi := 1, 0
	for i := 0; i < n; i++ {
		t := t2
		if i == n-2 {
			t = t1
		} else if i == n-1 {
			t = thr
		}
		qi := q[i]
		start := lo
		// The cell left of the window reads as +Inf (column 0 included).
		curr[start-1] = inf
		diag, left := prev[start-1], inf
		// Columns the previous row's window reaches. prev[hi+1] was computed
		// (above that row's threshold) by that row, or is row 0's +Inf: a
		// row stops only after a dead cell, or at m.
		end := min(hi+1, m)
		ps := prev[start : end+1 : end+1]
		cs := curr[start : end+1 : end+1]
		cw := c[start-1 : end : end]
		// The dead left margin: cells up to the first live one, which is
		// the next row's lo. A row with none abandons.
		k := 0
		for ; k < len(cs); k++ {
			left = cell(ps[k], diag, left, qi-cw[k])
			cs[k] = left
			diag = ps[k]
			if left <= t {
				break
			}
		}
		if k == len(cs) {
			return inf
		}
		nlo := start + k
		// The rest of the window, with no test per cell. The three slices
		// share one length, so the loop runs without bounds checks.
		rest := ps[k+1:]
		rc, rw := cs[k+1:][:len(rest)], cw[k+1:][:len(rest)]
		for j, up := range rest {
			left = cell(up, diag, left, qi-rw[j])
			rc[j] = left
			diag = up
		}
		// The next row's hi: scan back over the dead right margin. A NaN
		// cell is dead, as the left margin's test has it; the scan stops at
		// nlo at the latest.
		k = len(cs) - 1
		for !(cs[k] <= t) {
			k--
		}
		nhi := start + k
		// Past the previous window only the left neighbour is alive, and
		// only while the cell at end is; the first dead cell is kept, as
		// the next row reads it.
		if nhi == end {
			for j := end + 1; j <= m; j++ {
				d := qi - c[j-1]
				left += float64(d * d)
				curr[j] = left
				if !(left <= t) {
					break
				}
				nhi = j
			}
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

// tailCut returns fl(fl(T·(1+2⁻⁵⁰)) − y): for a float T ≥ 0 (+Inf only
// with y finite) and a float y ≥ 0, every float x ≥ 0 with fl(x+y) ≤ T has
// x ≤ tailCut(T, y). Let u = 2⁻⁵³.
//
//   - y > T: fl(x+y) ≥ y > T for every x ≥ 0, so no x qualifies, y = +Inf
//     included, and any result serves.
//   - T = +Inf, y finite: the result is +Inf.
//   - y ≤ T < 2⁻¹⁰²¹: a sum of floats below 2⁻¹⁰²¹ is exact (they share the
//     grid 2⁻¹⁰⁷⁴), and a larger sum rounds to at least 2⁻¹⁰²¹ > T; so
//     x + y = fl(x+y) ≤ T. T − y is exact for the same reason, and rounding
//     is monotone: fl(T·(1+2⁻⁵⁰)) ≥ T gives a result ≥ T − y ≥ x.
//   - y ≤ T, T ≥ 2⁻¹⁰²¹ normal: rounding to nearest moves a sum by at most
//     half an ulp, u·T at most, so x + y ≤ T(1+u). a = fl(T·(1+8u)) is
//     +Inf, and so is the result, or a ≥ T(1+8u)(1−u) ≥ T(1+6u) ≥ y and
//     fl(a−y) ≥ (a−y)(1−u) ≥ a(1−u) − y ≥ T(1+4u) − y ≥ x.
//
// In the kernel, with F = fl(B+e) the end cell and B its argmin
// predecessor's value, a chain cell of row n−2 is at most B, so
// fl(x+e) ≤ F ≤ T gives x ≤ T₁ = tailCut(T, e). A chain cell of an earlier
// row comes before the predecessor, whose own term is at least p, so
// B ≥ fl(x+p) and fl(fl(x+p)+e) ≤ T: fl(x+p) ≤ T₁ by the first step, and
// x ≤ T₂ = tailCut(T₁, p) by the second. Where the lemma's hypothesis
// fails, no path ends ≤ T and the kernel abandons on its first row, as the
// parent's +Inf requires: T₁ < 0 leaves T₂ < 0; T₁ = +Inf with p = +Inf
// (e is then finite, and every end cost fl(fl(x+p)+e) is +Inf > T) makes
// T₂ NaN; and an end cost that overflows to +Inf makes T₁ −Inf or NaN.
func tailCut(t, y float64) float64 {
	return float64(t*(1+0x1p-50)) - y
}

// cell is one cell of the dynamic program: the least of its three
// neighbours plus the squared difference d². The two neighbours of the
// previous row, up and diag, are off the carried dependency, so their min is
// branch-free; only left, the cell just computed, is compared on the chain.
func cell(up, diag, left, d float64) float64 {
	best := min(up, diag) // q advances alone, or both advance
	if left < best {      // c advances alone
		best = left
	}
	return best + float64(d*d)
}
