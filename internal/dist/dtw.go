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
// only the work a cutoff leaves alive: the dynamic program runs over rows of
// squared costs and, per row, only over the column window [lo, hi] of cells
// at or below the threshold T (the PrunedDTW / EAPrunedDTW idea of Silva &
// Batista and of Herrmann & Webb). A row starts at the previous row's lo,
// since every cell left of it can only extend prefixes above T; past the
// previous row's hi+1 its cells have a left neighbour alone, so the row
// stops as soon as that neighbour is above T; cells outside the window read
// as +Inf. A row with no cell at or below T abandons.
//
// The window is tracked without a test on every cell. A row computes its
// cells from lo up to the first one ≤ T, testing each: they are the dead
// left margin, and that cell is the next row's lo. It computes the rest of
// [lo, hi+1] in one pass with no test, then scans back from hi+1 over the
// dead right margin to the last cell ≤ T, the next row's hi. Only if that
// is the window's last cell does the row extend past it. Every cell is
// computed once, and only dead cells and the two that bound the window are
// tested; the set of cells and their arithmetic are those of a test per cell.
//
// The contract is "exact whenever ≤ cutoff": every cell whose true value is
// ≤ T reads its argmin neighbour exactly — the neighbour is ≤ T too, so it
// was computed, and every other value read is at least its true value — and
// adds the same d² in the same floating-point order as the full matrix, so a
// result ≤ cutoff is bit-identical to the full O(n·m) program. Above the
// cutoff the result is +Inf, or exact when the last cell is still ≤ T; a
// finite result is always the exact distance. A +Inf cutoff computes every
// cell.
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
	prev, curr := w.rows(m + 1)
	// Row 0: only the origin is reachable.
	prev[0], prev[1] = 0, inf
	lo, hi := 1, 0
	for i := 0; i < n; i++ {
		qi := q[i]
		start := lo
		// The cell left of the window reads as +Inf (column 0 included).
		curr[start-1] = inf
		diag, left := prev[start-1], inf
		// Columns the previous row's window reaches. prev[hi+1] was computed
		// (above T) by that row, or is row 0's +Inf: a row stops only after
		// a cell above T, or at m.
		end := min(hi+1, m)
		ps := prev[start : end+1 : end+1]
		cs := curr[start : end+1 : end+1]
		cw := c[start-1 : end : end]
		// The dead left margin: cells up to the first one ≤ T, which is
		// the next row's lo. A row with none abandons.
		k := 0
		for ; k < len(cs); k++ {
			left = cell(ps[k], diag, left, qi-cw[k])
			cs[k] = left
			diag = ps[k]
			if left <= thr {
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
		for !(cs[k] <= thr) {
			k--
		}
		nhi := start + k
		// Past the previous window only the left neighbour is alive, and
		// only while the cell at end is; the first cell above T is kept, as
		// the next row reads it.
		if nhi == end {
			for j := end + 1; j <= m; j++ {
				d := qi - c[j-1]
				left += float64(d * d)
				curr[j] = left
				if !(left <= thr) {
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
