package grouping

import "math"

// The PAA filter of nearest: a lower bound on a squared ED that is read
// from eight numbers per representative, so most representatives are ruled
// out without reading them.
//
// Cut a window x of length L into paaSegs segments, segment k being the
// points [⌊kL/8⌋, ⌊(k+1)L/8⌋) of width w_k, and summarize it by the scaled
// sums P_k(x) = Σ_{i∈k} x_i / √w_k. For two windows x and y, Cauchy–Schwarz
// gives (Σ_{i∈k} (x_i−y_i))² ≤ w_k·Σ_{i∈k} (x_i−y_i)², so
//
//	Σ_k (P_k(x) − P_k(y))² ≤ Σ_i (x_i − y_i)²:
//
// the bound never exceeds the squared ED. A candidate whose bound exceeds
// the loop's cutoff cannot pass it, and nearest skips it without calling
// dist.SquaredEDEarlyAbandon, which would have abandoned it: the winner and
// its squared ED keep their bits, ties included.
//
// In floating point the bound must hold against the computed sum, and the
// sums P_k carry a rounding error that grows with |x_i|, not with x − y:
// with an offset of 10⁶ and differences of 10⁻⁶ the computed bound can
// exceed the computed ED. cutoff turns the loop's cutoff into a threshold T
// on the computed bound with a margin proven at every magnitude (see
// cutoff). A NaN bound is never above T, so a NaN window or representative
// is always compared, as before.
//
// Where the table lives: one paaTable per assign call, with a row for each
// group the call founds (groups[base:]), and one per chunk merge, with a
// row for each group of the length (the build founded them all). A row is
// recomputed from Rep whenever its group absorbs, and the table is dropped
// when the call returns, before finalize. Groups that existed before an
// append or extend (those a Delta can touch) keep the plain loop, and Group
// carries no summary of its own. MergeThresholdsFor builds a table of the
// finalized representatives for one call.

// paaSegs is the number of segments s of the bound.
const paaSegs = 8

// paaMinLength is the shortest length the filter serves. Below it nearest
// abandons a representative's ED within a few points, and the eight-term
// bound costs more than it saves (a build at L = 8 was slower with it, at
// L = 12 even, and from 16 on faster).
const paaMinLength = 16

const (
	paaTiny = 0x1p-500  // absolute slack of a root, covering underflow
	paaTau  = 0x1p-1000 // absolute slack of a squared sum, ≥ L·2⁻¹⁰⁷⁵
)

// paaRow is one window's (or representative's) scaled segment sums.
type paaRow [paaSegs]float64

// paaTable holds the rows of groups[base:] for one length.
type paaTable struct {
	base   int
	bounds [paaSegs + 1]int // segment k is [bounds[k], bounds[k+1])
	scale  [paaSegs]float64 // fl(1/√w_k)
	grow   float64          // 1+ρ, ρ = L·2⁻⁴⁹ = 16·L·u
	eScale float64          // wmax·√L·2⁻⁵¹: twice the sums' error per unit of magnitude
	rows   []paaRow         // rows[i] belongs to groups[base+i]
	mag    float64          // ≥ |v| for every value of every row's Rep
	q      paaRow           // nearest's query, reused across calls
}

// newPAATable returns an empty table for groups[base:] of the given length,
// or nil below paaMinLength, where every caller takes the plain loop.
func newPAATable(length, base int) *paaTable {
	if length < paaMinLength {
		return nil
	}
	t := &paaTable{base: base}
	for k := range t.bounds {
		t.bounds[k] = k * length / paaSegs
	}
	for k := range t.scale {
		t.scale[k] = 1 / math.Sqrt(float64(t.bounds[k+1]-t.bounds[k]))
	}
	wmax := (length + paaSegs - 1) / paaSegs
	t.grow = 1 + float64(float64(length)*0x1p-49)
	t.eScale = float64(math.Sqrt(float64(length)) * (float64(wmax) * 0x1p-51))
	return t
}

// summarize writes values' scaled segment sums into row and returns the
// largest |value|. NaN values are left out of the magnitude; they make
// their segment's sum, and so every bound that reads it, NaN.
func (t *paaTable) summarize(row *paaRow, values []float64) (mag float64) {
	for k := range row {
		var s float64
		for _, v := range values[t.bounds[k]:t.bounds[k+1]] {
			s += v
			if a := math.Abs(v); a > mag {
				mag = a
			}
		}
		row[k] = float64(s * t.scale[k])
	}
	return mag
}

// set recomputes the row of groups[gi] from its representative rep,
// appending it when gi is the next group. A nil table, or a group before
// base, has no row and set does nothing.
func (t *paaTable) set(gi int, rep []float64) {
	if t == nil || gi < t.base {
		return
	}
	i := gi - t.base
	if i == len(t.rows) {
		t.rows = append(t.rows, paaRow{})
	}
	if m := t.summarize(&t.rows[i], rep); m > t.mag {
		t.mag = m
	}
}

// next returns the first index i in [from, to) whose row's bound against q,
// Σ_k fl((q_k − r_k)²) summed pairwise, is not above thr, or to when there
// is none. The bound is written out in the loop: the compiler does not
// inline it from a helper, and the call made the build about a fifth slower.
func (t *paaTable) next(q *paaRow, from, to int, thr float64) int {
	rows := t.rows[:to]
	for i := from; i < len(rows); i++ {
		r := &rows[i]
		d0, d1, d2, d3 := q[0]-r[0], q[1]-r[1], q[2]-r[2], q[3]-r[3]
		d4, d5, d6, d7 := q[4]-r[4], q[5]-r[5], q[6]-r[6], q[7]-r[7]
		b := ((float64(d0*d0) + float64(d1*d1)) + (float64(d2*d2) + float64(d3*d3))) +
			((float64(d4*d4) + float64(d5*d5)) + (float64(d6*d6) + float64(d7*d7)))
		if !(b > thr) {
			return i
		}
	}
	return to
}

// cutoff returns T such that, for a query and a row whose values are at
// most mag in magnitude together (|x_i| ≤ Mx, |y_i| ≤ My, Mx+My ≤ mag),
// a bound above T implies that the sequential sum S̃ = Σ fl(fl(x_i−y_i)²) of
// dist.SquaredEDEarlyAbandon exceeds every cutoff c with √c ≤ root·(1+2u),
// u = 2⁻⁵³. So root = fl(√c) serves c, and a larger root is always safe.
//
// T = fl(fl(a²)·(1+ρ)) + τ, a = fl((root+2⁻⁵⁰⁰)·(1+ρ)) + fl(mag·eScale),
// ρ = 16Lu, τ = 2⁻¹⁰⁰⁰. Proof of S̃ ≤ c ⇒ bound ≤ T. Let S = Σ(x_i−y_i)²
// exactly, Δ_k = P_k(x) − P_k(y) exactly, and Δ̃_k the computed difference
// of the computed sums.
//
//  1. S̃ ≥ (1−u)^(L+2)·S − L·2⁻¹⁰⁷⁵: each term loses at most three relative
//     roundings (a subtraction is exact when it underflows; a square that
//     underflows loses at most 2⁻¹⁰⁷⁵), and no term passes more than L−1
//     additions of non-negative values. With τ ≥ L·2⁻¹⁰⁷⁵, S̃ ≤ c gives
//     √S ≤ (root·(1+2u) + 2⁻⁵⁰⁰)·(1−u)^−(L/2+1).
//  2. ‖Δ‖ ≤ √S by Cauchy–Schwarz, above.
//  3. The recursive segment sum errs by at most γ_(w−1)·Σ|x_i| ≤
//     γ_(w−1)·w·Mx (γ_n = nu/(1−nu)), its product with fl(1/√w) =
//     (1+θ)/√w, |θ| ≤ 2.01u, adds a relative u and at most 2⁻¹⁰⁷⁵, and the
//     difference a relative u. So Δ̃_k = (1+ζ)(1+θ)(Δ_k + r_k) + e_k with
//     |ζ| ≤ u, |r_k| ≤ 2u·w_k·√w_k·(Mx+My) and |e_k| ≤ 2⁻¹⁰⁷³. Over the
//     segments ‖r‖ ≤ E = 2u·wmax·√L·(Mx+My), and the triangle inequality
//     gives ‖Δ̃‖ ≤ (1+u)(1+θ)(‖Δ‖ + E) + 2⁻¹⁰⁷¹.
//  4. The bound is ≤ (1+u)⁴·‖Δ̃‖² + 2⁻¹⁰⁷⁰: eight squares and three levels of
//     additions, each square losing at most 2⁻¹⁰⁷⁵ to underflow.
//  5. a ≥ 2⁻⁵⁰⁰ is normal, so each rounding in T costs at most a relative
//     u, and fl(mag·eScale) ≥ E (eScale carries a factor 2 for its own
//     roundings and for mag's, or underflows by less than the slack of
//     the next step). (1+ρ)·2⁻⁵⁰⁰ exceeds the needed 2⁻⁵⁰⁰ by far more than
//     2⁻¹⁰⁷¹, and 1+ρ ≥ (1+2u)(1+u)(1+2.01u)(1−u)^−(L/2+4), so a ≥ ‖Δ̃‖
//     by 1–3. Then fl(a²)·(1+ρ) rounded is ≥ (1+u)⁴·a² ≥ (1+u)⁴·‖Δ̃‖², and
//     τ·(1−u) ≥ 2⁻¹⁰⁷⁰ pays for 4 and the last rounding.
//
// When T is finite, a² is, so E < 2⁵¹³ and Mx·wmax, My·wmax < 2⁵¹³/(2u):
// no segment sum overflows, and each term of the bound stays below T, so
// the chain holds without overflow. An infinite or NaN T (an Inf in the
// data, or a root of +Inf) never lets a bound exceed it.
func (t *paaTable) cutoff(root, mag float64) float64 {
	a := float64((root+paaTiny)*t.grow) + float64(mag*t.eScale)
	return float64(float64(a*a)*t.grow) + paaTau
}
