package grouping

import (
	"math"
	"sort"

	"onex/internal/dist"
)

// The SP-Space of Sec. 4.2 labels a similarity threshold Strict, Medium or
// Loose against two critical values per length: the smallest ST′ at which
// half, respectively all, of the length's groups have merged. The paper's
// GTI stores the inter-representative distance matrix Dc (Def. 10) for
// them; no query reads it, so MergeThresholdsFor evaluates the distances on
// demand instead, in O(g) memory.

// criticalValues maps the g−1 MST edge weights of g groups to the half and
// final thresholds, simulating the Sec. 4.2 merge process: groups k and l
// merge once ST′ ≥ ST + Dc(k,l). The critical values are minimum-spanning-
// tree edge weights plus ST: processing MST edges in increasing weight
// order, the number of surviving groups first reaches ⌈g/2⌉ (the half
// threshold) after g−⌈g/2⌉ merges and 1 (the final threshold) at the
// heaviest MST edge. Since every MST of a graph has the same edge-weight
// multiset, the result is independent of tie-breaking. One group or none
// gives st for both.
func criticalValues(w []float64, st float64) (half, final float64) {
	if len(w) == 0 {
		return st, st
	}
	sort.Float64s(w)
	g := len(w) + 1
	halfTarget := (g + 1) / 2
	return st + w[g-halfTarget-1], st + w[len(w)-1]
}

// mstWeights returns the g−1 minimum-spanning-tree edge weights of the
// complete graph over vertices 0..g−1 with edge weights at(k,l,below), via
// Prim's algorithm (O(g²) oracle calls, O(g) memory). below is vertex l's
// current best edge: the oracle may return +Inf for any edge not below it,
// since such an edge changes nothing.
func mstWeights(g int, at func(k, l int, below float64) float64) []float64 {
	if g <= 1 {
		return nil
	}
	inTree := make([]bool, g)
	best := make([]float64, g)
	for i := range best {
		best[i] = math.Inf(1)
	}
	best[0] = 0
	weights := make([]float64, 0, g-1)
	for it := 0; it < g; it++ {
		u := -1
		for v := 0; v < g; v++ {
			if !inTree[v] && (u < 0 || best[v] < best[u]) {
				u = v
			}
		}
		inTree[u] = true
		if it > 0 {
			weights = append(weights, best[u])
		}
		for v := 0; v < g; v++ {
			if !inTree[v] {
				if d := at(u, v, best[v]); d < best[v] {
					best[v] = d
				}
			}
		}
	}
	return weights
}

// primGrow widens √L·below in MergeThresholdsFor's oracle (see there).
const primGrow = 1 + 1e-14

// MergeThresholdsFor computes one length's SP-Space critical values (the
// smallest ST′ at which half, respectively all, of the groups have merged)
// from a group slice, evaluating the Inter-Representative Distances
// Dc(k,l) = ED(rep k, rep l)/√L on demand: O(g) working memory, no
// materialized matrix.
//
// Prim's row needs an edge only when it is below the vertex's best edge b,
// so the oracle skips a pair by the PAA bound of paa.go, over a table of
// the representatives built for this call, and abandons the squared ED
// above root², where root = fl(fl(b·fl(√L))·(1+10⁻¹⁴)) + 2⁻⁵⁰⁰. A
// skipped or abandoned pair returns +Inf; every other returns the bits of
// dist.ED(rep k, rep l)·fl(1/fl(√L)), so the critical values are those of
// the plain oracle. Why neither test drops an edge below b, with u = 2⁻⁵³:
// let K = b²·L·(1+3u)²/(1−u)⁴. Then root ≥ √K, because 10⁻¹⁴ > 80u covers
// the three roundings of the product (and 2⁻⁵⁰⁰ any underflow), so a bound
// above cutoff(root, …) proves the computed squared ED S̃ > K; and
// fl(root²) ≥ K likewise, so an abandoned sum has S̃ > K too. Such an S̃
// has fl(√S̃) ≥ √K·(1−u), and fl(1/fl(√L)) ≥ (1−2u)/√L, so the distance
// rounds to at least b·(1+3u)(1−2u) ≥ b: the edge is not below b.
func MergeThresholdsFor(groups []*Group, length int, st float64) (half, final float64) {
	sqrtL := math.Sqrt(float64(length))
	invSqrtL := 1 / sqrtL
	t := newPAATable(length, 0)
	for gi, g := range groups {
		t.set(gi, g.Rep)
	}
	return criticalValues(mstWeights(len(groups), func(k, l int, below float64) float64 {
		root := float64(float64(below*sqrtL)*primGrow) + paaTiny
		// Both representatives are rows of t, so 2·t.mag bounds them.
		if t != nil && t.next(&t.rows[k], l, l+1, t.cutoff(root, 2*t.mag)) > l {
			return math.Inf(1) // row l's bound is above the cutoff
		}
		return math.Sqrt(dist.SquaredEDEarlyAbandon(groups[k].Rep, groups[l].Rep, float64(root*root))) * invSqrtL
	}), st)
}
