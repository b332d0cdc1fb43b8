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

// mergeThresholds simulates the Sec. 4.2 merge process: groups k and l merge
// once ST′ ≥ ST + Dc(k,l). The critical values are minimum-spanning-tree
// edge weights plus ST: processing MST edges in increasing weight order, the
// number of surviving groups first reaches ⌈g/2⌉ (the half threshold) after
// g−⌈g/2⌉ merges and 1 (the final threshold) at the heaviest MST edge.
// Prim's algorithm over the at(k,l) oracle needs O(g) working memory and at
// most g²/2 oracle calls — and since every MST of a graph has the same
// edge-weight multiset, the result is independent of tie-breaking.
func mergeThresholds(g int, at func(k, l int) float64, st float64) (half, final float64) {
	if g <= 1 {
		return st, st
	}
	w := mstWeights(g, at)
	sort.Float64s(w)
	halfTarget := (g + 1) / 2
	return st + w[g-halfTarget-1], st + w[len(w)-1]
}

// mstWeights returns the g−1 minimum-spanning-tree edge weights of the
// complete graph over vertices 0..g−1 with edge weights at(k,l), via Prim's
// algorithm (O(g²) oracle calls, O(g) memory).
func mstWeights(g int, at func(k, l int) float64) []float64 {
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
				if d := at(u, v); d < best[v] {
					best[v] = d
				}
			}
		}
	}
	return weights
}

// MergeThresholdsFor computes one length's SP-Space critical values (the
// smallest ST′ at which half, respectively all, of the groups have merged)
// from a group slice, evaluating the Inter-Representative Distances
// Dc(k,l) = ED(rep k, rep l)/√L on demand: O(g) working memory, no
// materialized matrix.
func MergeThresholdsFor(groups []*Group, length int, st float64) (half, final float64) {
	invSqrtL := 1 / math.Sqrt(float64(length))
	return mergeThresholds(len(groups), func(k, l int) float64 {
		return dist.ED(groups[k].Rep, groups[l].Rep) * invSqrtL
	}, st)
}
