// Package rspace materializes the ONEX base of Sec. 4, the Representative
// Space (Def. 9), keeping per indexed length exactly what a query reads:
//
//   - the group vector of the Global Time Index (GTI, Sec. 4.3): the
//     length's groups, which the representative scan visits in id order.
//     The paper's sum-sorted array and its median-outward visit order
//     (Sec. 5.3) are not kept: id order measured fewer DTWs on the
//     benchmark's scan workload than the median order did;
//   - the Local Sequence Index (LSI): per group, the representative and the
//     members sorted by ED to it (built by grouping.finalize), which group
//     mining, k-NN verification and range search walk;
//   - per representative, its largest and smallest value. The scan's
//     LB_Keogh stage bounds unconstrained DTW, so its warping band is the
//     whole sequence; at that radius every upper-envelope entry is the
//     representative's maximum and every lower entry its minimum, and the
//     two floats carry the whole bound (dist.LBKeoghMinMax).
//
// The paper's GTI also stores the inter-representative distance matrix Dc
// (Def. 10). No query reads it. Its one consumer is the SP-Space of
// Sec. 4.2, whose critical thresholds are edge weights of one minimum
// spanning tree over Dc; MergeThresholdsFor computes them with distances
// evaluated on demand, in O(g) memory, and internal/shard runs it once per
// length, on first read.
//
// Everything stored is a cheap pure function of the grouping, so New costs
// one pass over the representatives and Refresh is New.
package rspace

import (
	"errors"
	"math"
	"sort"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// Base is the complete in-memory ONEX base for one dataset and one build
// threshold ST. It is immutable after New and safe for concurrent readers.
type Base struct {
	// Dataset is the (normalized) data the base was built over. Group
	// members reference windows of these series.
	Dataset *ts.Dataset
	// ST is the build similarity threshold in normalized-ED units.
	ST float64
	// Lengths lists the indexed subsequence lengths, ascending.
	Lengths []int
	// Entries holds the per-length GTI entry for each indexed length.
	Entries map[int]*LengthEntry
	// TotalSubseq counts all indexed subsequences (Table 4).
	TotalSubseq int64
}

// LengthEntry is one GTI slot: everything the query processor needs for a
// specific subsequence length.
type LengthEntry struct {
	Length int
	// Groups are the ONEX similarity groups of this length; Groups[k].ID==k.
	Groups []*grouping.Group
	// Max[k] and Min[k] are the largest and smallest values of
	// representative k: its full-radius LB_Keogh bound.
	Max, Min []float64
}

// Options configures New. Nothing is configurable; the type stays because
// callers outside this module compile against it.
type Options struct{}

// New wraps a grouping result with the GTI/LSI index layers.
func New(d *ts.Dataset, gr *grouping.Result, _ Options) (*Base, error) {
	if d == nil || gr == nil {
		return nil, errors.New("rspace: nil dataset or grouping result")
	}
	b := &Base{
		Dataset:     d,
		ST:          gr.ST,
		Lengths:     append([]int(nil), gr.Lengths...),
		Entries:     make(map[int]*LengthEntry, len(gr.Lengths)),
		TotalSubseq: gr.TotalSubseq,
	}
	for _, l := range gr.Lengths {
		groups := gr.ByLength[l].Groups
		e := &LengthEntry{
			Length: l,
			Groups: groups,
			Max:    make([]float64, len(groups)),
			Min:    make([]float64, len(groups)),
		}
		for k, g := range groups {
			e.Max[k], e.Min[k] = extremes(g.Rep)
		}
		b.Entries[l] = e
	}
	return b, nil
}

// extremes returns the largest and smallest values of a non-empty x. Ties
// keep the last occurrence, as the sliding-window deques of the full-radius
// LB_Keogh envelope do, so even signed zeros carry the same bits.
func extremes(x []float64) (hi, lo float64) {
	hi, lo = x[0], x[0]
	for _, v := range x[1:] {
		if v >= hi {
			hi = v
		}
		if v <= lo {
			lo = v
		}
	}
	return hi, lo
}

// Refresh wraps an incrementally maintained grouping result. It is New: the
// index holds nothing worth carrying over from prev. The signature stays for
// callers outside this module.
func Refresh(d *ts.Dataset, gr *grouping.Result, opts Options, _ *Base, _ *grouping.Delta) (*Base, error) {
	return New(d, gr, opts)
}

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
func MergeThresholdsFor(groups []*grouping.Group, length int, st float64) (half, final float64) {
	invSqrtL := 1 / math.Sqrt(float64(length))
	return mergeThresholds(len(groups), func(k, l int) float64 {
		return dist.ED(groups[k].Rep, groups[l].Rep) * invSqrtL
	}, st)
}

// Entry returns the GTI entry for a length, or nil if the length is not
// indexed — the constant-time getgroups(L) of Algorithm 2.
func (b *Base) Entry(length int) *LengthEntry {
	return b.Entries[length]
}

// TotalGroups returns the total representative count across lengths
// (Fig. 6 / Table 4).
func (b *Base) TotalGroups() int {
	total := 0
	for _, e := range b.Entries {
		total += len(e.Groups)
	}
	return total
}

// SizeBytes estimates the resident size of the index structures in the
// spirit of the paper's Table 4: per group its identifier, representative
// and two extremes (GTI), per member its identifiers and ED (LSI).
func (b *Base) SizeBytes() int64 {
	const word = 8
	var total int64
	for _, e := range b.Entries {
		total += int64(len(e.Groups)) * 3 * word // group id, max, min
		for _, grp := range e.Groups {
			total += int64(grp.Count()) * 3 * word // member ids + ED
			total += int64(len(grp.Rep)) * word    // representative
		}
	}
	return total
}

// MemberValues returns the raw window of member m of group g.
func (b *Base) MemberValues(g *grouping.Group, m grouping.Member) []float64 {
	return b.Dataset.Series[m.SeriesIdx].Values[m.Start : m.Start+g.Length]
}

// Degree labels a similarity threshold per the Sec. 4.2 scale: Strict below
// the half-merge critical threshold, Medium between the two critical
// values, Loose at or above the all-merge one.
type Degree int

// Similarity degrees (Sec. 4.2).
const (
	Strict Degree = iota
	Medium
	Loose
)

// String implements fmt.Stringer with the paper's S/M/L letters.
func (d Degree) String() string {
	switch d {
	case Strict:
		return "S"
	case Medium:
		return "M"
	case Loose:
		return "L"
	default:
		return "?"
	}
}
