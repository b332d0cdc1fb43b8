package grouping

import (
	"errors"
	"math"

	"onex/internal/dist"
	"onex/internal/ts"
)

// Adapt implements Algorithm 2.C / Sec. 5.2: given a new similarity
// threshold ST′ it derives an adapted grouping from prev, built over d,
// without reclustering the raw data.
//
//   - ST′ == ST: the groups of prev are returned as-is (sharing the group
//     objects).
//   - ST′ <  ST: each group is split by re-running the Algorithm 1 loop over
//     its own members at radius ST′/2 — similarity at ST implies the members
//     are candidates at ST′, so no answer outside the group is possible.
//   - ST′ >  ST: pairs of groups with ST′ − ST ≥ Dc are merged; after each
//     merge the new representative (count-weighted average) and its Dc row
//     are recomputed and the cascade repeats while the condition holds
//     (the paper picks a random qualifying pair; we pick the smallest-Dc
//     pair to make adaptation deterministic, which is one of the paper's
//     admissible choices).
//
// prev is not modified.
func Adapt(d *ts.Dataset, prev *Result, stPrime float64) (*Result, error) {
	if d == nil || prev == nil {
		return nil, errors.New("grouping: nil dataset or previous result")
	}
	if err := checkST(stPrime); err != nil {
		return nil, err
	}
	adapted := &Result{
		ST:          stPrime,
		Lengths:     append([]int(nil), prev.Lengths...),
		ByLength:    make(map[int]*LengthGroups, len(prev.Lengths)),
		TotalSubseq: prev.TotalSubseq,
	}
	for _, l := range prev.Lengths {
		groups := prev.ByLength[l].Groups
		switch {
		case stPrime < prev.ST:
			groups = split(d, l, groups, stPrime)
		case stPrime > prev.ST:
			groups = merge(d, l, groups, stPrime-prev.ST)
		}
		adapted.ByLength[l] = &LengthGroups{Length: l, Groups: groups}
	}
	return adapted, nil
}

// split re-clusters each group's members at the smaller radius ST′/2 with
// the Algorithm 1 loop. Member order is a shuffle seeded by length and
// group index, so adaptation is deterministic.
func split(d *ts.Dataset, length int, groups []*Group, stPrime float64) []*Group {
	rsq := radiusSq(length, stPrime)
	var out []*Group
	for gi, g := range groups {
		positions := make([]position, len(g.Members))
		for i, m := range g.Members {
			positions[i] = position{seriesIdx: m.SeriesIdx, start: m.Start}
		}
		shuffle(positions, int64(length)*1_000_003+int64(gi))
		sub := &LengthGroups{Length: length}
		assign(d, sub, positions, rsq)
		out = append(out, sub.Groups...)
	}
	for i, g := range out {
		g.ID = i
		g.finalize(d)
	}
	return out
}

// merge cascades pairwise merges while some pair satisfies ST′ − ST ≥ Dc
// (Algorithm 2.C case 3.2a); delta is ST′ − ST. Each merge rescans every
// remaining pair with a full-length ED, so one length costs O(merges·g²)
// EDs: minutes on a base with hundreds of groups per length (ROADMAP
// item 1).
func merge(d *ts.Dataset, length int, groups []*Group, delta float64) []*Group {
	ms := make([]*Group, len(groups))
	for i, g := range groups {
		ms[i] = thaw(g)
	}
	invSqrtL := 1 / math.Sqrt(float64(length))
	for {
		bestA, bestB := -1, -1
		bestDc := math.Inf(1)
		for a := range ms {
			for b := a + 1; b < len(ms); b++ {
				if dc := dist.ED(ms[a].Rep, ms[b].Rep) * invSqrtL; dc <= delta && dc < bestDc {
					bestDc, bestA, bestB = dc, a, b
				}
			}
		}
		if bestA < 0 {
			break
		}
		ms[bestA].absorb(ms[bestB].sum, ms[bestB].Members...)
		ms = append(ms[:bestB], ms[bestB+1:]...)
	}
	for i, g := range ms {
		g.ID = i
		g.finalize(d)
	}
	return ms
}
