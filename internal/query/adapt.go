package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/rspace"
)

// AdaptThreshold implements Algorithm 2.C / Sec. 5.2: given a new similarity
// threshold ST′ it derives an adapted grouping from the precomputed groups
// without reclustering the raw data.
//
//   - ST′ == ST: the precomputed groups are returned as-is (sharing the
//     group objects).
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
// The processor's base must hold the complete grouping (the one-shard
// layout): merging reads inter-representative distances across all groups.
// The base is left untouched; the caller indexes the returned grouping.
func (p *Processor) AdaptThreshold(stPrime float64) (*grouping.Result, error) {
	if stPrime <= 0 || math.IsNaN(stPrime) || math.IsInf(stPrime, 0) {
		return nil, fmt.Errorf("query: adapted threshold must be positive, got %v", stPrime)
	}
	st := p.base.ST
	adapted := &grouping.Result{
		ST:       stPrime,
		Lengths:  append([]int(nil), p.base.Lengths...),
		ByLength: make(map[int]*grouping.LengthGroups, len(p.base.Lengths)),
	}
	adapted.TotalSubseq = p.base.TotalSubseq

	for _, l := range p.base.Lengths {
		e := p.base.Entry(l)
		var lg *grouping.LengthGroups
		switch {
		case stPrime == st:
			lg = &grouping.LengthGroups{Length: l, Groups: e.Groups}
		case stPrime < st:
			lg = splitLength(p, e, stPrime)
		default:
			lg = mergeLength(p, e, stPrime-st)
		}
		adapted.ByLength[l] = lg
	}

	return adapted, nil
}

// splitLength re-clusters each group's members at the smaller radius
// ST′/2 using the same nearest-representative pass as Algorithm 1. Member
// order is a seeded shuffle (seeded by length and group) so adaptation is
// deterministic.
func splitLength(p *Processor, e *rspace.LengthEntry, stPrime float64) *grouping.LengthGroups {
	lg := &grouping.LengthGroups{Length: e.Length}
	radiusSq := float64(e.Length) * stPrime * stPrime / 4
	invSqrtL := 1 / math.Sqrt(float64(e.Length))
	for gi, g := range e.Groups {
		members := append([]grouping.Member(nil), g.Members...)
		r := rand.New(rand.NewSource(int64(e.Length)*1_000_003 + int64(gi)))
		r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })

		type building struct {
			rep, sum []float64
			members  []grouping.Member
		}
		var subs []*building
		for _, m := range members {
			v := p.base.MemberValues(g, m)
			bestSq := math.Inf(1)
			bestIdx := -1
			for si, sub := range subs {
				cutoff := radiusSq
				if bestSq < cutoff {
					cutoff = bestSq
				}
				sq := dist.SquaredEDEarlyAbandon(v, sub.rep, cutoff)
				if sq < bestSq {
					bestSq = sq
					bestIdx = si
				}
			}
			if bestIdx >= 0 && bestSq <= radiusSq {
				sub := subs[bestIdx]
				sub.members = append(sub.members, m)
				for i, x := range v {
					sub.sum[i] += x
				}
				inv := 1 / float64(len(sub.members))
				for i := range sub.rep {
					sub.rep[i] = sub.sum[i] * inv
				}
			} else {
				subs = append(subs, &building{
					rep:     append([]float64(nil), v...),
					sum:     append([]float64(nil), v...),
					members: []grouping.Member{m},
				})
			}
		}
		for _, sub := range subs {
			ng := &grouping.Group{
				Length:  e.Length,
				ID:      len(lg.Groups),
				Rep:     sub.rep,
				Members: sub.members,
			}
			for mi := range ng.Members {
				m := &ng.Members[mi]
				v := p.base.Dataset.Series[m.SeriesIdx].Values[m.Start : m.Start+e.Length]
				m.EDToRep = dist.ED(v, ng.Rep) * invSqrtL
			}
			sort.Slice(ng.Members, func(a, b int) bool {
				return ng.Members[a].EDToRep < ng.Members[b].EDToRep
			})
			lg.Groups = append(lg.Groups, ng)
		}
	}
	return lg
}

// mergeLength cascades pairwise merges while some pair satisfies
// ST′ − ST ≥ Dc (Algorithm 2.C case 3.2a). delta is ST′ − ST.
func mergeLength(p *Processor, e *rspace.LengthEntry, delta float64) *grouping.LengthGroups {
	type merged struct {
		rep, sum []float64
		count    int
		members  []grouping.Member
	}
	ms := make([]*merged, len(e.Groups))
	for i, g := range e.Groups {
		sum := make([]float64, len(g.Rep))
		for j, v := range g.Rep {
			sum[j] = v * float64(g.Count())
		}
		ms[i] = &merged{
			rep:     append([]float64(nil), g.Rep...),
			sum:     sum,
			count:   g.Count(),
			members: append([]grouping.Member(nil), g.Members...),
		}
	}
	invSqrtL := 1 / math.Sqrt(float64(e.Length))
	dcOf := func(a, b *merged) float64 {
		return dist.ED(a.rep, b.rep) * invSqrtL
	}

	// Cascade: repeatedly merge the closest qualifying pair. O(g³) worst
	// case with small constants; g per length is small by design (Fig. 6).
	for {
		bestA, bestB := -1, -1
		bestDc := math.Inf(1)
		for a := 0; a < len(ms); a++ {
			for b := a + 1; b < len(ms); b++ {
				if dc := dcOf(ms[a], ms[b]); dc <= delta && dc < bestDc {
					bestDc, bestA, bestB = dc, a, b
				}
			}
		}
		if bestA < 0 {
			break
		}
		a, b := ms[bestA], ms[bestB]
		for i := range a.sum {
			a.sum[i] += b.sum[i]
		}
		a.count += b.count
		a.members = append(a.members, b.members...)
		inv := 1 / float64(a.count)
		for i := range a.rep {
			a.rep[i] = a.sum[i] * inv
		}
		ms = append(ms[:bestB], ms[bestB+1:]...)
	}

	lg := &grouping.LengthGroups{Length: e.Length}
	for _, m := range ms {
		ng := &grouping.Group{
			Length:  e.Length,
			ID:      len(lg.Groups),
			Rep:     m.rep,
			Members: m.members,
		}
		for mi := range ng.Members {
			mm := &ng.Members[mi]
			v := p.base.Dataset.Series[mm.SeriesIdx].Values[mm.Start : mm.Start+e.Length]
			mm.EDToRep = dist.ED(v, ng.Rep) * invSqrtL
		}
		sort.Slice(ng.Members, func(x, y int) bool {
			return ng.Members[x].EDToRep < ng.Members[y].EDToRep
		})
		lg.Groups = append(lg.Groups, ng)
	}
	return lg
}
