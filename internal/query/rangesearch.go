package query

import (
	"context"
	"fmt"
	"math"

	"onex/internal/dist"
	"onex/internal/parallel"
)

// rangePollEvery is how many units — members of a range scan, or
// representatives of a shard's scan — a loop processes between polls of its
// context.
const rangePollEvery = 64

// RangeResult is one subsequence returned by a range search.
type RangeResult struct {
	Match
	// Guaranteed is true when the match was admitted through the Lemma 2
	// guarantee (its group representative was within ST/2 of the query)
	// without needing an individual verification. Under RangeSearch,
	// guaranteed results report the ST upper bound in Dist — NOT an exact
	// distance (sorting or re-thresholding on Dist is wrong for them); the
	// exact form computes their true DTW instead.
	Guaranteed bool
}

// rangeSearch answers a range query over the processor's base (a target
// class the paper's related work highlights, Sec. 7): every subsequence of
// the given length whose normalized DTW (Def. 6) to q is within radius.
// This is where the paper's ED↔DTW triangle inequality pays off directly,
// in both directions:
//
//   - Admission (Lemma 2): when radius ≥ ST and DTW̄(q, R) ≤ ST/2, every
//     member of R's group is within ST ≤ radius — the whole group is
//     admitted with zero member DTW computations (Guaranteed=true).
//
//   - Pruning (the same path argument, reversed): for an optimal warping
//     path P of DTW(q, y′) — which is also a valid path of the q×R matrix,
//     R and y′ having equal length — Minkowski's inequality gives
//     DTW(q, R) ≤ DTW(q, y′) + √m·ED(R, y′), m = len(q), since a path
//     revisits any column at most m times. Therefore
//     DTW(q, y′) ≥ DTW(q, R) − √m·ED(R, y′): a group whose representative
//     is farther than rawRadius + √m·maxMemberED cannot contain a match and
//     is skipped without touching its members.
//
// A group is skipped explicitly when its representative's DTW exceeds that
// cutoff: the kernel may return such a distance finite, or +Inf.
//
// Members of the remaining groups are verified individually with
// early-abandoning DTW and carry exact distances: a member is accepted on
// d/divisor ≤ radius, which admits a d up to fl(radius·divisor)·(1+u)²
// (u = 2⁻⁵³), so the kernel's cutoff is radius·divisor times 1+1e-15, which
// rounds to 1+10u and keeps the product ≥ fl(radius·divisor)·(1+u)²; every
// d the test can accept is one the kernel computed exactly. Wholesale-admitted members
// carry the ST upper bound in Dist (see RangeResult.Guaranteed) unless exact
// is set, which computes their true DTW (the guarantee still saves the
// admission decision) and filters them against the radius like every other
// member — the result set is then exactly the subsequences within radius,
// independent of how the base happens to be grouped, at the cost of one DTW
// per guaranteed member. Results are unordered. Range work is per-group
// against a fixed radius, so the counters accumulated into the caller-owned
// tr are identical at every worker count. ctx is polled per group and every
// rangePollEvery members, so a canceled request (or job) stops paying DTWs;
// it then gets ctx's error, never a partial result set.
func (p *Processor) rangeSearch(ctx context.Context, q []float64, length int, radius float64,
	exact bool, tr *Trace) ([]RangeResult, error) {

	if err := validateQuery(q); err != nil {
		return nil, err
	}
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("query: invalid range radius %v", radius)
	}
	e := p.base.Entry(length)
	if e == nil {
		return nil, fmt.Errorf("query: length %d not indexed", length)
	}
	divisor := dist.NormalizedDTWDivisor(len(q), length)
	sqrtM := math.Sqrt(float64(len(q)))
	sqrtL := math.Sqrt(float64(length))
	wholesale := radius >= p.base.ST
	acceptCutoff := radius * divisor * (1 + 1e-15)

	// Each group's admission/verification depends only on the query and the
	// fixed radius — never on other groups — so the group loop shards across
	// the worker pool verbatim; per-group result slices are concatenated in
	// group order so the output is identical to the sequential scan (and so
	// are the per-group work counters).
	searchGroup := func(ws *dist.Workspace, k int, tr *Trace) []RangeResult {
		g := e.Groups[k]
		n := g.Count()
		if n == 0 || ctx.Err() != nil {
			return nil
		}
		var out []RangeResult
		// Widest member deviation in raw-ED units (LSI is sorted ascending).
		maxRawED := g.Members[n-1].EDToRep * sqrtL
		pruneCutoff := radius*divisor + sqrtM*maxRawED
		tr.RepsExamined++
		tr.DTWComputed++
		repRaw := ws.DTWEarlyAbandon(q, g.Rep, pruneCutoff)
		if repRaw > pruneCutoff {
			return nil // no member can reach the radius
		}

		verifyFrom := 0
		if wholesale && repRaw/divisor <= p.base.ST/2 {
			// Lemma 2 requires ED̄(member, R) ≤ ST/2; representatives drift
			// during construction, so admit exactly the sorted prefix that
			// satisfies the premise and verify any stragglers individually.
			for verifyFrom < n && g.Members[verifyFrom].EDToRep <= p.base.ST/2 {
				m := g.Members[verifyFrom]
				verifyFrom++
				// Reported distance: the Lemma 2 upper bound (exactly ST —
				// not round-tripped through the divisor), or in exact mode
				// the true DTW (the guarantee proves DTW̄ ≤ ST
				// mathematically, so no abandon can fire below the radius),
				// filtered like any verified member so the result set
				// matches a brute-force scan bit for bit.
				nd, d := p.base.ST, p.base.ST*divisor
				if exact {
					if verifyFrom%rangePollEvery == 0 && ctx.Err() != nil {
						return nil
					}
					v := p.base.MemberValues(g, m)
					tr.MembersTested++
					tr.DTWComputed++
					d = ws.DTWEarlyAbandon(q, v, acceptCutoff)
					nd = d / divisor
					if nd > radius {
						continue
					}
				}
				out = append(out, RangeResult{
					Match: Match{
						SeriesID: m.SeriesIdx,
						Start:    m.Start,
						Length:   length,
						Dist:     nd,
						RawDTW:   d,
						GroupID:  k,
					},
					Guaranteed: true,
				})
			}
		}

		for i, m := range g.Members[verifyFrom:] {
			if i%rangePollEvery == 0 && ctx.Err() != nil {
				return nil
			}
			v := p.base.MemberValues(g, m)
			tr.MembersTested++
			if dist.LBKim(q, v) > radius*divisor {
				tr.PrunedByKim++
				continue
			}
			tr.DTWComputed++
			d := ws.DTWEarlyAbandon(q, v, acceptCutoff)
			if nd := d / divisor; nd <= radius {
				out = append(out, RangeResult{
					Match: Match{
						SeriesID: m.SeriesIdx,
						Start:    m.Start,
						Length:   length,
						Dist:     nd,
						RawDTW:   d,
						GroupID:  k,
					},
				})
			}
		}
		return out
	}

	var out []RangeResult
	if p.workers <= 1 || len(e.Groups) < 4 {
		ws := p.pool.Get()
		for k := range e.Groups {
			out = append(out, searchGroup(ws, k, tr)...)
		}
		p.pool.Put(ws)
	} else {
		perGroup := make([][]RangeResult, len(e.Groups))
		trs := make([]Trace, len(e.Groups))
		parallel.ForEach(p.workers, len(e.Groups), func(k int) {
			ws := p.pool.Get()
			defer p.pool.Put(ws)
			perGroup[k] = searchGroup(ws, k, &trs[k])
		})
		for k, rs := range perGroup {
			tr.add(trs[k])
			out = append(out, rs...)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
