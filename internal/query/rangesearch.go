package query

import (
	"context"
	"fmt"
	"math"

	"onex/internal/dist"
	"onex/internal/grouping"
)

// rangePollEvery is how many units — groups or members of a range scan, or
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

// Range implements ShardTransport: the range query over the shard's index (a
// target class the paper's related work highlights, Sec. 7) — every
// subsequence of the requested length whose normalized DTW (Def. 6) to the
// query is within the radius, with global series and group ids.
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
//     is farther than pruneCutoff = acceptCutoff + √m·maxMemberED cannot
//     contain a match and is skipped without touching its members.
//
// Both prunes derive from acceptCutoff, the largest d the acceptance test
// d/divisor ≤ radius can admit. That test admits a d up to
// fl(radius·divisor)·(1+u)² (u = 2⁻⁵³), possibly above fl(radius·divisor)
// itself, so a prune starting from radius·divisor would drop windows whose
// normalized distance is exactly the radius; radius·divisor times 1+1e-15,
// which rounds to 1+10u, stays at or above every such d. Both prunes are
// strict (> their cutoff): the representative runs the scans' cascade
// (scanRep, strict at pruneCutoff) and each member the member test
// (evalMember) at next(acceptCutoff), so every d the test can accept is one
// the kernel computed exactly. A group is skipped explicitly when its
// representative's distance exceeds pruneCutoff: the kernel may return such
// a distance finite, or +Inf.
//
// Wholesale-admitted members carry the ST upper bound in Dist (see
// RangeResult.Guaranteed) unless the request is exact, which computes their
// true DTW (the guarantee still saves the admission decision) and filters
// them against the radius like every other member — the result set is then
// exactly the subsequences within radius, at the radius included,
// independent of how the base happens to be grouped, at the cost of one
// member test per guaranteed member. Results come in the shard's group
// order; the coordinator treats them as unordered. Range work is per-group
// against a fixed radius, so the response's Trace is identical at every
// worker count. Groups stride across the request's workers (strided, which
// polls ctx every rangePollEvery groups), and each group polls every
// rangePollEvery members, so a canceled request (or job) stops paying DTWs;
// it then gets ctx's error, never a partial result set.
func (ls *LocalShard) Range(ctx context.Context, req RangeRequest) (RangeResponse, error) {
	q, length, radius := req.Query, req.Length, req.Radius
	if err := validateQuery(q); err != nil {
		return RangeResponse{}, err
	}
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return RangeResponse{}, fmt.Errorf("query: invalid range radius %v", radius)
	}
	lg := ls.grouped.ByLength[length]
	if lg == nil {
		return RangeResponse{}, fmt.Errorf("query: length %d not indexed", length)
	}
	groups, st, gids := lg.Groups, ls.grouped.ST, ls.globalIDs[length]
	divisor := dist.NormalizedDTWDivisor(len(q), length)
	sqrtM := math.Sqrt(float64(len(q)))
	sqrtL := math.Sqrt(float64(length))
	wholesale := radius >= st
	acceptCutoff := radius * divisor * (1 + 1e-15)
	memberBound := math.Nextafter(acceptCutoff, math.Inf(1))

	// Each group's admission/verification depends only on the query and the
	// fixed radius — never on other groups — so the groups stride across the
	// workers verbatim; per-group result slices are concatenated in group
	// order so the output is identical at every worker count (and so are
	// the work counters).
	perGroup := make([][]RangeHit, len(groups))
	searchGroup := func(ws *dist.Workspace, k int, tr *Trace) {
		g := groups[k]
		n := g.Count()
		if n == 0 {
			return
		}
		// Widest member deviation in raw-ED units (LSI is sorted ascending).
		maxRawED := g.Members[n-1].EDToRep * sqrtL
		pruneCutoff := acceptCutoff + float64(sqrtM*maxRawED)
		repRaw := scanRep(ws, q, g.Rep, pruneCutoff, tr)
		if repRaw > pruneCutoff {
			return // no member can reach the radius
		}

		// Lemma 2 requires ED̄(member, R) ≤ ST/2; representatives drift
		// during construction, so admit exactly the sorted prefix that
		// satisfies the premise and verify any stragglers individually.
		admitted := 0
		if wholesale && repRaw/divisor <= st/2 {
			for admitted < n && g.Members[admitted].EDToRep <= st/2 {
				admitted++
			}
		}
		var out []RangeHit
		for i, m := range g.Members {
			r := RangeHit{Series: ls.series[m.SeriesIdx], Start: m.Start, GroupID: gids[k], Guaranteed: i < admitted}
			if r.Guaranteed && !req.Exact {
				// Reported distance: the Lemma 2 upper bound, exactly ST —
				// not round-tripped through the divisor.
				r.Dist, r.RawDTW = st, st*divisor
				out = append(out, r)
				continue
			}
			if i%rangePollEvery == 0 && ctx.Err() != nil {
				return
			}
			tr.MembersTested++
			_, d, ran := evalMember(ws, q, grouping.MemberValues(ls.data, g, m), memberBound)
			if !ran {
				tr.PrunedByKim++
				continue
			}
			tr.DTWComputed++
			if r.Dist, r.RawDTW = d/divisor, d; r.Dist <= radius {
				out = append(out, r)
			}
		}
		perGroup[k] = out
	}

	workers := reqWorkers(req.Workers)
	if len(groups) < 4 {
		workers = 1
	}
	var tr Trace
	strided(ctx, ls.pool, workers, len(groups), &tr, searchGroup)
	if err := ctx.Err(); err != nil {
		return RangeResponse{}, err
	}
	total := 0
	for _, rs := range perGroup {
		total += len(rs)
	}
	hits := make([]RangeHit, 0, total) // never nil: the wire shape is [], not null
	for _, rs := range perGroup {
		hits = append(hits, rs...)
	}
	return RangeResponse{Results: hits, Trace: tr}, nil
}
