package query

import (
	"context"
	"fmt"
	"math"
	"slices"

	"onex/internal/dist"
	"onex/internal/grouping"
)

// VerifyK implements ShardTransport: one k-NN member-verification phase of
// one length. The shard walks the candidate groups in the given
// order and, within a group, its own members in the group's ED order (the
// restriction of the global order), running the per-member cascade — LB_Kim,
// then early-abandoning DTW — and reports every distance that ran to
// completion, in the rounds roundSize picks (evalRound).
//
// # Why the answer does not depend on the layout
//
// The reference is the plain k-NN walk over the global grouping: groups in
// candidate order until a representative's distance exceeds cut =
// kth·divisor + radius, members in ED order, each pushed iff its lower bound
// and its DTW are both below cutoff = kth·divisor, kth being the k-th
// distance of the one real heap at that moment (TestKNNMatchesPlainWalk in
// internal/shard holds every layout to it). The coordinator replays exactly
// that over the reported distances (Scatter.verifyPhaseK), so it is enough
// that no shard drops a member the reference would push. A shard drops a
// member whose lower bound reaches, or whose DTW exceeds, its own bound
//
//	B = min(request cutoff, max(D, D/divisor·divisor))
//
// where D is the k-th smallest value of the shard's ranking: the request's
// seeds — the heap's distances when the phase starts, each Dist·divisor as
// the coordinator computes it — plus every member the shard has found so
// far, a found member counting as the larger of its distance and its lower
// bound (the distance, wherever LB_Kim ≤ DTW also holds after rounding). B
// is never below the reference's cutoff at the same member:
//
//   - the request cutoff is the real heap's cutoff when the phase starts,
//     and that only falls;
//   - take the k entries counted ≤ D before this member. A seed is a member
//     the reference pushed before the phase. A found member the reference
//     met earlier in its own walk (same group order, member order
//     restricted), after every seed; one it did not push failed a test —
//     lower bound or distance — against a cutoff that was already ≤ its
//     count, or met a heap root already ≤ its normalized distance. If it
//     pushed all k — distinct members, since a phase's groups hold no seed —
//     the heap root is at most the largest of their normalized distances,
//     whether or not some were evicted since (an eviction only lowers the
//     root), and x ↦ fl(x·divisor) is monotone: the reference's cutoff is at
//     most the largest of the seeds and the D/divisor·divisor of the found
//     ones. Either way it is now ≤ D or ≤ D/divisor·divisor — computed here
//     with the coordinator's own operations, so the comparison holds in
//     floating point, not just over the reals.
//
// Seeds only make D, and with it B, smaller than a ranking of the shard's
// own finds: a second phase of a length, or a later length, abandons against
// the heap it inherits rather than against the request cutoff until the
// shard finds k members of its own. More than k seeds, or a NaN or negative
// one, is refused with ErrBadRequest.
//
// The DTW kernel is exact at or below B and may return +Inf above it. A
// member whose distance comes back +Inf is not counted, and fewer counted
// members can only make D, and with it B, larger, so the argument above
// holds for whatever the kernel returns.
//
// The same inequality makes the shard's group cut (B + radius) no tighter
// than the reference's, so the shard visits a superset prefix of the groups
// the reference visits; the replay drops what lies beyond the real cut.
// Which members are pruned rather than computed depends on B, hence on the
// layout — PrunedByKim and DTWComputed vary as they always have with the
// worker count; the answer and MembersTested do not.
func (ls *LocalShard) VerifyK(ctx context.Context, req VerifyKRequest) (VerifyKResponse, error) {
	if err := ctx.Err(); err != nil {
		return VerifyKResponse{}, err
	}
	if err := validateQuery(req.Query); err != nil {
		return VerifyKResponse{}, err
	}
	if req.K < 1 {
		return VerifyKResponse{}, fmt.Errorf("query: k must be ≥ 1, got %d", req.K)
	}
	cutoff := math.Float64frombits(req.CutoffBits)
	if math.IsNaN(cutoff) {
		return VerifyKResponse{}, fmt.Errorf("query: k-NN cutoff is NaN")
	}
	if req.RadiusRaw < 0 || math.IsNaN(req.RadiusRaw) || math.IsInf(req.RadiusRaw, 0) {
		return VerifyKResponse{}, fmt.Errorf("query: invalid group radius %v", req.RadiusRaw)
	}
	if len(req.Seeds) > req.K || slices.ContainsFunc(req.Seeds, func(s float64) bool { return !(s >= 0) }) {
		return VerifyKResponse{}, fmt.Errorf("%w: %d k-NN seeds for k %d, or one NaN or negative", ErrBadRequest, len(req.Seeds), req.K)
	}
	lg := ls.grouped.ByLength[req.Length]
	if lg == nil {
		return VerifyKResponse{}, fmt.Errorf("query: length %d not indexed", req.Length)
	}
	// Resolve the candidates up front: a malformed list fails before any
	// work runs. locals[i] is -1 for a group with no member here.
	locals := make([]int, len(req.Candidates))
	seen := make([]bool, len(lg.Groups))
	for i, c := range req.Candidates {
		if c.GroupID < 0 || math.IsNaN(c.Dist) {
			return VerifyKResponse{}, fmt.Errorf("query: invalid k-NN candidate %d (group %d, distance %v)", i, c.GroupID, c.Dist)
		}
		local, ok := ls.localGroup(req.Length, c.GroupID)
		if !ok {
			locals[i] = -1
			continue
		}
		if seen[local] {
			return VerifyKResponse{}, fmt.Errorf("query: k-NN candidate group %d listed twice", c.GroupID)
		}
		seen[local] = true
		locals[i] = local
	}

	q := req.Query
	divisor := dist.NormalizedDTWDivisor(len(q), req.Length)
	// found ranks the seeds and what the walk has found so far: topK over
	// the members' counts (see above), in raw units. Seeds carry no member,
	// so they bypass push's duplicate check.
	found := newTopK(req.K)
	for _, s := range req.Seeds {
		found.matches = keepK(found.matches, found.k, Match{Dist: s}, byDist)
	}
	bound := func() float64 {
		d := found.kth()
		return math.Min(cutoff, math.Max(d, d/divisor*divisor))
	}
	workers := reqWorkers(req.Workers)
	gids := ls.globalIDs[req.Length]
	ws := ls.pool.Get()
	defer ls.pool.Put(ws)
	var (
		resp    VerifyKResponse
		windows [mineBatchSize][]float64
		lbs, ds [mineBatchSize]float64
	)
	report := func(gid int, m grouping.Member, lb, d float64) {
		if math.IsInf(d, 1) {
			return
		}
		resp.Hits = append(resp.Hits, VerifiedHit{
			GroupID:  gid,
			Series:   ls.series[m.SeriesIdx],
			Start:    m.Start,
			DistBits: math.Float64bits(d),
		})
		found.push(Match{SeriesID: m.SeriesIdx, Start: m.Start, Length: req.Length, Dist: math.Max(lb, d)})
	}
	for i, c := range req.Candidates {
		if c.Dist > bound()+req.RadiusRaw {
			break
		}
		local := locals[i]
		if local < 0 {
			continue
		}
		members := lg.Groups[local].Members
		round := roundSize(workers, len(members))
		for off := 0; off < len(members); off += round {
			if off%mineBatchSize == 0 {
				if err := ctx.Err(); err != nil {
					return VerifyKResponse{}, err
				}
			}
			batch := members[off:min(off+round, len(members))]
			for j, m := range batch {
				windows[j] = ls.data.Series[m.SeriesIdx].Values[m.Start : m.Start+req.Length]
			}
			dtws := evalRound(ls.pool, workers, ws, q, windows[:len(batch)], bound(), lbs[:], ds[:])
			for j, m := range batch {
				report(gids[local], m, lbs[j], ds[j])
			}
			resp.DTWComputed += dtws
			resp.PrunedByKim += len(batch) - dtws
		}
	}
	return resp, nil
}
