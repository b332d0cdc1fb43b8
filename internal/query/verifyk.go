package query

import (
	"context"
	"fmt"
	"math"

	"onex/internal/dist"
	"onex/internal/grouping"
)

// VerifyK implements ShardTransport: the k-NN member verification of one
// length as one phase. The shard walks the candidate groups in the given
// order and, within a group, its own members in the group's ED order (the
// restriction of the global order), running the per-member cascade — LB_Kim,
// then early-abandoning DTW — and reports every distance that ran to
// completion. Rounds follow the rule of Scatter.roundFor: one member at a
// time against the tightening bound at one worker or in a group too small
// for two rounds, mineBatchSize members against a snapshot of it otherwise.
//
// # Why the answer does not depend on the layout
//
// The reference is the one-shard walk at one worker
// (Scatter.verifyGroupK): groups in candidate order until a representative's
// distance exceeds cut = kth·divisor + radius, members in ED order, each
// pushed iff its lower bound and its DTW are both below cutoff = kth·divisor,
// kth being the k-th distance of the one real heap at that moment. The
// coordinator replays exactly that over the reported distances
// (Scatter.verifyPhaseK), so it is enough that no shard drops a member the
// reference would push. A shard drops a member whose lower bound reaches, or
// whose DTW exceeds, its own bound
//
//	B = min(request cutoff, max(D, D/divisor·divisor))
//
// where D is the k-th smallest value the shard has found so far, a found
// member counting as the larger of its distance and its lower bound (the
// distance, wherever LB_Kim ≤ DTW also holds after rounding). B is never
// below the reference's cutoff at the same member:
//
//   - the request cutoff is the real heap's cutoff when the phase starts,
//     and that only falls;
//   - take the k found members counted ≤ D before this one. The reference
//     met each of them earlier in its own walk (same group order, member
//     order restricted). One it did not push failed a test — lower bound or
//     distance — against a cutoff that was already ≤ its count, or met a
//     heap root already ≤ its normalized distance; if it pushed all k, the
//     heap root is at most the largest of their normalized distances,
//     ≤ D/divisor, whether or not some were evicted since (an eviction only
//     lowers the root). Either way the reference's cutoff is now ≤ D or
//     ≤ D/divisor·divisor — computed here with the coordinator's own
//     operations, so the comparison holds in floating point, not just over
//     the reals.
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
	e := ls.proc.base.Entry(req.Length)
	if e == nil {
		return VerifyKResponse{}, fmt.Errorf("query: length %d not indexed", req.Length)
	}
	// Resolve the candidates up front: a malformed list fails before any
	// work runs. locals[i] is -1 for a group with no member here.
	locals := make([]int, len(req.Candidates))
	seen := make([]bool, len(e.Groups))
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
	// found ranks what the walk has found so far: topK over the members'
	// counts (see above), in raw units.
	found := newTopK(req.K)
	bound := func() float64 {
		d := found.kth()
		return math.Min(cutoff, math.Max(d, d/divisor*divisor))
	}
	exec := ls.proc.innerExec(reqWorkers(req.Workers))
	gids := ls.globalIDs[req.Length]
	ws := ls.proc.pool.Get()
	defer ls.proc.pool.Put(ws)
	var (
		resp    VerifyKResponse
		windows [][]float64
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
		members := e.Groups[local].Members
		single := exec.workers <= 1 || len(members) < 2*mineBatchSize
		for off := 0; off < len(members); off += mineBatchSize {
			if err := ctx.Err(); err != nil {
				return VerifyKResponse{}, err
			}
			round := members[off:min(off+mineBatchSize, len(members))]
			dtws := 0
			if single {
				for _, m := range round {
					v := ls.proc.base.Dataset.Series[m.SeriesIdx].Values[m.Start : m.Start+req.Length]
					lb, d, ran := exec.evalMember(ws, q, v, bound())
					if ran {
						dtws++
					}
					report(gids[local], m, lb, d)
				}
			} else {
				windows = windows[:0]
				for _, m := range round {
					windows = append(windows, ls.proc.base.Dataset.Series[m.SeriesIdx].Values[m.Start:m.Start+req.Length])
				}
				dtws = exec.evalRound(q, windows, bound(), lbs[:], ds[:])
				for j, m := range round {
					report(gids[local], m, lbs[j], ds[j])
				}
			}
			resp.DTWComputed += dtws
			if !exec.opts.DisableLowerBounds {
				resp.PrunedByKim += len(round) - dtws
			}
		}
	}
	return resp, nil
}
