// Package query implements the ONEX online query processor (Algorithm 2,
// Sec. 5): similarity queries over the representative space with time-warped
// matching, and seasonal-similarity queries. The Sec. 5.2 threshold surfaces
// read the grouping without a query: recommendations come from
// grouping.MergeThresholdsFor and threshold adaptation from grouping.Adapt.
//
// The Sec. 5.3 optimizations are implemented, but for two, and they always
// run — the engine answers with the paper's one configuration, whose only
// setting is the worker count:
//
//   - length ordering for Match=Any: the query's own length first, then
//     decreasing lengths, then increasing;
//   - the early stop for Match=Any: once a length's best representative is
//     within ST/2 of the query (Lemma 2 vouches for its whole group), no
//     further length is searched;
//   - representative ordering: the scan visits a length's groups in id
//     order — the order Algorithm 1 founded them — not in the paper's
//     median-sum order, which ran more DTWs on the benchmark's scan
//     workload (the groups founded first tend to be the populous ones, so
//     the best-so-far bound tightens early);
//   - the cascading lower-bound chain LB_Kim → early-abandoning DTW
//     against a bound — one representative test (scanRep), with one
//     strict prune rule, for both representative scans: LocalShard.Scan —
//     the top-K scan of a best match (K = 1) and of a k-NN's first groups,
//     and the fixed-cutoff scan of a k-NN (K = 0) — and range search, which
//     differ only in the bound they pass and run the same strided worker
//     loop (strided).
//     The UCR suite's LB_Keogh stage is not run: DTW here has no warping
//     band, so a representative's envelope is just its maximum and
//     minimum, and on the benchmark's workloads that bound pruned 0.3–4.1%
//     of the representatives a best-match scan examined. Group members take
//     the member test (evalMember: LB_Kim, then early-abandoning DTW) in
//     the pivot walk, k-NN verification and range search alike;
//   - the paper's marriage of the two distances at scan time: ED ≥ DTW for
//     equal lengths, so a same-length scan seeds its best-so-far with one
//     early-abandoning ED pass over the representatives, and the pruned DTW
//     kernel computes only the cells that can still finish under it;
//   - the in-group pivot search: members are visited in order of
//     |ED(member, rep) − DTW(query, rep)| over the ED-sorted LSI array, and
//     the walk stops after 32 consecutive members fail to improve the
//     match (see patience).
//
// # One engine
//
// Scatter is the only coordinator. It holds the global dataset and
// grouping: it walks the lengths, merges the representative scans of its
// shards, mines each searched length's winning group itself (the pivot
// walk, over member windows read from the global dataset, at every layout),
// replays the k-NN heap against the member distances its shards report, and
// answers seasonal queries from the grouping. Each shard is a LocalShard
// that indexes the grouping restricted to its series and runs the
// representative scans, the k-NN verification phase (LocalShard.VerifyK,
// at every layout, the one-shard layout included) and range search. Both
// member walks evaluate their rounds through evalRound. An unsharded base
// is the one-shard layout of the same engine: its one shard indexes the
// global grouping itself.
//
// # One request, two entry points
//
// A query is a Request — the family (match/k-NN, range, seasonal) and the
// clauses it reads, as plain data — and Scatter answers it through Exec, or
// many of any mix through ExecBatch; a Result carries the family's slice or
// the request's own error. There is no other form: cancellation and the
// deadline arrive on the context, and so does the trace
// (obs.ContextWithTrace, which the remote transports read too), so every
// family has all three. The decisions that used to be repeated per form
// live here once: k ≤ 1 runs the best-match search (Exec), and a batch
// splits the worker budget across and within its requests (ExecBatch).
//
// # Parallel execution
//
// The worker count given to NewScatter — the engine's one query setting —
// shards a single query across a bounded worker pool: the
// representative scan of each length fans out with a shared atomic
// best-so-far bound (early abandoning keeps pruning across workers), group
// mining and k-NN verification evaluate rounds of members concurrently (one
// member at a time against the tightening bound at one worker or in a group
// under two rounds: roundSize), and range search shards across groups.
// Shard requests carry their own worker budget (the Workers field), so a
// shard's fan-out follows its coordinator; a shard has no worker count of
// its own.
//
// Scatter and LocalShard are safe for any number of concurrent calls. Race
// freedom is by construction: the indexes are immutable, and every
// dist.Workspace a call uses is drawn from its owner's pool with
// single-goroutine ownership (each query goroutine, and each worker it fans
// out to, gets its own workspace and returns it before the call completes;
// workspaces never escape a call and are never shared between two live
// goroutines).
//
// The parallel paths are constructed to be *answer-invariant*: every
// pruning or patience decision is replayed against deterministic bounds,
// concurrency only decides which DTWs are computed exactly versus proven
// irrelevant, so every request returns identical results for every worker
// count and every shard layout. Workers change
// only wall-clock and the work-accounting side of Trace: DTWComputed and
// PrunedByKim depend on bound-tightening timing (a candidate proven
// hopeless is counted under whichever check happened to kill it), while
// the decision-level counters — RepsExamined, MembersTested,
// LengthsVisited — are identical at every setting.
//
// Exact ties between representatives (bit-equal DTW to the query, possible
// only with duplicated windows) resolve to the smallest global group id at
// every layout and worker count.
package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/parallel"
)

// MatchMode selects the Q1 MATCH clause.
type MatchMode int

const (
	// MatchExact searches only subsequences of the query's own length.
	MatchExact MatchMode = iota
	// MatchAny searches subsequences of every indexed length.
	MatchAny
)

// patience bounds the in-group pivot walk, the paper's "expand from the
// pivot until we find the best match" (Sec. 5.3): mining stops after this
// many consecutive non-improving members. An exhaustive walk over the large
// groups of a loose threshold degenerates toward a linear scan, inverting
// the paper's time-vs-ST trend.
const patience = 32

// Match is a similarity-query answer: the best-matching subsequence found.
type Match struct {
	// SeriesID, Start, Length locate the matched subsequence (Xp)^i_j.
	SeriesID, Start, Length int
	// Dist is the normalized DTW (Def. 6) between query and match — the
	// value the paper's accuracy metric compares.
	Dist float64
	// RawDTW is the unnormalized Def. 3 distance.
	RawDTW float64
	// GroupID identifies the ONEX group the match came from.
	GroupID int
}

// Found reports whether the match is populated (a search over an empty
// length set yields a zero Match with Found()==false).
func (m Match) Found() bool { return m.Length > 0 }

// Trace counts the work a query performed. The coordinator folds it into
// the lifetime Counters (/v1/stats) and the request's obs trace totals and
// span attributes (explain); the benchmark's per-layer query counts read
// those. The JSON tags are the shard-transport wire shape (per-call work
// folds back into the coordinator's trace).
type Trace struct {
	RepsExamined   int `json:"repsExamined"`   // representatives considered
	PrunedByKim    int `json:"prunedByKim"`    // skipped after LB_Kim
	DTWComputed    int `json:"dtwComputed"`    // full or early-abandoned DTW evaluations
	MembersTested  int `json:"membersTested"`  // group members verified with DTW
	LengthsVisited int `json:"lengthsVisited"` // lengths visited in Match=Any mode
}

func validateQuery(q []float64) error {
	if len(q) == 0 {
		return errors.New("query: empty query sequence")
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("query: non-finite value %v at index %d", v, i)
		}
	}
	return nil
}

// lengthOrder yields indexed lengths in the paper's search order: the
// query's own length first (if indexed), then strictly smaller lengths in
// decreasing order, then larger lengths in increasing order.
func (s *Scatter) lengthOrder(queryLen int) []int {
	ls := s.grouped.Lengths // ascending
	out := make([]int, 0, len(ls))
	if s.grouped.ByLength[queryLen] != nil {
		out = append(out, queryLen)
	}
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i] < queryLen {
			out = append(out, ls[i])
		}
	}
	for _, l := range ls {
		if l > queryLen {
			out = append(out, l)
		}
	}
	return out
}

// Parallel-path thresholds. scanParallelMin is the fewest representatives
// worth fanning a scan out for; mineBatchSize is the round size of the
// member walks (pivot walk and k-NN verification) whenever a round's DTWs
// run concurrently. mineBatchSize is a fixed constant —
// never derived from the worker count — because the round boundaries define
// which best-so-far snapshot each DTW cutoff uses, and those snapshots are
// part of the (worker-count-invariant) decision replay.
const (
	scanParallelMin = 16
	mineBatchSize   = 32
)

// roundSize is the round rule of both member walks — the pivot-walk replay
// (Scatter.mineGroup) and k-NN verification (LocalShard.VerifyK) — over a
// group of n members: one member at a time, against the bound as it
// tightens, when a round has no concurrency to buy (one worker, or fewer
// than two rounds of members), which saves the DTWs a snapshot bound lets
// run to completion; rounds of mineBatchSize against a snapshot otherwise.
func roundSize(workers, n int) int {
	if workers <= 1 || n < 2*mineBatchSize {
		return 1
	}
	return mineBatchSize
}

// evalMember evaluates one candidate window against a bound: LB_Kim, then
// the early-abandoning DTW — +Inf, without running, when the lower bound
// already proves the candidate cannot beat the bound (the replay never
// reads the distance in that case). ran reports whether a DTW ran (Trace
// accounting). Every caller accepts a distance only strictly below the
// bound, where the kernel is exact.
func evalMember(ws *dist.Workspace, q, v []float64, bound float64) (lb, d float64, ran bool) {
	if lb = dist.LBKim(q, v); lb >= bound {
		return lb, math.Inf(1), false
	}
	return lb, ws.DTWEarlyAbandon(q, v, bound), true
}

// scanRep is the representative test of every scan: LB_Kim, then the
// early-abandoning DTW of q against representative rep, pruning strictly: a
// representative whose lower bound exceeds cutoff (>) is dropped, so one
// whose bound equals it is still computed. Both stages run against
// math.Nextafter(cutoff, +Inf): for a finite lb, lb ≥ next(cutoff) holds
// exactly when lb > cutoff, and the kernel is exact at or below its cutoff.
// It returns the raw DTW — exact whenever finite — or +Inf when LB_Kim
// pruned it or the kernel abandoned, ticking tr for the examined
// representative and for whichever stage resolved it.
func scanRep(ws *dist.Workspace, q, rep []float64, cutoff float64, tr *Trace) float64 {
	tr.RepsExamined++
	cutoff = math.Nextafter(cutoff, math.Inf(1))
	if dist.LBKim(q, rep) >= cutoff {
		tr.PrunedByKim++
		return math.Inf(1)
	}
	tr.DTWComputed++
	return ws.DTWEarlyAbandon(q, rep, cutoff)
}

// evalRound evaluates one round of candidate windows against a bound
// snapshot into lbs and ds (evalMember per window), returning how many DTWs
// ran. A one-window or one-worker round runs inline on the caller's ws; a
// larger one strides across up to workers goroutines, each owning one
// workspace from pool for the whole round.
func evalRound(pool *parallel.WorkspacePool, workers int, ws *dist.Workspace, q []float64,
	windows [][]float64, bound float64, lbs, ds []float64) int {

	n := len(windows)
	workers = min(workers, n)
	if workers <= 1 {
		dtws := 0
		for i, v := range windows {
			var ran bool
			if lbs[i], ds[i], ran = evalMember(ws, q, v, bound); ran {
				dtws++
			}
		}
		return dtws
	}
	var dtws atomic.Int64
	parallel.ForEach(workers, workers, func(w int) {
		lws := pool.Get()
		defer pool.Put(lws)
		ran := 0
		for i := w; i < n; i += workers {
			var ok bool
			if lbs[i], ds[i], ok = evalMember(lws, q, windows[i], bound); ok {
				ran++
			}
		}
		dtws.Add(int64(ran))
	})
	return int(dtws.Load())
}

// strided is the one worker loop of the three representative scans
// (Scan's two forms and range search's groups): worker w of workers
// visits units w, w+workers, … of n on its own workspace from pool and its
// own Trace, and polls ctx every rangePollEvery of its units, stopping at
// the first canceled poll (the caller then answers ctx's error). The worker
// traces fold into tr. One worker runs on the calling goroutine, and the
// callers' rules for a scan too small to fan out only set workers to 1.
func strided(ctx context.Context, pool *parallel.WorkspacePool, workers, n int, tr *Trace,
	visit func(ws *dist.Workspace, i int, tr *Trace)) {

	if workers = min(workers, n); workers <= 1 {
		walk(ctx, pool, 0, 1, n, tr, visit)
		return
	}
	traces := make([]Trace, workers)
	parallel.ForEach(workers, workers, func(w int) { walk(ctx, pool, w, workers, n, &traces[w], visit) })
	for _, t := range traces {
		tr.add(t)
	}
}

// walk is worker w's share of strided. It is a function, not a closure in
// strided, so that a one-worker scan allocates nothing for it.
func walk(ctx context.Context, pool *parallel.WorkspacePool, w, workers, n int, tr *Trace,
	visit func(ws *dist.Workspace, i int, tr *Trace)) {

	ws := pool.Get()
	defer pool.Put(ws)
	for k, i := 0, w; i < n; k, i = k+1, i+workers {
		if k%rangePollEvery == 0 && ctx.Err() != nil {
			return
		}
		visit(ws, i, tr)
	}
}

// pivotWalk yields LSI member indices in the Sec. 5.3 pivot order: starting
// from the member whose ED-to-rep is closest to pivot (the rep's DTW to the
// query), expanding alternately toward smaller and larger EDs. Next returns
// -1 once the group is exhausted.
type pivotWalk struct {
	members []grouping.Member
	pivot   float64
	left    int
	right   int
}

func newPivotWalk(members []grouping.Member, pivot float64) *pivotWalk {
	// First member with EDToRep ≥ pivot (binary search, LSI is sorted).
	lo, hi := 0, len(members)
	for lo < hi {
		mid := (lo + hi) / 2
		if members[mid].EDToRep < pivot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &pivotWalk{members: members, pivot: pivot, left: lo - 1, right: lo}
}

func (w *pivotWalk) next() int {
	var idx int
	switch {
	case w.left < 0 && w.right >= len(w.members):
		return -1
	case w.left < 0:
		idx, w.right = w.right, w.right+1
	case w.right >= len(w.members):
		idx, w.left = w.left, w.left-1
	case w.pivot-w.members[w.left].EDToRep <= w.members[w.right].EDToRep-w.pivot:
		idx, w.left = w.left, w.left-1
	default:
		idx, w.right = w.right, w.right+1
	}
	return idx
}
