// Package query implements the ONEX online query processor (Algorithm 2,
// Sec. 5): similarity queries over the representative space with time-warped
// matching, seasonal-similarity queries, similarity-threshold
// recommendations, and the varying-threshold group adaptation of Sec. 5.2.
//
// The Sec. 5.3 optimizations are implemented, but for one:
//
//   - length ordering for Match=Any: the query's own length first, then
//     decreasing lengths, then increasing;
//   - representative ordering: the scan visits a length's groups in id
//     order — the order Algorithm 1 founded them — not in the paper's
//     median-sum order, which ran more DTWs on the benchmark's scan
//     workload (the groups founded first tend to be the populous ones, so
//     the best-so-far bound tightens early);
//   - the cascading lower-bound chain LB_Kim → LB_Keogh (reordered, early
//     abandoning) → early-abandoning DTW against the best-so-far;
//   - the in-group pivot search: members are visited in order of
//     |ED(member, rep) − DTW(query, rep)| over the ED-sorted LSI array.
//
// # One engine
//
// Scatter is the only coordinator: it walks the lengths, merges the
// representative scans of its shards, and replays the pivot walk and the
// k-NN heap against member distances. A Processor holds the kernels one
// shard runs behind LocalShard (the fixed-cutoff cascade, round evaluation,
// the k-NN verification phase, range search) plus the grouping-only
// families (seasonal, threshold adaptation). An unsharded base is the
// one-shard layout of the same engine.
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
// Options.Parallelism shards a single query across a bounded worker pool:
// the representative scan of each length fans out with a shared atomic
// best-so-far bound (early abandoning keeps pruning across workers), group
// mining and k-NN verification evaluate rounds of members concurrently, and
// range search shards across groups. The parallel paths are constructed to be *answer-invariant*:
// every pruning or patience decision is replayed against deterministic
// bounds, concurrency only decides which DTWs are computed exactly versus
// proven irrelevant, so every request returns identical results for every
// Parallelism value and every shard layout. Workers change
// only wall-clock and the work-accounting side of Trace: DTWComputed,
// PrunedByKim and PrunedByKeogh depend on bound-tightening timing (a
// candidate proven hopeless is counted under whichever check happened to
// kill it), while the decision-level counters — RepsExamined, MembersTested,
// LengthsVisited — are identical at every setting.
//
// Exact ties between representatives (bit-equal DTW to the query, possible
// only with duplicated windows) resolve to the smallest global group id at
// every layout and worker count.
package query

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/parallel"
	"onex/internal/rspace"
)

// MatchMode selects the Q1 MATCH clause.
type MatchMode int

const (
	// MatchExact searches only subsequences of the query's own length.
	MatchExact MatchMode = iota
	// MatchAny searches subsequences of every indexed length.
	MatchAny
)

// Options tunes the processor. The zero value reproduces the paper's
// behaviour.
type Options struct {
	// DisableEarlyStop turns off the Sec. 5.3 stop rule for Match=Any
	// (stop once a representative within ST/2 has been explored) and scans
	// every indexed length instead.
	DisableEarlyStop bool `json:"disableEarlyStop"`
	// CandidateLimit bounds how many members of the selected group are
	// verified with DTW (pivot-ordered). 0 means no fixed limit; the walk
	// is then bounded by Patience alone.
	CandidateLimit int `json:"candidateLimit"`
	// Patience reproduces the paper's bounded pivot walk (Sec. 5.3: expand
	// from the pivot "until we find the best match"): mining stops after
	// this many consecutive non-improving members. 0 selects
	// DefaultPatience; negative values disable the cut (exhaustive group
	// verification). Large groups at loose thresholds make the exhaustive
	// walk degenerate toward a linear scan, inverting the paper's
	// time-vs-ST trend, so the bounded walk is the default.
	Patience int `json:"patience"`
	// DisableLowerBounds turns off the LB_Kim/LB_Keogh cascade (for
	// ablation benchmarks); DTW early abandoning remains.
	DisableLowerBounds bool `json:"disableLowerBounds"`
	// Parallelism bounds the worker fan-out of a single query and of a
	// batch. ≤ 0 selects runtime.GOMAXPROCS(0); 1 forces the sequential
	// path; values above NumCPU are accepted and merely oversubscribe.
	// Answers are identical for every setting — see the
	// package documentation.
	Parallelism int `json:"parallelism"`
}

// DefaultPatience is the non-improving-member budget of the in-group pivot
// walk when Options.Patience is 0.
const DefaultPatience = 32

// Processor holds one base's query kernels: what a shard runs behind
// LocalShard, and the grouping-only families Scatter answers from the
// global grouping.
//
// Concurrency and workspace ownership: a Processor is safe for any number
// of concurrent query calls. Race freedom is by construction — the base is
// immutable, and every dist.Workspace used by a call is drawn from an
// internal sync.Pool with single-goroutine ownership (each query goroutine,
// and each worker a parallel query fans out to, gets its own workspace and
// returns it before the call completes; workspaces never escape a call and
// are never shared between two live goroutines).
type Processor struct {
	base *rspace.Base
	opts Options
	// workers is the resolved Options.Parallelism (always ≥ 1).
	workers int
	// pool recycles DTW scratch across queries and across the workers of
	// one query. See the ownership rule above and on dist.Workspace.
	pool *parallel.WorkspacePool
	// counters is the lifetime work tally, shared (by pointer) with every
	// worker-budget view derived from this processor (innerExec).
	counters *Counters
}

// New builds a processor over a base.
func New(b *rspace.Base, opts Options) (*Processor, error) {
	if b == nil {
		return nil, errors.New("query: nil base")
	}
	if opts.CandidateLimit < 0 {
		return nil, fmt.Errorf("query: negative candidate limit %d", opts.CandidateLimit)
	}
	return &Processor{
		base:     b,
		opts:     opts,
		workers:  parallel.Resolve(opts.Parallelism),
		pool:     &parallel.WorkspacePool{},
		counters: &Counters{},
	}, nil
}

// Base returns the underlying base (read-only).
func (p *Processor) Base() *rspace.Base { return p.base }

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

// Trace counts the work a query performed, for the ablation benchmarks.
// The JSON tags are the shard-transport wire shape (per-call work folds
// back into the coordinator's trace).
type Trace struct {
	RepsExamined   int `json:"repsExamined"`   // representatives considered
	PrunedByKim    int `json:"prunedByKim"`    // skipped after LB_Kim
	PrunedByKeogh  int `json:"prunedByKeogh"`  // skipped after LB_Keogh
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
func (p *Processor) lengthOrder(queryLen int) []int {
	ls := p.base.Lengths // ascending
	out := make([]int, 0, len(ls))
	if p.base.Entry(queryLen) != nil {
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
// run concurrently or on a remote shard. mineBatchSize is a fixed constant —
// never derived from the worker count — because the round boundaries define
// which best-so-far snapshot each DTW cutoff uses, and those snapshots are
// part of the (worker-count-invariant) decision replay.
const (
	scanParallelMin = 16
	mineBatchSize   = 32
)

// evalMember evaluates one candidate window against a bound: LB_Kim (0 when
// lower bounds are disabled), then the early-abandoning DTW — +Inf, without
// running, when the lower bound already proves the candidate cannot beat
// the bound (the replay never reads the distance in that case). ran reports
// whether a DTW ran (Trace accounting).
func (p *Processor) evalMember(ws *dist.Workspace, q, v []float64, bound float64) (lb, d float64, ran bool) {
	if !p.opts.DisableLowerBounds {
		lb = dist.LBKim(q, v)
	}
	if lb >= bound {
		return lb, math.Inf(1), false
	}
	return lb, ws.DTWEarlyAbandon(q, v, dist.Unconstrained, bound), true
}

// evalRound concurrently evaluates one round of candidate windows against a
// bound snapshot into lbs and ds (evalMember per window). Items stride
// across up to p.workers goroutines, each owning one pooled workspace for
// the whole round. The return value is how many DTWs actually ran.
func (p *Processor) evalRound(q []float64, windows [][]float64, bound float64, lbs, ds []float64) int {
	n := len(windows)
	workers := p.workers
	if workers > n {
		workers = n
	}
	var dtws atomic.Int64
	parallel.ForEach(workers, workers, func(w int) {
		lws := p.pool.Get()
		defer p.pool.Put(lws)
		ran := 0
		for i := w; i < n; i += workers {
			var ok bool
			if lbs[i], ds[i], ok = p.evalMember(lws, q, windows[i], bound); ok {
				ran++
			}
		}
		dtws.Add(int64(ran))
	})
	return int(dtws.Load())
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
