package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/obs"
	"onex/internal/parallel"
	"onex/internal/ts"
)

// Scatter is the query coordinator of the engine (internal/shard): the
// dataset's series are hash-partitioned across shards, each shard holds the
// restriction of ONE deterministic global grouping to its series (same
// representatives, same member ED order) with its own GTI/LSI index layers,
// and Scatter runs the Algorithm 2 decision procedure over them, holding the
// global dataset and grouping itself. An unsharded base is the one-shard
// layout: a single in-process shard whose index is built over the global
// grouping's own groups.
//
// Every shard interaction crosses the ShardTransport seam, so the same
// coordinator drives in-process shards (LocalShard) and remote worker
// processes (internal/shardrpc.Client) interchangeably. The split of work:
//
//   - the representative scan of a length fans one Scan call per shard
//     (each global group is scanned by exactly one shard — the one holding
//     its nearest member) and merges the per-shard results by smallest
//     distance, then smallest global group id;
//   - best-match group mining replays the global pivot walk here, once per
//     searched length, reading the member windows from the coordinator's
//     own dataset (it holds every series): one member at a time against
//     the tightening bound, or rounds of 32 across the worker pool when a
//     round has concurrency to buy (roundSize);
//   - k-NN member verification runs in phases, one VerifyK call per shard
//     each, at every layout — one per length once the heap is full, at most
//     two at the length that fills it (see searchLengthK): each shard walks
//     its own members of the candidate groups from the heap's distances,
//     and the heap bookkeeping is replayed here over the distances they
//     report (see verifyPhaseK);
//   - range search runs verbatim on every shard — its admission (Lemma 2
//     premise per member) and per-member verification decisions depend only
//     on the shared global representatives, so the union of shard result
//     sets is layout-invariant — and concatenates in shard order;
//   - seasonal queries read the global grouping directly (the coordinator
//     holds it in full).
//
// Answers are therefore identical at every shard count, transport and
// worker count. When two representatives tie on the exact DTW to the query
// (bit-equal distances — impossible on continuous data, possible with
// duplicated windows) the smaller global group id wins, everywhere.
type Scatter struct {
	// data is the global dataset: the pivot walk and the k-NN replay read
	// member windows from it.
	data *ts.Dataset
	// grouped is the global grouping: per length the complete global group
	// vector, which mining, the k-NN replay and seasonal queries read.
	grouped *grouping.Result
	// workers is the resolved worker fan-out (always ≥ 1); every shard
	// request carries it.
	workers int
	// pool recycles DTW scratch across the coordinator's queries and the
	// workers of one query.
	pool *parallel.WorkspacePool
	// counters is the lifetime work tally, shared (by pointer) with every
	// worker-budget view derived from this coordinator (withWorkers).
	counters   *Counters
	transports []ShardTransport
	// infos caches each transport's layout slice (validated at assembly).
	infos []ShardInfo
	// route maps global series id → transports index (the member's home);
	// the ids are dense, 0 … N−1.
	route []int
}

// NewScatter assembles the executor over the shard transports. data is the
// full dataset and grouped its global grouping, holding per indexed length
// the complete global group vector (Groups[k].ID == k); the transports must
// partition the series and cover every global group's scan exactly once
// (Info().Owned). parallelism bounds the worker fan-out of a single query
// and of a batch, and every shard request carries it: ≤ 0 selects
// runtime.GOMAXPROCS(0), 1 forces the sequential path, and values above
// NumCPU merely oversubscribe. Answers are identical for every setting —
// see the package documentation.
func NewScatter(data *ts.Dataset, grouped *grouping.Result, parallelism int,
	transports []ShardTransport) (*Scatter, error) {

	if data == nil || grouped == nil {
		return nil, errors.New("query: nil dataset or grouping")
	}
	s := &Scatter{
		data:       data,
		grouped:    grouped,
		workers:    parallel.Resolve(parallelism),
		pool:       &parallel.WorkspacePool{},
		counters:   &Counters{},
		transports: transports,
		infos:      make([]ShardInfo, len(transports)),
		route:      make([]int, data.N()),
	}
	for sid := range s.route {
		s.route[sid] = -1
	}
	held := 0
	for i, t := range transports {
		s.infos[i] = t.Info()
		for _, sid := range s.infos[i].Series {
			if sid < 0 || sid >= len(s.route) {
				return nil, fmt.Errorf("query: shard %d holds series %d outside %d series",
					s.infos[i].Shard, sid, len(s.route))
			}
			if prev := s.route[sid]; prev >= 0 {
				return nil, fmt.Errorf("query: series %d held by shards %d and %d",
					sid, s.infos[prev].Shard, s.infos[i].Shard)
			}
			s.route[sid] = i
			held++
		}
	}
	if held != len(s.route) {
		return nil, fmt.Errorf("query: shards hold %d of %d series", held, len(s.route))
	}
	for _, l := range grouped.Lengths {
		e := grouped.ByLength[l]
		if e == nil {
			return nil, fmt.Errorf("query: scatter length %d has no global entry", l)
		}
		counts := make([]int, len(e.Groups))
		for i := range transports {
			for _, gid := range s.infos[i].Owned[l] {
				if gid < 0 || gid >= len(counts) {
					return nil, fmt.Errorf("query: length %d: owned group %d outside %d global groups",
						l, gid, len(counts))
				}
				counts[gid]++
			}
		}
		for k, c := range counts {
			if c != 1 {
				return nil, fmt.Errorf("query: length %d: global group %d owned %s", l,
					k, map[bool]string{true: "more than once", false: "by no shard"}[c > 1])
			}
		}
	}
	return s, nil
}

// withWorkers returns a view of s whose executor fan-out is bounded to w
// (ExecBatch parallelizes across requests instead of within them). The
// view shares s's pool and counters.
func (s *Scatter) withWorkers(w int) *Scatter {
	if s.workers == w {
		return s
	}
	cp := *s
	cp.workers = w
	return &cp
}

// fanShards runs one call per transport — concurrently past one shard,
// inline for a single shard — and gathers the responses in transport order.
// With a non-nil rec every shard call is recorded as its own span (obs.Trace
// is safe for concurrent span starts), annotated by the caller; the spans
// are what makes `explain` show where a distributed query spent its time.
// The first shard error aborts the query (transport errors are already
// retried below this seam; see internal/shardrpc).
func fanShards[R any](ctx context.Context, s *Scatter, rec *obs.Trace, span string,
	call func(context.Context, ShardTransport) (R, error),
	annotate func(sc obs.SpanScope, r R) obs.SpanScope) ([]R, error) {

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]R, len(s.transports))
	errs := make([]error, len(s.transports))
	one := func(i int) {
		var sc obs.SpanScope
		if rec != nil {
			sc = rec.StartSpan(span)
		}
		r, err := call(ctx, s.transports[i])
		out[i], errs[i] = r, err
		if rec != nil {
			annotate(sc.Attr("shard", int64(s.infos[i].Shard)), r).End()
		}
	}
	if len(s.transports) == 1 {
		one(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(s.transports))
		for i := range s.transports {
			go func(i int) { defer wg.Done(); one(i) }(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refine is one best-match query's member-evaluation state: the DTW
// scratch and the round buffers of the pivot-walk replay, fixed arrays so a
// round allocates nothing.
type refine struct {
	ws      *dist.Workspace
	members [mineBatchSize]grouping.Member
	windows [mineBatchSize][]float64
	lbs, ds [mineBatchSize]float64
}

// bestMatch answers query class I (Q1): the subsequence most similar to q
// under DTW. With MatchExact only subsequences of len(q) are considered and
// an error is returned if that length is not indexed; with MatchAny every
// indexed length is searched in the Sec. 5.3 order. A non-nil rec gets
// per-shard scan spans, per-length refine spans and the query's work totals.
func (s *Scatter) bestMatch(ctx context.Context, q []float64, mode MatchMode, rec *obs.Trace) (Match, error) {
	var tr Trace
	defer func() { s.counters.fold(tr); observe(rec, tr) }()
	if err := validateQuery(q); err != nil {
		return Match{}, err
	}
	rf := &refine{ws: s.pool.Get()}
	defer s.pool.Put(rf.ws)

	lengths, err := s.searchLengths(mode, len(q))
	if err != nil {
		return Match{}, err
	}
	best := Match{Dist: math.Inf(1)}
	for _, l := range lengths {
		if err := ctx.Err(); err != nil {
			return Match{}, err
		}
		if mode == MatchAny {
			tr.LengthsVisited++
		}
		repNorm, err := s.searchLength(ctx, q, s.grouped.ByLength[l], rf, &best, &tr, rec)
		if err != nil {
			return Match{}, err
		}
		// Sec. 5.3 stop rule, on the globally best representative: one
		// within ST/2 guarantees (Lemma 2) its group's members are
		// within ST of the query.
		if repNorm <= s.grouped.ST/2 {
			break
		}
	}
	if !best.Found() {
		return Match{}, fmt.Errorf("query: no candidate found")
	}
	return best, nil
}

// searchLengths resolves the MATCH clause for a query of n points into the
// lengths to search, in order: n alone under MatchExact (an error when it is
// not indexed), every indexed length in the Sec. 5.3 order under MatchAny.
func (s *Scatter) searchLengths(mode MatchMode, n int) ([]int, error) {
	switch mode {
	case MatchExact:
		if s.grouped.ByLength[n] == nil {
			return nil, fmt.Errorf("query: length %d not indexed", n)
		}
		return []int{n}, nil
	case MatchAny:
		lengths := s.lengthOrder(n)
		if len(lengths) == 0 {
			return nil, fmt.Errorf("query: base has no indexed lengths")
		}
		return lengths, nil
	default:
		return nil, fmt.Errorf("query: unknown match mode %d", mode)
	}
}

// searchLength finds the best-matching representative of one length (the
// compareRep step of Algorithm 2.A) by scattering a Scan{K: 1} across the
// shards, then mines the winning global group's member list (getKSim),
// updating best in place. It returns the normalized DTW of the chosen
// representative (+Inf if the entry is empty) for the early-stop rule. Work
// accumulates into the caller-owned tr (folded once per query).
//
// The scan's cutoff is +Inf: Q1 needs the exact argmin representative (it
// seeds the pivot walk and the Sec. 5.3 early-stop rule), so an external
// bound could prune the very representative the search is after. Each shard
// still early-abandons against its own tightening bound, and the (distance,
// global id) merge is the tie rule.
func (s *Scatter) searchLength(ctx context.Context, q []float64, e *grouping.LengthGroups,
	rf *refine, best *Match, tr *Trace, rec *obs.Trace) (float64, error) {

	if e == nil || len(e.Groups) == 0 {
		return math.Inf(1), nil
	}
	divisor := dist.NormalizedDTWDivisor(len(q), e.Length)
	hits, _, err := s.scan(ctx, q, e.Length, 1, math.Inf(1), tr, rec)
	if err != nil || len(hits) == 0 {
		return math.Inf(1), err
	}
	bestID, bestRaw := hits[0].GroupID, hits[0].Dist
	var sc obs.SpanScope
	var pre Trace
	if rec != nil {
		pre = *tr
		sc = rec.StartSpan("refine")
	}
	err = s.mineGroup(ctx, q, e, bestID, bestRaw/divisor, rf, best, tr)
	if rec != nil {
		spanWork(sc.Attr("length", int64(e.Length)).Attr("group", int64(bestID)), pre, *tr).End()
	}
	if err != nil {
		return 0, err
	}
	return bestRaw / divisor, nil
}

// scan fans one Scan per shard — k and the raw cutoff as in ScanRequest —
// and merges the hits in (distance, global id) order, folding the shards'
// work into tr. For k > 0 it keeps the first k: the global top k, since
// each shard's top k holds its share of them; complete reports that every
// shard returned fewer than k and the merge dropped none, so no
// representative at or below the cutoff is missing.
func (s *Scatter) scan(ctx context.Context, q []float64, length, k int, cutoff float64,
	tr *Trace, rec *obs.Trace) (hits []ScanHit, complete bool, err error) {

	req := ScanRequest{Length: length, Query: q, K: k, CutoffBits: math.Float64bits(cutoff), Workers: s.workers}
	resps, err := fanShards(ctx, s, rec, "shard-scan",
		func(ctx context.Context, t ShardTransport) (ScanResponse, error) {
			return t.Scan(ctx, req)
		},
		func(sc obs.SpanScope, r ScanResponse) obs.SpanScope {
			return spanWork(sc.Attr("length", int64(length)), Trace{}, r.Trace)
		})
	if err != nil {
		return nil, false, err
	}
	complete = true
	for _, resp := range resps {
		tr.add(resp.Trace)
		complete = complete && len(resp.Hits) < k
		if len(resps) == 1 {
			hits = resp.Hits // the one shard's answer is ours to sort
		} else {
			hits = append(hits, resp.Hits...)
		}
	}
	slices.SortFunc(hits, cmpHits)
	if k > 0 && len(hits) > k {
		hits, complete = hits[:k], false
	}
	return hits, complete, nil
}

// mineGroup verifies members of global group k against the query in pivot
// order: the LSI array is sorted by ED-to-rep, and the paper starts from the
// member whose ED is closest to DTW(query, rep), expanding alternately to
// smaller and larger EDs, until patience consecutive members fail to
// improve. LB_Kim (O(1), admissible for any warping path) skips the bulk of
// hopeless members once a good best-so-far exists; the rest run
// early-abandoning DTW.
//
// The walk runs in rounds of roundSize members, read from the
// coordinator's dataset on every layout: a round's members are evaluated
// (evalRound) against the best-so-far snapshot taken at the round
// boundary, then the improvement/patience bookkeeping is replayed in walk
// order. A member whose DTW was abandoned at the round bound is provably
// non-improving at its replay position (the running best only tightens
// within a round), so the replay reaches exactly the decisions of the
// one-member round — same match, same patience cut — for ANY round size
// and batch partition; the worker count changes only which DTWs run to
// completion. ctx is polled every mineBatchSize members.
func (s *Scatter) mineGroup(ctx context.Context, q []float64, e *grouping.LengthGroups,
	k int, repNormDTW float64, rf *refine, best *Match, tr *Trace) error {

	g := e.Groups[k]
	divisor := dist.NormalizedDTWDivisor(len(q), e.Length)
	walk := newPivotWalk(g.Members, repNormDTW)
	bestRaw := best.Dist * divisor // +Inf-safe: Inf*x = Inf
	round := roundSize(s.workers, g.Count())
	series := s.data.Series

	sinceImprove, walked := 0, 0
	for sinceImprove < patience {
		if walked%mineBatchSize == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Collect the next round of members in walk order.
		n := 0
		for ; n < round; n++ {
			idx := walk.next()
			if idx < 0 {
				break
			}
			m := g.Members[idx]
			rf.members[n] = m
			rf.windows[n] = series[m.SeriesIdx].Values[m.Start : m.Start+e.Length]
		}
		if n == 0 {
			return nil
		}
		walked += n
		tr.DTWComputed += evalRound(s.pool, s.workers, rf.ws, q, rf.windows[:n], bestRaw, rf.lbs[:n], rf.ds[:n])
		// Replay the bookkeeping sequentially in walk order.
		for i, m := range rf.members[:n] {
			if sinceImprove >= patience {
				return nil
			}
			tr.MembersTested++
			if rf.lbs[i] >= bestRaw {
				sinceImprove++
				continue
			}
			if d := rf.ds[i]; d < bestRaw {
				sinceImprove = 0
				bestRaw = d
				*best = Match{
					SeriesID: m.SeriesIdx,
					Start:    m.Start,
					Length:   e.Length,
					Dist:     d / divisor,
					RawDTW:   d,
					GroupID:  k,
				}
			} else {
				sinceImprove++
			}
		}
	}
	return nil
}

// bestKMatches answers the k-nearest-neighbour extension of query class I:
// the k subsequences most similar to q under normalized DTW, ordered best
// first. The paper's processor returns the single best match (k=1); k-NN is
// the natural generalization its range/NN-search related work discusses
// (Sec. 7) and falls out of the same group exploration, with the k-th best
// distance replacing the best-so-far as the pruning/early-abandon cutoff.
// Results can span multiple groups. The scan cutoff is fixed per length (and
// travels in the request as the bound hint), so the candidate set is
// identical at every worker count and shard layout.
func (s *Scatter) bestKMatches(ctx context.Context, q []float64, mode MatchMode, k int, rec *obs.Trace) ([]Match, error) {
	var tr Trace
	defer func() { s.counters.fold(tr); observe(rec, tr) }()
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	heap := newTopK(k)
	lengths, err := s.searchLengths(mode, len(q))
	if err != nil {
		return nil, err
	}
	for _, l := range lengths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if mode == MatchAny {
			tr.LengthsVisited++
		}
		if err := s.searchLengthK(ctx, q, s.grouped.ByLength[l], heap, &tr, rec); err != nil {
			return nil, err
		}
	}
	out := heap.sorted()
	if len(out) == 0 {
		return nil, fmt.Errorf("query: no candidates found")
	}
	return out, nil
}

// searchLengthK mines every group of one length whose representative the
// k-NN walk reaches. Unlike the 1-NN path it cannot stop at the single best
// representative: a group whose rep is slightly farther can still hold top-k
// members, so groups are visited in increasing rep-DTW order (ties by global
// id) until the rep's own DTW exceeds the k-th distance plus the group
// radius (in raw units) — a heuristic cut mirroring the paper's ST/2-based
// guarantee. The shards walk the members of the visited groups, at every
// layout, in verification phases (verifyPhaseK).
//
// With a full heap one Scan{K: 0} at the cut as it stands collects the
// candidates: the cut only falls during the walk, so a representative past
// it is one the walk would never reach, and no heap pushes happen during the
// scan, so fanning it across shards and workers changes neither answers nor
// counters. Until the heap is full the cut is +Inf, and a scan at it would
// run every representative's DTW to its last cell; so the walk first
// verifies the k nearest representatives, Scan{K: k} at +Inf, which are its
// first k groups in order — the heap is not full before them, so the plain
// walk visits them all unless its cut falls inside them. It ends there if it
// does; otherwise the heap is full (every visited member is pushed while the
// cut is +Inf), and one Scan{K: 0} at the cut that the first phase left
// collects the rest, the first k groups dropped: they are exactly its
// prefix up to the k-th in (distance, id) order.
func (s *Scatter) searchLengthK(ctx context.Context, q []float64, e *grouping.LengthGroups,
	heap *topK, tr *Trace, rec *obs.Trace) error {

	if e == nil || len(e.Groups) == 0 {
		return nil
	}
	divisor := dist.NormalizedDTWDivisor(len(q), e.Length)
	radiusRaw := float64(s.grouped.ST / 2 * math.Sqrt(float64(e.Length))) // group radius in raw-ED units
	var first []ScanHit
	if math.IsInf(heap.kth(), 1) {
		top, complete, err := s.scan(ctx, q, e.Length, heap.k, math.Inf(1), tr, rec)
		if err != nil {
			return err
		}
		groups, err := s.verifyPhaseK(ctx, q, e, top, divisor, radiusRaw, heap, tr, rec)
		if err != nil || complete || groups < len(top) {
			return err
		}
		first = top
	}
	reps, _, err := s.scan(ctx, q, e.Length, 0, float64(heap.kth()*divisor)+radiusRaw, tr, rec)
	if err != nil {
		return err
	}
	if len(first) > 0 {
		last := first[len(first)-1]
		reps = reps[sort.Search(len(reps), func(i int) bool { return hitLess(last, reps[i]) }):]
	}
	_, err = s.verifyPhaseK(ctx, q, e, reps, divisor, radiusRaw, heap, tr, rec)
	return err
}

// verifyPhaseK is one k-NN member-verification phase across the seam: one
// VerifyK call per shard — inline for one shard, concurrent past one — each
// walking its own members of the candidate groups from the heap's distances
// (Seeds), then the plain k-NN walk replayed over the distances they
// report. The plain walk visits the candidate groups in order until a
// representative's distance exceeds the real cut kth·divisor + radius, and
// walks each group's members in ED order, pushing a member iff its LB_Kim
// and its DTW are both below kth·divisor, kth being the heap's k-th distance
// at that moment. The replay re-checks the real cut before each group and
// pushes a group's reported members in the global ED order (each shard
// reports its members of a group in that order, so walking the global member
// list and consuming each home shard's next hit interleaves them exactly);
// what the shards reported past the real cut is dropped. A member no shard
// reported is one the plain walk would not push (see LocalShard.VerifyK), so
// the heap passes through the plain walk's states: answers, ties included,
// are the same at every layout. It returns how many groups the real cut
// admitted; MembersTested counts their sizes. A phase with candidates is
// one "refine" span.
func (s *Scatter) verifyPhaseK(ctx context.Context, q []float64, e *grouping.LengthGroups,
	reps []ScanHit, divisor, radiusRaw float64, heap *topK, tr *Trace, rec *obs.Trace) (groups int, err error) {

	if len(reps) == 0 {
		return 0, nil
	}
	if rec != nil {
		pre, sc := *tr, rec.StartSpan("refine")
		defer func() { spanWork(sc.Attr("length", int64(e.Length)).Attr("groups", int64(groups)), pre, *tr).End() }()
	}
	seeds := make([]float64, len(heap.matches))
	for i, m := range heap.matches {
		seeds[i] = float64(m.Dist * divisor)
	}
	req := VerifyKRequest{
		Length:     e.Length,
		Query:      q,
		K:          heap.k,
		CutoffBits: math.Float64bits(heap.kth() * divisor),
		RadiusRaw:  radiusRaw,
		Workers:    s.workers,
		Candidates: reps,
		Seeds:      seeds,
	}
	resps, err := fanShards(ctx, s, rec, "shard-verify",
		func(ctx context.Context, t ShardTransport) (VerifyKResponse, error) {
			return t.VerifyK(ctx, req)
		},
		func(sc obs.SpanScope, r VerifyKResponse) obs.SpanScope {
			return spanWork(sc.Attr("length", int64(e.Length)).Attr("hits", int64(len(r.Hits))),
				Trace{}, Trace{PrunedByKim: r.PrunedByKim, DTWComputed: r.DTWComputed})
		})
	if err != nil {
		return 0, err
	}
	for _, resp := range resps {
		tr.PrunedByKim += resp.PrunedByKim
		tr.DTWComputed += resp.DTWComputed
	}
	next := make([]int, len(resps)) // per shard: its first unconsumed hit
	for _, rd := range reps {
		if rd.Dist > float64(heap.kth()*divisor)+radiusRaw {
			break
		}
		groups++
		g := e.Groups[rd.GroupID]
		tr.MembersTested += g.Count()
		for _, m := range g.Members {
			ti := s.route[m.SeriesIdx]
			hits := resps[ti].Hits
			if next[ti] == len(hits) {
				continue
			}
			h := hits[next[ti]]
			if h.GroupID != rd.GroupID || h.Series != m.SeriesIdx || h.Start != m.Start {
				continue
			}
			next[ti]++
			// The plain walk's two tests, verbatim (LB_Kim is O(1); the
			// coordinator holds every series).
			cutoff := heap.kth() * divisor
			if dist.LBKim(q, s.data.Series[m.SeriesIdx].Values[m.Start:m.Start+e.Length]) >= cutoff {
				continue
			}
			if d := math.Float64frombits(h.DistBits); d < cutoff {
				heap.push(Match{
					SeriesID: m.SeriesIdx,
					Start:    m.Start,
					Length:   e.Length,
					Dist:     d / divisor,
					RawDTW:   d,
					GroupID:  rd.GroupID,
				})
			}
		}
	}
	// Past the real cut a shard may have walked on: its leftover hits start
	// in a candidate the replay did not visit. A leftover anywhere else was
	// never a member of a visited group in ED order — not a walk's answer.
	for ti, resp := range resps {
		if next[ti] == len(resp.Hits) {
			continue
		}
		h := resp.Hits[next[ti]]
		if !slices.ContainsFunc(reps[groups:], func(c ScanHit) bool { return c.GroupID == h.GroupID }) {
			return 0, fmt.Errorf("query: shard %d reported k-NN hit %+v outside its candidate walk", s.infos[ti].Shard, h)
		}
	}
	return groups, nil
}

// rangeSearch answers a range query — every subsequence of the given length
// within radius of q under normalized DTW (see LocalShard.Range for the
// Lemma 2 admission and pruning rules): each shard answers it over its
// restriction and the per-shard result slices concatenate in shard order,
// remapped to global series/group ids. The result SET is layout-invariant
// (admission and verification decide per member against the shared global
// representative); only the slice order differs, and range results are
// unordered. Guaranteed results carry the ST upper bound, not an exact
// distance, unless exact is set: then members admitted through the Lemma 2
// guarantee get their true DTW computed and are filtered against the radius
// like every other member.
//
// The per-shard traces fold into one query trace and into the coordinator's
// counters exactly once (shards keep no tally — the coordinator owns it). With a non-nil rec each shard call gets
// a "shard-range" span. Shards run concurrently: remote shards spend their
// worker budgets on separate hosts.
func (s *Scatter) rangeSearch(ctx context.Context, q []float64, length int, radius float64,
	exact bool, rec *obs.Trace) ([]RangeResult, error) {

	var tr Trace
	defer func() { s.counters.fold(tr); observe(rec, tr) }()
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("query: invalid range radius %v", radius)
	}
	if s.grouped.ByLength[length] == nil {
		return nil, fmt.Errorf("query: length %d not indexed", length)
	}
	req := RangeRequest{
		Length:  length,
		Query:   q,
		Radius:  radius,
		Exact:   exact,
		Workers: s.workers,
	}
	resps, err := fanShards(ctx, s, rec, "shard-range",
		func(ctx context.Context, t ShardTransport) (RangeResponse, error) {
			return t.Range(ctx, req)
		},
		func(sc obs.SpanScope, r RangeResponse) obs.SpanScope {
			return spanWork(sc.Attr("results", int64(len(r.Results))), Trace{}, r.Trace)
		})
	if err != nil {
		return nil, err
	}
	var out []RangeResult
	for _, resp := range resps {
		tr.add(resp.Trace)
		for _, h := range resp.Results {
			out = append(out, RangeResult{
				Match: Match{
					SeriesID: h.Series,
					Start:    h.Start,
					Length:   length,
					Dist:     h.Dist,
					RawDTW:   h.RawDTW,
					GroupID:  h.GroupID,
				},
				Guaranteed: h.Guaranteed,
			})
		}
	}
	return out, nil
}
