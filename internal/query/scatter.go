package query

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/obs"
	"onex/internal/rspace"
)

// Scatter is the query coordinator of the engine (internal/shard): the
// dataset's series are hash-partitioned across shards, each shard holds the
// restriction of ONE deterministic global grouping to its series (same
// representatives, same member ED order) with its own GTI/LSI index layers,
// and Scatter runs the Algorithm 2 decision procedure over them. An
// unsharded base is the one-shard layout: a single in-process shard whose
// base IS the global one.
//
// Every shard interaction crosses the ShardTransport seam, so the same
// coordinator drives in-process shards (LocalShard) and remote worker
// processes (internal/shardrpc.Client) interchangeably. The split of work:
//
//   - the representative scan of a length fans one ScanBest/ScanFixed call
//     per shard (each global group is scanned by exactly one shard — the
//     one holding its nearest member) and merges the per-shard results by
//     smallest distance, then smallest global group id;
//   - best-match group mining replays the global pivot walk here, once, in
//     rounds: 32 members shipped to their home shards (EvalMembers) with
//     the current best-so-far bound threaded in the request — the bound
//     hint that keeps early abandoning effective across the wire — or, when
//     every shard is in-process and there is no concurrency to buy, one
//     member at a time against the tightening bound (see roundFor);
//   - k-NN member verification is one phase per shard and length: each
//     shard walks its own members of the candidate groups (VerifyK) and the
//     heap bookkeeping is replayed here over the distances they report —
//     or, when every shard is in-process and there is one worker, the walk
//     itself runs here, one member at a time (see searchLengthK);
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
	// global answers mining/seasonal bookkeeping against the global
	// grouping; its base carries the global dataset and per-length global
	// group vectors. Only the one-shard layout, whose shard shares it, gives
	// it scan indexes.
	global     *Processor
	transports []ShardTransport
	// infos caches each transport's layout slice (validated at assembly).
	infos []ShardInfo
	// route maps global series id → transports index (the member's home).
	route map[int]int
	// local reports that every shard is in-process, so the coordinator's
	// dataset addresses every member window directly.
	local bool
}

// NewScatter assembles the executor over the shard transports. global must
// hold the full dataset and, per indexed length, the complete global group
// vector (Groups[k].ID == k); the transports must partition the series and
// cover every global group's scan exactly once (Info().Owned).
func NewScatter(global *rspace.Base, opts Options, transports []ShardTransport) (*Scatter, error) {
	gp, err := New(global, opts)
	if err != nil {
		return nil, err
	}
	s := &Scatter{
		global:     gp,
		transports: transports,
		infos:      make([]ShardInfo, len(transports)),
		route:      make(map[int]int, global.Dataset.N()),
		local:      true,
	}
	for i, t := range transports {
		if _, ok := t.(*LocalShard); !ok {
			s.local = false
		}
		s.infos[i] = t.Info()
		for _, sid := range s.infos[i].Series {
			if prev, dup := s.route[sid]; dup {
				return nil, fmt.Errorf("query: series %d held by shards %d and %d",
					sid, s.infos[prev].Shard, s.infos[i].Shard)
			}
			s.route[sid] = i
		}
	}
	if len(s.route) != global.Dataset.N() {
		return nil, fmt.Errorf("query: shards hold %d of %d series", len(s.route), global.Dataset.N())
	}
	for _, l := range global.Lengths {
		e := global.Entry(l)
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
// (ExecBatch parallelizes across requests instead of within them).
func (s *Scatter) withWorkers(w int) *Scatter {
	if s.global.workers == w {
		return s
	}
	cp := *s
	cp.global = s.global.innerExec(w)
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

// refine is one query's member-evaluation state: the round buffers of the
// pivot-walk replay and, when every shard is in-process, the DTW scratch of
// the one-member-at-a-time walks (nil otherwise).
type refine struct {
	ws      *dist.Workspace
	batch   []grouping.Member
	lbs, ds []float64
}

func (s *Scatter) newRefine() *refine {
	rf := &refine{
		batch: make([]grouping.Member, 0, mineBatchSize),
		lbs:   make([]float64, mineBatchSize),
		ds:    make([]float64, mineBatchSize),
	}
	if s.local {
		rf.ws = s.global.pool.Get()
	}
	return rf
}

// roundFor picks the pivot-walk replay's round for a group of n members
// (LocalShard.VerifyK applies the same rule to its own walk). When the
// members are addressable in-process and a round has no concurrency to buy
// — one worker, or a group too small for two rounds — it is one member,
// evaluated here on the returned workspace: the bound then tightens with
// every improvement, which saves the DTWs a round's snapshot bound lets run
// to completion. Otherwise it is mineBatchSize members against a snapshot
// bound, shipped to their home shards (nil workspace). The replay reaches
// the same decisions for any round size (see mineGroup), so the choice
// changes how many DTWs run, never an answer.
func (s *Scatter) roundFor(rf *refine, n int) (int, *dist.Workspace) {
	if rf.ws != nil && (s.global.workers <= 1 || n < 2*mineBatchSize) {
		return 1, rf.ws
	}
	return mineBatchSize, nil
}

// bestMatch answers query class I (Q1): the subsequence most similar to q
// under DTW. With MatchExact only subsequences of len(q) are considered and
// an error is returned if that length is not indexed; with MatchAny every
// indexed length is searched in the Sec. 5.3 order. A non-nil rec gets
// per-shard scan spans, per-length refine spans and the query's work totals.
func (s *Scatter) bestMatch(ctx context.Context, q []float64, mode MatchMode, rec *obs.Trace) (Match, error) {
	var tr Trace
	defer func() { s.global.counters.fold(tr); observe(rec, tr) }()
	if err := validateQuery(q); err != nil {
		return Match{}, err
	}
	rf := s.newRefine()
	defer s.global.pool.Put(rf.ws)

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
		repNorm, err := s.searchLength(ctx, q, s.global.base.Entry(l), rf, &best, &tr, rec)
		if err != nil {
			return Match{}, err
		}
		// Sec. 5.3 stop rule, on the globally best representative: one
		// within ST/2 guarantees (Lemma 2) its group's members are
		// within ST of the query.
		if !s.global.opts.DisableEarlyStop && repNorm <= s.global.base.ST/2 {
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
		if s.global.base.Entry(n) == nil {
			return nil, fmt.Errorf("query: length %d not indexed", n)
		}
		return []int{n}, nil
	case MatchAny:
		lengths := s.global.lengthOrder(n)
		if len(lengths) == 0 {
			return nil, fmt.Errorf("query: base has no indexed lengths")
		}
		return lengths, nil
	default:
		return nil, fmt.Errorf("query: unknown match mode %d", mode)
	}
}

// searchLength finds the best-matching representative of one length (the
// compareRep step of Algorithm 2.A) by scattering the scan across the
// shards, then mines the winning global group's member list (getKSim),
// updating best in place. It returns the normalized DTW of the chosen
// representative (+Inf if the entry is empty) for the early-stop rule. Work
// accumulates into the caller-owned tr (folded once per query).
//
// The scan request pins its bound hint to +Inf: Q1 needs the exact argmin
// representative (it seeds the pivot walk and the Sec. 5.3 early-stop
// rule), so an external bound could prune the very representative the
// search is after. Each shard still early-abandons against its own
// tightening bound, and the (distance, global id) merge is the tie rule.
func (s *Scatter) searchLength(ctx context.Context, q []float64, e *rspace.LengthEntry,
	rf *refine, best *Match, tr *Trace, rec *obs.Trace) (float64, error) {

	if e == nil || len(e.Groups) == 0 {
		return math.Inf(1), nil
	}
	divisor := dist.NormalizedDTWDivisor(len(q), e.Length)
	req := ScanBestRequest{
		Length:  e.Length,
		Query:   q,
		Workers: s.global.workers,
	}
	resps, err := fanShards(ctx, s, rec, "shard-scan",
		func(ctx context.Context, t ShardTransport) (ScanBestResponse, error) {
			return t.ScanBest(ctx, req)
		},
		func(sc obs.SpanScope, r ScanBestResponse) obs.SpanScope {
			return spanWork(sc.Attr("length", int64(e.Length)), Trace{}, r.Trace)
		})
	if err != nil {
		return 0, err
	}
	bestID, bestRaw := -1, math.Inf(1)
	for _, resp := range resps {
		tr.add(resp.Trace)
		if !resp.Found {
			continue
		}
		raw := math.Float64frombits(resp.BestBits)
		if raw < bestRaw || (raw == bestRaw && resp.GroupID < bestID) {
			bestID, bestRaw = resp.GroupID, raw
		}
	}
	if bestID < 0 {
		return math.Inf(1), nil
	}
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

// evalRound evaluates one round of members against a bound snapshot into
// lbs and ds (Processor.evalMember per member), returning how many DTWs
// ran. With a workspace the members are read from the coordinator's dataset
// and evaluated here; without one the round partitions by home shard and
// crosses the transport seam, each shard evaluating its slice against the
// same snapshot (LB_Kim plus early-abandoning DTW depend only on (query,
// member, bound), so neither the partition nor the transport can change a
// bit) and the results scatter back positionally.
func (s *Scatter) evalRound(ctx context.Context, q []float64, length int,
	batch []grouping.Member, bound float64, ws *dist.Workspace, lbs, ds []float64) (int, error) {

	if ws != nil {
		dtws := 0
		for i, m := range batch {
			v := s.global.base.Dataset.Series[m.SeriesIdx].Values[m.Start : m.Start+length]
			var ran bool
			if lbs[i], ds[i], ran = s.global.evalMember(ws, q, v, bound); ran {
				dtws++
			}
		}
		return dtws, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	type part struct {
		transport int
		items     []MemberRef
		pos       []int
		resp      EvalMembersResponse
		err       error
	}
	parts := make([]*part, 0, 2)
	byTransport := make(map[int]*part, 2)
	for i, m := range batch {
		ti, ok := s.route[m.SeriesIdx]
		if !ok {
			return 0, fmt.Errorf("query: member series %d not routed to any shard", m.SeriesIdx)
		}
		p := byTransport[ti]
		if p == nil {
			p = &part{transport: ti}
			byTransport[ti] = p
			parts = append(parts, p)
		}
		p.items = append(p.items, MemberRef{Series: m.SeriesIdx, Start: m.Start})
		p.pos = append(p.pos, i)
	}
	call := func(p *part) {
		p.resp, p.err = s.transports[p.transport].EvalMembers(ctx, EvalMembersRequest{
			Length:    length,
			Query:     q,
			BoundBits: math.Float64bits(bound),
			Workers:   s.global.workers,
			Items:     p.items,
		})
	}
	if len(parts) == 1 {
		call(parts[0])
	} else {
		var wg sync.WaitGroup
		wg.Add(len(parts))
		for _, p := range parts {
			go func(p *part) { defer wg.Done(); call(p) }(p)
		}
		wg.Wait()
	}
	dtws := 0
	for _, p := range parts {
		if p.err != nil {
			return 0, p.err
		}
		if len(p.resp.LbBits) != len(p.items) || len(p.resp.DsBits) != len(p.items) {
			return 0, fmt.Errorf("query: shard %d answered %d/%d of %d member evals",
				s.infos[p.transport].Shard, len(p.resp.LbBits), len(p.resp.DsBits), len(p.items))
		}
		for j, pos := range p.pos {
			lbs[pos] = math.Float64frombits(p.resp.LbBits[j])
			ds[pos] = math.Float64frombits(p.resp.DsBits[j])
		}
		dtws += p.resp.DTWComputed
	}
	return dtws, nil
}

// mineGroup verifies members of global group k against the query in pivot
// order: the LSI array is sorted by ED-to-rep, and the paper starts from the
// member whose ED is closest to DTW(query, rep), expanding alternately to
// smaller and larger EDs, until Patience consecutive members fail to
// improve. LB_Kim (O(1), admissible for any warping path) skips the bulk of
// hopeless members once a good best-so-far exists; the rest run
// early-abandoning DTW.
//
// The walk runs in rounds (roundFor): a round's members are evaluated
// against the best-so-far snapshot taken at the round boundary, then the
// improvement/patience bookkeeping is replayed in walk order. A member
// whose DTW was abandoned at the round bound is provably non-improving at
// its replay position (the running best only tightens within a round), so
// the replay reaches exactly the decisions of the one-member round — same
// match, same patience cut — for ANY round size and batch partition; worker
// count and shard layout change only which DTWs run to completion.
func (s *Scatter) mineGroup(ctx context.Context, q []float64, e *rspace.LengthEntry,
	k int, repNormDTW float64, rf *refine, best *Match, tr *Trace) error {

	if err := ctx.Err(); err != nil {
		return err
	}
	g := e.Groups[k]
	n := g.Count()
	if n == 0 {
		return nil
	}
	divisor := dist.NormalizedDTWDivisor(len(q), e.Length)
	limit := s.global.opts.CandidateLimit
	if limit <= 0 || limit > n {
		limit = n
	}
	patience := s.global.opts.Patience
	if patience == 0 {
		patience = DefaultPatience
	}
	walk := newPivotWalk(g.Members, repNormDTW)
	bestRaw := best.Dist * divisor // +Inf-safe: Inf*x = Inf
	round, ws := s.roundFor(rf, n)

	sinceImprove := 0
	tested := 0
	for tested < limit {
		if patience > 0 && sinceImprove >= patience {
			return nil
		}
		// Collect the next round of members in walk order.
		batch := rf.batch[:0]
		for len(batch) < round && tested+len(batch) < limit {
			idx := walk.next()
			if idx < 0 {
				break
			}
			batch = append(batch, g.Members[idx])
		}
		if len(batch) == 0 {
			return nil
		}
		dtws, err := s.evalRound(ctx, q, e.Length, batch, bestRaw, ws, rf.lbs, rf.ds)
		if err != nil {
			return err
		}
		tr.DTWComputed += dtws
		// Replay the bookkeeping sequentially in walk order.
		for i, m := range batch {
			if patience > 0 && sinceImprove >= patience {
				return nil
			}
			tr.MembersTested++
			tested++
			if !s.global.opts.DisableLowerBounds && rf.lbs[i] >= bestRaw {
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
	defer func() { s.global.counters.fold(tr); observe(rec, tr) }()
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	heap := newTopK(k)
	rf := s.newRefine()
	defer s.global.pool.Put(rf.ws)

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
		if err := s.searchLengthK(ctx, q, s.global.base.Entry(l), heap, rf, &tr, rec); err != nil {
			return nil, err
		}
	}
	out := heap.sorted()
	if len(out) == 0 {
		return nil, fmt.Errorf("query: no candidates found")
	}
	return out, nil
}

// searchLengthK mines every group of one length whose representative
// survives the fixed-cutoff cascade. Unlike the 1-NN path it cannot stop at
// the single best representative: a group whose rep is slightly farther can
// still hold top-k members, so groups are visited in increasing rep-DTW
// order (ties by global id) until the rep's own DTW exceeds the k-th
// distance plus the group radius (in raw units) — a heuristic cut mirroring
// the paper's ST/2-based guarantee. No heap pushes happen during the rep
// scan, so its cutoff is fixed for the whole length and fanning it across
// shards and workers changes neither answers nor counters.
//
// Who walks the members is read off the layout: with every shard in-process
// and one worker there is nothing to overlap, so the reference walk runs
// here against the ever-tightening bound (verifyGroupK); otherwise — remote
// shards, or workers to spend — it crosses the seam as one phase per shard
// (verifyPhaseK). Both produce the same heap states.
func (s *Scatter) searchLengthK(ctx context.Context, q []float64, e *rspace.LengthEntry,
	heap *topK, rf *refine, tr *Trace, rec *obs.Trace) error {

	if e == nil || len(e.Groups) == 0 {
		return nil
	}
	divisor := dist.NormalizedDTWDivisor(len(q), e.Length)
	radiusRaw := s.global.base.ST / 2 * math.Sqrt(float64(e.Length)) // group radius in raw-ED units
	req := ScanFixedRequest{
		Length:     e.Length,
		Query:      q,
		CutoffBits: math.Float64bits(heap.kth()*divisor + radiusRaw),
		Workers:    s.global.workers,
	}
	resps, err := fanShards(ctx, s, rec, "shard-scan",
		func(ctx context.Context, t ShardTransport) (ScanFixedResponse, error) {
			return t.ScanFixed(ctx, req)
		},
		func(sc obs.SpanScope, r ScanFixedResponse) obs.SpanScope {
			return spanWork(sc.Attr("length", int64(e.Length)), Trace{}, r.Trace)
		})
	if err != nil {
		return err
	}
	var reps []FixedHit
	for _, resp := range resps {
		tr.add(resp.Trace)
		reps = append(reps, resp.Hits...)
	}
	// Tie order: ascending global id (each shard's hits already are; the
	// shards partition the ids), then stable by distance.
	sort.Slice(reps, func(a, b int) bool { return reps[a].GroupID < reps[b].GroupID })
	sort.SliceStable(reps, func(a, b int) bool { return reps[a].Dist < reps[b].Dist })

	var sc obs.SpanScope
	var pre Trace
	if rec != nil {
		pre = *tr
		sc = rec.StartSpan("refine")
	}
	groups := 0
	var verr error
	if s.local && s.global.workers <= 1 {
		for _, rd := range reps {
			// Re-check against the (possibly tightened) k-th distance.
			if rd.Dist > heap.kth()*divisor+radiusRaw {
				break
			}
			groups++
			if verr = s.verifyGroupK(ctx, q, e.Groups[rd.GroupID], rd.GroupID, e.Length, divisor, heap, rf.ws, tr); verr != nil {
				break
			}
		}
	} else if len(reps) > 0 {
		groups, verr = s.verifyPhaseK(ctx, q, e, reps, divisor, radiusRaw, heap, tr, rec)
	}
	if rec != nil {
		spanWork(sc.Attr("length", int64(e.Length)).Attr("groups", int64(groups)), pre, *tr).End()
	}
	return verr
}

// verifyGroupK is the reference k-NN member walk, run when every shard is
// in-process and there is one worker: every member of one group, in ED
// order, on the coordinator's dataset — lower-bound prune against the
// evolving k-th distance, then early-abandoning DTW, pushing exact distances
// that beat the cutoff. The bound tightens with every push. gid is the group
// id recorded on pushed matches.
func (s *Scatter) verifyGroupK(ctx context.Context, q []float64, g *grouping.Group,
	gid, length int, divisor float64, heap *topK, ws *dist.Workspace, tr *Trace) error {

	if err := ctx.Err(); err != nil {
		return err
	}
	for _, m := range g.Members {
		cutoff := heap.kth() * divisor
		tr.MembersTested++
		v := s.global.base.Dataset.Series[m.SeriesIdx].Values[m.Start : m.Start+length]
		lb, d, ran := s.global.evalMember(ws, q, v, cutoff)
		if ran {
			tr.DTWComputed++
		}
		if !s.global.opts.DisableLowerBounds && lb >= cutoff {
			tr.PrunedByKim++
			continue
		}
		if d < cutoff {
			heap.push(Match{
				SeriesID: m.SeriesIdx,
				Start:    m.Start,
				Length:   length,
				Dist:     d / divisor,
				RawDTW:   d,
				GroupID:  gid,
			})
		}
	}
	return nil
}

// verifyPhaseK is k-NN member verification across the seam — remote shards,
// or in-process shards with workers to spend: one VerifyK call per shard,
// each walking its own members of the candidate groups, then the reference
// walk of verifyGroupK replayed over the distances they report. The replay
// visits the groups in candidate order, re-checks the real cut before each,
// and pushes a group's reported members in the global ED order (each shard
// reports its members of a group in that order, so walking the global member
// list and consuming each home shard's next hit interleaves them exactly);
// what the shards reported past the real cut is dropped. A member no shard
// reported is one the reference would not push (see LocalShard.VerifyK), so
// the heap passes through the reference's states: answers, ties included,
// are those of the one-shard walk. It returns how many groups the real cut
// admitted; MembersTested counts their sizes.
func (s *Scatter) verifyPhaseK(ctx context.Context, q []float64, e *rspace.LengthEntry,
	reps []FixedHit, divisor, radiusRaw float64, heap *topK, tr *Trace, rec *obs.Trace) (int, error) {

	req := VerifyKRequest{
		Length:     e.Length,
		Query:      q,
		K:          heap.k,
		CutoffBits: math.Float64bits(heap.kth() * divisor),
		RadiusRaw:  radiusRaw,
		Workers:    s.global.workers,
		Candidates: reps,
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
	groups := 0
	for _, rd := range reps {
		if rd.Dist > heap.kth()*divisor+radiusRaw {
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
			// The reference's two tests, verbatim (LB_Kim is O(1); the
			// coordinator holds every series).
			cutoff := heap.kth() * divisor
			if !s.global.opts.DisableLowerBounds &&
				dist.LBKim(q, s.global.base.Dataset.Series[m.SeriesIdx].Values[m.Start:m.Start+e.Length]) >= cutoff {
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
		if !slices.ContainsFunc(reps[groups:], func(c FixedHit) bool { return c.GroupID == h.GroupID }) {
			return 0, fmt.Errorf("query: shard %d reported k-NN hit %+v outside its candidate walk", s.infos[ti].Shard, h)
		}
	}
	return groups, nil
}

// rangeSearch answers a range query — every subsequence of the given length
// within radius of q under normalized DTW (see Processor.rangeSearch for
// the Lemma 2 admission and pruning rules): each shard answers it over its
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
// counters exactly once (the shard processors' own counters are not touched
// — the coordinator owns the tally). With a non-nil rec each shard call gets
// a "shard-range" span. Shards run concurrently: remote shards spend their
// worker budgets on separate hosts.
func (s *Scatter) rangeSearch(ctx context.Context, q []float64, length int, radius float64,
	exact bool, rec *obs.Trace) ([]RangeResult, error) {

	var tr Trace
	defer func() { s.global.counters.fold(tr); observe(rec, tr) }()
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("query: invalid range radius %v", radius)
	}
	if s.global.base.Entry(length) == nil {
		return nil, fmt.Errorf("query: length %d not indexed", length)
	}
	req := RangeRequest{
		Length:  length,
		Query:   q,
		Radius:  radius,
		Exact:   exact,
		Workers: s.global.workers,
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
