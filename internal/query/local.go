package query

import (
	"context"
	"fmt"
	"math"
	"sort"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/parallel"
	"onex/internal/rspace"
	"onex/internal/ts"
)

// LocalShard is the in-process ShardTransport: one shard's index (a
// Processor over the shard's base) plus the local↔global translation
// tables. The engine (internal/shard) wraps each of its in-process parts
// in one — the whole base under identity tables when the layout is one
// shard (NewWholeShard) — and a worker process builds one from a shipped
// ShardSpec. The construction paths run the same index derivation on the
// same inputs, so every transport response is bit-identical across them —
// the property the remote-equivalence suite enforces.
type LocalShard struct {
	proc  *Processor
	shard int
	// series maps local series index → global series id (ascending).
	series []int
	// localSeries inverts series: global series id → local index.
	localSeries map[int]int
	// globalIDs maps, per length, local group index → global group id.
	globalIDs map[int][]int
	// units lists, per length, the owned scan units sorted by global
	// group id (refreshed parts hold local orders that aren't sorted, so
	// the sort here is what fixes the scan's deterministic tie order).
	units map[int][]localUnit
	// byGlobal lists, per length, the local group indices in ascending
	// global-id order — the global→local lookup of VerifyK. A length whose
	// globalIDs already ascend (every freshly derived part) has no entry and
	// is searched directly.
	byGlobal map[int][]int32
}

// localUnit is one owned representative to scan.
type localUnit struct {
	local, global int
}

// NewLocalShard wraps an existing shard processor as a transport. series,
// globalIDs and owned are the part's translation tables: series maps local
// series index → global id; per length, globalIDs maps local group index →
// global group id and owned marks the local groups whose representative
// this shard scans.
func NewLocalShard(proc *Processor, shard int, series []int,
	globalIDs map[int][]int, owned map[int][]bool) (*LocalShard, error) {

	if proc == nil {
		return nil, fmt.Errorf("query: nil shard processor")
	}
	if n := proc.base.Dataset.N(); n != len(series) {
		return nil, fmt.Errorf("query: shard %d holds %d series but maps %d", shard, n, len(series))
	}
	ls := &LocalShard{
		proc:        proc,
		shard:       shard,
		series:      series,
		localSeries: make(map[int]int, len(series)),
		globalIDs:   globalIDs,
		units:       make(map[int][]localUnit, len(proc.base.Lengths)),
		byGlobal:    make(map[int][]int32),
	}
	for li, gid := range series {
		ls.localSeries[gid] = li
	}
	for _, l := range proc.base.Lengths {
		e := proc.base.Entry(l)
		gids, own := globalIDs[l], owned[l]
		if len(gids) != len(e.Groups) || len(own) != len(e.Groups) {
			return nil, fmt.Errorf("query: shard tables for length %d cover %d/%d of %d groups",
				l, len(own), len(gids), len(e.Groups))
		}
		units := make([]localUnit, 0, len(e.Groups))
		for local, o := range own {
			if o {
				units = append(units, localUnit{local: local, global: gids[local]})
			}
		}
		sort.Slice(units, func(a, b int) bool { return units[a].global < units[b].global })
		ls.units[l] = units
		if !sort.IntsAreSorted(gids) {
			order := make([]int32, len(gids))
			for local := range order {
				order[local] = int32(local)
			}
			sort.Slice(order, func(a, b int) bool { return gids[order[a]] < gids[order[b]] })
			ls.byGlobal[l] = order
		}
	}
	return ls, nil
}

// localGroup resolves a global group id of one length to the shard's local
// index; ok is false when the shard holds no member of that group.
func (ls *LocalShard) localGroup(length, global int) (local int, ok bool) {
	gids, order := ls.globalIDs[length], ls.byGlobal[length]
	at := func(i int) int {
		if order != nil {
			return int(order[i])
		}
		return i
	}
	i := sort.Search(len(gids), func(i int) bool { return gids[at(i)] >= global })
	if i == len(gids) || gids[at(i)] != global {
		return 0, false
	}
	return at(i), true
}

// NewWholeShard wraps a processor over the complete base as the only shard
// of a one-shard layout: local ids are the global ids and every group is
// scanned here.
func NewWholeShard(proc *Processor) (*LocalShard, error) {
	if proc == nil {
		return nil, fmt.Errorf("query: nil shard processor")
	}
	series := make([]int, proc.base.Dataset.N())
	for i := range series {
		series[i] = i
	}
	globalIDs := make(map[int][]int, len(proc.base.Lengths))
	owned := make(map[int][]bool, len(proc.base.Lengths))
	for _, l := range proc.base.Lengths {
		g := len(proc.base.Entry(l).Groups)
		gids, own := make([]int, g), make([]bool, g)
		for k := range gids {
			gids[k], own[k] = k, true
		}
		globalIDs[l], owned[l] = gids, own
	}
	return NewLocalShard(proc, 0, series, globalIDs, owned)
}

// BuildLocalShard derives a shard's index from its shipped spec: the
// sub-dataset, the restricted grouping (local ids assigned in spec order)
// and the full GTI/LSI layers — the exact constructors the coordinator
// runs for an in-process shard, on bit-identical inputs, so the resulting
// transport answers bit-identically to a local one.
func BuildLocalShard(spec ShardSpec) (*LocalShard, error) {
	if len(spec.Series) == 0 {
		return nil, fmt.Errorf("query: shard spec has no series")
	}
	data := &ts.Dataset{Name: fmt.Sprintf("%s#%d", spec.Dataset, spec.Shard)}
	series := make([]int, 0, len(spec.Series))
	localOf := make(map[int]int, len(spec.Series))
	for _, s := range spec.Series {
		localOf[s.ID] = len(series)
		series = append(series, s.ID)
		data.Append(s.Label, s.Values)
	}

	res := &grouping.Result{
		ST:       spec.ST,
		Lengths:  make([]int, 0, len(spec.Lengths)),
		ByLength: make(map[int]*grouping.LengthGroups, len(spec.Lengths)),
	}
	globalIDs := make(map[int][]int, len(spec.Lengths))
	owned := make(map[int][]bool, len(spec.Lengths))
	for _, sl := range spec.Lengths {
		res.Lengths = append(res.Lengths, sl.Length)
		lg := &grouping.LengthGroups{Length: sl.Length}
		gids := make([]int, 0, len(sl.Groups))
		own := make([]bool, 0, len(sl.Groups))
		for _, sg := range sl.Groups {
			members := make([]grouping.Member, 0, len(sg.Members))
			for _, m := range sg.Members {
				li, ok := localOf[m.Series]
				if !ok {
					return nil, fmt.Errorf("query: shard spec member references series %d not shipped", m.Series)
				}
				members = append(members, grouping.Member{
					SeriesIdx: li,
					Start:     m.Start,
					EDToRep:   m.EDToRep,
				})
			}
			if len(members) == 0 {
				return nil, fmt.Errorf("query: shard spec group %d of length %d has no members", sg.GlobalID, sl.Length)
			}
			lg.Groups = append(lg.Groups, &grouping.Group{
				Length:  sl.Length,
				ID:      len(lg.Groups),
				Rep:     sg.Rep,
				Members: members,
			})
			gids = append(gids, sg.GlobalID)
			own = append(own, sg.Owned)
			res.TotalSubseq += int64(len(members))
		}
		res.ByLength[sl.Length] = lg
		globalIDs[sl.Length] = gids
		owned[sl.Length] = own
	}

	base, err := rspace.New(data, res, rspace.Options{TopK: spec.DcTopK})
	if err != nil {
		return nil, err
	}
	proc, err := New(base, spec.Opts)
	if err != nil {
		return nil, err
	}
	return NewLocalShard(proc, spec.Shard, series, globalIDs, owned)
}

// Info implements ShardTransport.
func (ls *LocalShard) Info() ShardInfo {
	info := ShardInfo{
		Shard:  ls.shard,
		Series: append([]int(nil), ls.series...),
		Owned:  make(map[int][]int, len(ls.units)),
	}
	for l, units := range ls.units {
		gids := make([]int, len(units))
		for i, u := range units {
			gids[i] = u.global
		}
		info.Owned[l] = gids
	}
	return info
}

// Stats implements ShardTransport.
func (ls *LocalShard) Stats() ShardStats {
	return ShardStats{
		Series:       len(ls.series),
		Groups:       ls.proc.base.TotalGroups(),
		Subsequences: ls.proc.base.TotalSubseq,
		IndexBytes:   ls.proc.base.SizeBytes(),
	}
}

// Close implements ShardTransport (no resources to release in-process).
func (ls *LocalShard) Close() error { return nil }

// reqWorkers resolves a request's worker budget (≥ 1).
func reqWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// innerExec returns the view of p that answers one request with the given
// worker budget (sharing p's pool and counters).
func (p *Processor) innerExec(workers int) *Processor {
	if workers == p.workers {
		return p
	}
	cp := *p
	cp.workers = workers
	return &cp
}

// ScanBest implements ShardTransport: the tightening-bound argmin scan
// (LB_Kim → LB_Keogh → early-abandoning DTW) over the shard's owned units
// of one length, in ascending global-group order; past one worker the
// units stride across the pool under a shared atomic bound. The scan
// computes the exact minimum either way, and ties on it resolve to the
// smallest global id at every worker count. That is why pruning is strict
// (> cutoff): a representative whose lower bound merely equals the bound
// could still tie the minimum from a smaller id, and DTWEarlyAbandon
// abandons only strictly above its cutoff, so every minimum-achieving
// representative is computed exactly and the (distance, position) reduce
// picks the same winner whatever the timing.
func (ls *LocalShard) ScanBest(ctx context.Context, req ScanBestRequest) (ScanBestResponse, error) {
	if err := ctx.Err(); err != nil {
		return ScanBestResponse{}, err
	}
	if err := validateQuery(req.Query); err != nil {
		return ScanBestResponse{}, err
	}
	e := ls.proc.base.Entry(req.Length)
	if e == nil {
		return ScanBestResponse{}, fmt.Errorf("query: length %d not indexed", req.Length)
	}
	units := ls.units[req.Length]
	var tr Trace
	n := len(units)
	if n == 0 {
		return ScanBestResponse{BestBits: math.Float64bits(math.Inf(1))}, nil
	}
	q := req.Query
	order := dist.QueryOrder(q)
	sameLen := req.Length == len(q)

	type hit struct {
		raw float64
		pos int
	}
	scan := func(lws *dist.Workspace, start, stride int, shared *parallel.MinBound, local *hit, ltr *Trace) {
		for pos := start; pos < n; pos += stride {
			u := units[pos]
			ltr.RepsExamined++
			cutoff := local.raw
			if shared != nil {
				if sb := shared.Load(); sb < cutoff {
					cutoff = sb
				}
			}
			rep := e.Groups[u.local].Rep
			if !ls.proc.opts.DisableLowerBounds {
				if dist.LBKim(q, rep) > cutoff {
					ltr.PrunedByKim++
					continue
				}
				if sameLen {
					env := e.Envelopes[u.local]
					if lb := dist.LBKeoghOrdered(q, env.Upper, env.Lower, order, cutoff); lb > cutoff {
						ltr.PrunedByKeogh++
						continue
					}
				}
			}
			ltr.DTWComputed++
			d := lws.DTWEarlyAbandon(q, rep, dist.Unconstrained, cutoff)
			if d < local.raw {
				local.raw, local.pos = d, pos
				if shared != nil {
					shared.Relax(d)
				}
			}
		}
	}

	workers := reqWorkers(req.Workers)
	if workers > n {
		workers = n
	}
	win := hit{raw: math.Inf(1), pos: -1}
	if workers <= 1 || n < scanParallelMin {
		lws := ls.proc.pool.Get()
		scan(lws, 0, 1, nil, &win, &tr)
		ls.proc.pool.Put(lws)
	} else {
		shared := parallel.NewMinBound(math.Inf(1))
		locals := make([]hit, workers)
		traces := make([]Trace, workers)
		parallel.ForEach(workers, workers, func(w int) {
			lws := ls.proc.pool.Get()
			defer ls.proc.pool.Put(lws)
			locals[w] = hit{raw: math.Inf(1), pos: -1}
			scan(lws, w, workers, shared, &locals[w], &traces[w])
		})
		for _, t := range traces {
			tr.add(t)
		}
		for _, l := range locals {
			if l.pos < 0 {
				continue
			}
			if l.raw < win.raw || (l.raw == win.raw && l.pos < win.pos) {
				win = l
			}
		}
	}
	if win.pos < 0 {
		return ScanBestResponse{BestBits: math.Float64bits(math.Inf(1)), Trace: tr}, nil
	}
	return ScanBestResponse{
		Found:    true,
		GroupID:  units[win.pos].global,
		BestBits: math.Float64bits(win.raw),
		Trace:    tr,
	}, nil
}

// ScanFixed implements ShardTransport: the fixed-cutoff k-NN cascade over
// the owned units, survivors returned in ascending global-group order.
// The cutoff cannot tighten during the scan, so the per-unit decisions —
// and the work counters — are identical at every worker count.
func (ls *LocalShard) ScanFixed(ctx context.Context, req ScanFixedRequest) (ScanFixedResponse, error) {
	if err := ctx.Err(); err != nil {
		return ScanFixedResponse{}, err
	}
	if err := validateQuery(req.Query); err != nil {
		return ScanFixedResponse{}, err
	}
	e := ls.proc.base.Entry(req.Length)
	if e == nil {
		return ScanFixedResponse{}, fmt.Errorf("query: length %d not indexed", req.Length)
	}
	units := ls.units[req.Length]
	var tr Trace
	n := len(units)
	if n == 0 {
		return ScanFixedResponse{}, nil
	}
	q := req.Query
	cutoff := math.Float64frombits(req.CutoffBits)
	order := dist.QueryOrder(q)
	sameLen := req.Length == len(q)
	scanOne := func(lws *dist.Workspace, u localUnit, ltr *Trace) (float64, bool) {
		return ls.proc.scanRepFixed(lws, q, order,
			e.Groups[u.local].Rep, e.Envelopes[u.local], sameLen, cutoff, ltr)
	}

	workers := reqWorkers(req.Workers)
	if workers > n {
		workers = n
	}
	var hits []FixedHit
	if workers <= 1 || n < scanParallelMin {
		lws := ls.proc.pool.Get()
		hits = make([]FixedHit, 0, n)
		for _, u := range units {
			if d, ok := scanOne(lws, u, &tr); ok {
				hits = append(hits, FixedHit{GroupID: u.global, Dist: d})
			}
		}
		ls.proc.pool.Put(lws)
	} else {
		found := make([]FixedHit, n)
		kept := make([]bool, n)
		traces := make([]Trace, workers)
		parallel.ForEach(workers, workers, func(w int) {
			lws := ls.proc.pool.Get()
			defer ls.proc.pool.Put(lws)
			for i := w; i < n; i += workers {
				if d, ok := scanOne(lws, units[i], &traces[w]); ok {
					found[i] = FixedHit{GroupID: units[i].global, Dist: d}
					kept[i] = true
				}
			}
		})
		for _, t := range traces {
			tr.add(t)
		}
		hits = make([]FixedHit, 0, n)
		for i, ok := range kept {
			if ok {
				hits = append(hits, found[i])
			}
		}
	}
	return ScanFixedResponse{Hits: hits, Trace: tr}, nil
}

// EvalMembers implements ShardTransport: one round of member evaluations
// against the request's bound snapshot, positionally — the remote half of
// the coordinator's round-replay mining. LB_Kim and the early-abandoning
// DTW depend only on (query, member values, bound), all bit-identical
// across transports, so the response bits are too.
func (ls *LocalShard) EvalMembers(ctx context.Context, req EvalMembersRequest) (EvalMembersResponse, error) {
	if err := ctx.Err(); err != nil {
		return EvalMembersResponse{}, err
	}
	if err := validateQuery(req.Query); err != nil {
		return EvalMembersResponse{}, err
	}
	n := len(req.Items)
	if n == 0 {
		return EvalMembersResponse{}, nil
	}
	windows := make([][]float64, n)
	for i, it := range req.Items {
		li, ok := ls.localSeries[it.Series]
		if !ok {
			return EvalMembersResponse{}, fmt.Errorf("query: member series %d not on shard %d", it.Series, ls.shard)
		}
		values := ls.proc.base.Dataset.Series[li].Values
		if it.Start < 0 || it.Start+req.Length > len(values) {
			return EvalMembersResponse{}, fmt.Errorf("query: member window [%d,%d) outside series %d", it.Start, it.Start+req.Length, it.Series)
		}
		windows[i] = values[it.Start : it.Start+req.Length]
	}
	bound := math.Float64frombits(req.BoundBits)
	lbs := make([]float64, n)
	ds := make([]float64, n)
	exec := ls.proc.innerExec(reqWorkers(req.Workers))
	dtws := exec.evalRound(req.Query, windows, bound, lbs, ds)
	resp := EvalMembersResponse{
		LbBits:      make([]uint64, n),
		DsBits:      make([]uint64, n),
		DTWComputed: dtws,
	}
	for i := range lbs {
		resp.LbBits[i] = math.Float64bits(lbs[i])
		resp.DsBits[i] = math.Float64bits(ds[i])
	}
	return resp, nil
}

// Range implements ShardTransport: Processor.rangeSearch over the shard's
// base, results remapped to global series/group ids in the shard's group
// order.
func (ls *LocalShard) Range(ctx context.Context, req RangeRequest) (RangeResponse, error) {
	var tr Trace
	exec := ls.proc.innerExec(reqWorkers(req.Workers))
	rs, err := exec.rangeSearch(ctx, req.Query, req.Length, req.Radius, req.Exact, &tr)
	if err != nil {
		return RangeResponse{}, err
	}
	gids := ls.globalIDs[req.Length]
	hits := make([]RangeHit, len(rs))
	for i, r := range rs {
		hits[i] = RangeHit{
			Series:     ls.series[r.SeriesID],
			Start:      r.Start,
			Dist:       r.Dist,
			RawDTW:     r.RawDTW,
			GroupID:    gids[r.GroupID],
			Guaranteed: r.Guaranteed,
		}
	}
	return RangeResponse{Results: hits, Trace: tr}, nil
}
