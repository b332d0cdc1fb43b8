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
	"onex/internal/parallel"
	"onex/internal/ts"
)

// LocalShard is the in-process ShardTransport: one shard's index — its
// sub-dataset and the grouping restricted to it, whose groups in id order
// are the GTI and whose ED-sorted members are the LSI (Sec. 4.3) — the
// workspace pool its scans draw from, and the local↔global translation
// tables. It holds no worker count: every request carries its own
// (Workers). A shard of a partitioned layout is built from its ShardSpec by
// BuildLocalShard, in the engine (internal/shard) and in a worker process
// alike, so every transport response is bit-identical across them — the
// property the remote-equivalence suite enforces. The one-shard layout
// indexes the global dataset and grouping themselves under identity tables
// instead (NewWholeShard), and copies nothing.
type LocalShard struct {
	data    *ts.Dataset
	grouped *grouping.Result
	// pool recycles DTW scratch across requests and across the workers of
	// one request.
	pool  *parallel.WorkspacePool
	shard int
	// series maps local series index → global series id (ascending).
	series []int
	// globalIDs maps, per length, local group index → global group id,
	// strictly ascending.
	globalIDs map[int][]int
	// units lists, per length, the owned scan units in ascending global
	// group id — the order that fixes the scan's deterministic tie rule.
	units map[int][]localUnit
}

// localUnit is one owned representative to scan.
type localUnit struct {
	local, global int
}

// ErrBadSpec reports a shipped ShardSpec that cannot be indexed. A worker
// answers it when the spec is shipped, instead of failing every query after.
var ErrBadSpec = errors.New("query: bad shard spec")

// ErrBadRequest reports a scan or verification request the coordinator never
// sends: a negative k, a NaN cutoff, or seeds VerifyK cannot start from.
var ErrBadRequest = errors.New("query: bad shard request")

// newLocalShard wraps a shard's dataset and grouping as a transport.
// series, globalIDs and owned are the part's translation tables: series
// maps local series index → global id; per length, globalIDs maps local
// group index → global group id, strictly ascending, and owned marks the
// local groups whose representative this shard scans.
func newLocalShard(data *ts.Dataset, gr *grouping.Result, shard int, series []int,
	globalIDs map[int][]int, owned map[int][]bool) (*LocalShard, error) {

	if data == nil || gr == nil {
		return nil, errors.New("query: nil shard dataset or grouping")
	}
	if n := data.N(); n != len(series) {
		return nil, fmt.Errorf("query: shard %d holds %d series but maps %d", shard, n, len(series))
	}
	ls := &LocalShard{
		data:      data,
		grouped:   gr,
		pool:      &parallel.WorkspacePool{},
		shard:     shard,
		series:    series,
		globalIDs: globalIDs,
		units:     make(map[int][]localUnit, len(gr.Lengths)),
	}
	for _, l := range gr.Lengths {
		groups := gr.ByLength[l].Groups
		gids, own := globalIDs[l], owned[l]
		if len(gids) != len(groups) || len(own) != len(groups) {
			return nil, fmt.Errorf("query: shard tables for length %d cover %d/%d of %d groups",
				l, len(own), len(gids), len(groups))
		}
		units := make([]localUnit, 0, len(groups))
		for local, o := range own {
			if o {
				units = append(units, localUnit{local: local, global: gids[local]})
			}
		}
		ls.units[l] = units
	}
	return ls, nil
}

// localGroup resolves a global group id of one length to the shard's local
// index; ok is false when the shard holds no member of that group.
func (ls *LocalShard) localGroup(length, global int) (local int, ok bool) {
	gids := ls.globalIDs[length]
	i := sort.SearchInts(gids, global)
	return i, i < len(gids) && gids[i] == global
}

// NewWholeShard indexes the complete dataset and global grouping as the
// only shard of a one-shard layout: local ids are the global ids and every
// group is scanned here.
func NewWholeShard(data *ts.Dataset, gr *grouping.Result) (*LocalShard, error) {
	if data == nil || gr == nil {
		return nil, errors.New("query: nil shard dataset or grouping")
	}
	series := make([]int, data.N())
	for i := range series {
		series[i] = i
	}
	globalIDs := make(map[int][]int, len(gr.Lengths))
	owned := make(map[int][]bool, len(gr.Lengths))
	for _, l := range gr.Lengths {
		g := len(gr.ByLength[l].Groups)
		gids, own := make([]int, g), make([]bool, g)
		for k := range gids {
			gids[k], own[k] = k, true
		}
		globalIDs[l], owned[l] = gids, own
	}
	return newLocalShard(data, gr, 0, series, globalIDs, owned)
}

// BuildLocalShard derives a shard's index from its spec: the sub-dataset
// and the restricted grouping (local ids assigned in spec order). It is the
// one recipe for a shard of a partitioned layout: the engine
// (internal/shard) builds every in-process shard of one with it, and a
// worker runs it on the spec it is shipped, so a remote transport
// answers bit-identically to an in-process one. A spec no query could run
// against — a bad ST, length, representative, member window, member
// distance or id order — is refused with ErrBadSpec; a spec with no series
// builds an empty shard. Members must come in LSI order
// (grouping.LSIOrderBreak: EDToRep finite, non-negative and non-decreasing,
// the check a snapshot's decode makes too): the k-NN member walk and
// range's wholesale prefix rely on it.
func BuildLocalShard(spec ShardSpec) (*LocalShard, error) {
	bad := func(format string, args ...any) (*LocalShard, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
	}
	if !(spec.ST > 0) || math.IsInf(spec.ST, 1) {
		return bad("ST %v is not positive and finite", spec.ST)
	}
	data := &ts.Dataset{Name: fmt.Sprintf("%s#%d", spec.Dataset, spec.Shard)}
	series := make([]int, 0, len(spec.Series))
	localOf := make(map[int]int, len(spec.Series))
	for _, s := range spec.Series {
		if _, dup := localOf[s.ID]; dup {
			return bad("series %d shipped twice", s.ID)
		}
		if i := ts.CheckFinite(s.Values); i >= 0 {
			return bad("series %d has non-finite value %v at index %d", s.ID, s.Values[i], i)
		}
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
		if sl.Length < 1 || res.ByLength[sl.Length] != nil {
			return bad("length %d is not positive or shipped twice", sl.Length)
		}
		res.Lengths = append(res.Lengths, sl.Length)
		lg := &grouping.LengthGroups{Length: sl.Length}
		gids := make([]int, 0, len(sl.Groups))
		own := make([]bool, 0, len(sl.Groups))
		for _, sg := range sl.Groups {
			if len(gids) > 0 && sg.GlobalID <= gids[len(gids)-1] {
				return bad("group ids of length %d do not ascend at %d", sl.Length, sg.GlobalID)
			}
			if len(sg.Rep) != sl.Length || ts.CheckFinite(sg.Rep) >= 0 {
				return bad("group %d of length %d has a representative of length %d or a non-finite value",
					sg.GlobalID, sl.Length, len(sg.Rep))
			}
			members := make([]grouping.Member, 0, len(sg.Members))
			for _, m := range sg.Members {
				li, ok := localOf[m.Series]
				if !ok {
					return bad("member references series %d not shipped", m.Series)
				}
				if !data.Series[li].CheckRange(m.Start, sl.Length) {
					return bad("member window [%d,+%d) outside series %d", m.Start, sl.Length, m.Series)
				}
				members = append(members, grouping.Member{
					SeriesIdx: li,
					Start:     m.Start,
					EDToRep:   m.EDToRep,
				})
			}
			if len(members) == 0 {
				return bad("group %d of length %d has no members", sg.GlobalID, sl.Length)
			}
			if mi := grouping.LSIOrderBreak(members); mi >= 0 {
				m := sg.Members[mi]
				return bad("member (%d,%d) of group %d has distance %v out of LSI order", m.Series, m.Start, sg.GlobalID, m.EDToRep)
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

	return newLocalShard(data, res, spec.Shard, series, globalIDs, owned)
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
		Groups:       ls.grouped.TotalGroups(),
		Subsequences: ls.grouped.TotalSubseq,
		IndexBytes:   ls.grouped.SizeBytes(),
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

// Scan implements ShardTransport: the representative scan (scanRep: LB_Kim
// → early-abandoning DTW, pruning strictly, lb > bound) over the shard's
// owned units of one length, in ascending global-group order, striding
// across the request's workers. A hit is a representative whose DTW is at
// or below the cutoff: one exactly at it survives, as the k-NN walk's cut
// (distance > cut) would visit it, and the kernel is exact at or below its
// cutoff. ctx is polled every rangePollEvery units per worker; a canceled
// scan returns ctx's error, never a partial answer. A negative K or a NaN
// cutoff is refused with ErrBadRequest.
//
// K = 0 returns every hit, in ascending global-group order. The cutoff
// cannot tighten during the scan, so the per-unit decisions — and the work
// counters — are identical at every worker count and shard layout.
//
// K > 0 returns the K nearest hits in (distance, global id) order: the
// exact top K at every worker count. The workers prune against a shared
// bound, min(cutoff, seed, the K-th distance found so far), which is never
// below the true K-th distance, so every representative of the top K —
// a tie at the K-th place from a smaller id included, which is why the
// prune is strict — is computed exactly, and the hits found, exact whenever
// finite, sort into the same top K whatever the timing. A same-length scan
// seeds the bound with the paper's marriage of the two distances: one pass
// of early-abandoning squared ED gives seed = √(K-th smallest ED²), and each
// of the K representatives achieving it has DTW ≤ its ED bit for bit (the
// diagonal warping path adds the same terms in the same order, and
// floating-point addition and √ are monotone), so at least K
// representatives lie at or below seed and the K-th distance does too. K = 1
// at a +Inf cutoff is a best match's argmin scan.
func (ls *LocalShard) Scan(ctx context.Context, req ScanRequest) (ScanResponse, error) {
	if err := ctx.Err(); err != nil {
		return ScanResponse{}, err
	}
	if err := validateQuery(req.Query); err != nil {
		return ScanResponse{}, err
	}
	cutoff := math.Float64frombits(req.CutoffBits)
	if req.K < 0 || math.IsNaN(cutoff) {
		return ScanResponse{}, fmt.Errorf("%w: scan k %d, cutoff %v", ErrBadRequest, req.K, cutoff)
	}
	lg := ls.grouped.ByLength[req.Length]
	if lg == nil {
		return ScanResponse{}, fmt.Errorf("query: length %d not indexed", req.Length)
	}
	units := ls.units[req.Length]
	n := len(units)
	if n == 0 {
		return ScanResponse{}, nil
	}
	q := req.Query
	workers := reqWorkers(req.Workers)
	if n < scanParallelMin {
		workers = 1
	}
	var resp ScanResponse
	if req.K == 0 {
		// found[i] is unit i's distance, +Inf when the cascade dropped it.
		found := make([]ScanHit, n)
		var tr Trace
		strided(ctx, ls.pool, workers, n, &tr, func(ws *dist.Workspace, i int, tr *Trace) {
			found[i] = ScanHit{GroupID: units[i].global, Dist: scanRep(ws, q, lg.Groups[units[i].local].Rep, cutoff, tr)}
		})
		resp = ScanResponse{Hits: slices.DeleteFunc(found, func(h ScanHit) bool { return math.IsInf(h.Dist, 1) }), Trace: tr}
	} else {
		k := min(req.K, n)
		// top holds the k least (distance, position) pairs found, a max-heap
		// shared by the workers under mu; bound is min(cutoff, seed, its root
		// once full). GroupID carries the unit position until the answer is
		// built: positions ascend with global ids. The scan's Trace lives
		// beside them, so one allocation holds all the workers share.
		top := &struct {
			bound parallel.MinBound
			mu    sync.Mutex
			hits  []ScanHit
			tr    Trace
		}{hits: make([]ScanHit, 0, k)}
		if req.Length == len(q) {
			// The seed pass keeps the k least squared EDs in the same heap.
			for _, u := range units {
				bound := math.Inf(1)
				if len(top.hits) == k {
					bound = top.hits[0].Dist
				}
				top.hits = keepK(top.hits, k, ScanHit{Dist: dist.SquaredEDEarlyAbandon(q, lg.Groups[u.local].Rep, bound)}, hitLess)
			}
			cutoff = min(cutoff, math.Sqrt(top.hits[0].Dist))
			top.hits = top.hits[:0]
		}
		top.bound.Relax(cutoff)
		strided(ctx, ls.pool, workers, n, &top.tr, func(ws *dist.Workspace, pos int, tr *Trace) {
			bound := top.bound.Load()
			d := scanRep(ws, q, lg.Groups[units[pos].local].Rep, bound, tr)
			if d > bound || math.IsInf(d, 1) {
				return // not in the top k: k computed distances, or the seed's k EDs, are below it
			}
			top.mu.Lock()
			if top.hits = keepK(top.hits, k, ScanHit{GroupID: pos, Dist: d}, hitLess); len(top.hits) == k {
				top.bound.Relax(top.hits[0].Dist)
			}
			top.mu.Unlock()
		})
		slices.SortFunc(top.hits, cmpHits)
		for i := range top.hits {
			top.hits[i].GroupID = units[top.hits[i].GroupID].global
		}
		resp = ScanResponse{Hits: top.hits, Trace: top.tr}
	}
	if err := ctx.Err(); err != nil {
		return ScanResponse{}, err
	}
	return resp, nil
}

// hitLess orders scan hits by distance, then group id — the tie rule of
// every representative merge.
func hitLess(a, b ScanHit) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.GroupID < b.GroupID)
}

// cmpHits is hitLess for slices.SortFunc (the ids of one scan are distinct).
func cmpHits(a, b ScanHit) int {
	if hitLess(a, b) {
		return -1
	}
	return 1
}
