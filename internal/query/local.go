package query

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// ScanBest implements ShardTransport: the tightening-bound argmin scan
// (scanRep: LB_Kim → early-abandoning DTW) over the shard's owned units of
// one length, in ascending global-group order, striding across the
// request's workers under a shared atomic bound. The scan computes the exact
// minimum at every worker count, and ties on it resolve to the smallest
// global id. That is why scanRep's pruning is strict (lb > bound): a
// representative whose lower bound merely equals the bound could still tie
// the minimum from a smaller id. DTWEarlyAbandon is exact whenever the
// distance is ≤ its cutoff, and a finite result is always exact, so every
// minimum-achieving representative is computed exactly and the shared
// winner, which keeps the smallest (distance, position), is the same
// whatever the timing.
//
// A same-length scan first seeds its bound with the paper's marriage of the
// two distances: one pass of early-abandoning squared ED over the owned
// representatives gives seed = √min ED², and seed ≥ DTW(q, r) bit for bit
// for the representative r achieving it (the diagonal warping path adds the
// same terms in the same order, and floating-point addition is monotone).
// The minimum DTW is therefore ≤ seed, so every minimum-achieving
// representative still passes the strict prune and is computed exactly
// (the kernel is exact at or below its cutoff), while the first DTW already
// abandons against a finite cutoff. The hit itself starts empty: only a DTW
// the scan computed can win. ctx is polled every rangePollEvery units per
// worker; a canceled scan returns ctx's error, never a partial answer.
func (ls *LocalShard) ScanBest(ctx context.Context, req ScanBestRequest) (ScanBestResponse, error) {
	if err := ctx.Err(); err != nil {
		return ScanBestResponse{}, err
	}
	if err := validateQuery(req.Query); err != nil {
		return ScanBestResponse{}, err
	}
	lg := ls.grouped.ByLength[req.Length]
	if lg == nil {
		return ScanBestResponse{}, fmt.Errorf("query: length %d not indexed", req.Length)
	}
	units := ls.units[req.Length]
	n := len(units)
	if n == 0 {
		return ScanBestResponse{BestBits: math.Float64bits(math.Inf(1))}, nil
	}
	q := req.Query
	seed := math.Inf(1)
	if req.Length == len(q) {
		minSq := math.Inf(1)
		for _, u := range units {
			if sq := dist.SquaredEDEarlyAbandon(q, lg.Groups[u.local].Rep, minSq); sq < minSq {
				minSq = sq
			}
		}
		seed = math.Sqrt(minSq)
	}

	workers := reqWorkers(req.Workers)
	if n < scanParallelMin {
		workers = 1
	}
	// win is the scan's answer so far, shared by its workers under mu; bound
	// is min(seed, raw), the cutoff every worker prunes against. The scan's
	// Trace lives beside them, so the scan allocates one value for all three.
	win := &struct {
		bound parallel.MinBound
		mu    sync.Mutex
		raw   float64
		pos   int
		tr    Trace
	}{raw: math.Inf(1), pos: -1}
	win.bound.Relax(seed)
	strided(ctx, ls.pool, workers, n, &win.tr, func(ws *dist.Workspace, pos int, tr *Trace) {
		bound := win.bound.Load()
		d := scanRep(ws, q, lg.Groups[units[pos].local].Rep, bound, tr)
		if d > bound {
			return // not the minimum: a computed distance or the seed is below it
		}
		win.mu.Lock()
		if d < win.raw || (d == win.raw && pos < win.pos) {
			win.raw, win.pos = d, pos
			win.bound.Relax(d)
		}
		win.mu.Unlock()
	})
	if err := ctx.Err(); err != nil {
		return ScanBestResponse{}, err
	}
	if win.pos < 0 {
		return ScanBestResponse{BestBits: math.Float64bits(math.Inf(1)), Trace: win.tr}, nil
	}
	return ScanBestResponse{
		Found:    true,
		GroupID:  units[win.pos].global,
		BestBits: math.Float64bits(win.raw),
		Trace:    win.tr,
	}, nil
}

// ScanFixed implements ShardTransport: the fixed-cutoff k-NN cascade
// (scanRep, pruning on lb > cutoff) over the owned units, survivors
// returned in ascending global-group order. A survivor is any finite DTW: a
// representative exactly at the cutoff survives, as the plain walk's cut
// (distance > cutoff) would visit it; the kernel is exact at or below the
// cutoff, and a finite value above it lies past every later group cut (kth
// only falls), so no walk reads it. The cutoff cannot tighten during the
// scan, so the per-unit decisions — and the work counters — are identical
// at every worker count and shard layout. ctx is polled every
// rangePollEvery units per worker; a canceled scan returns ctx's error,
// never a partial answer.
func (ls *LocalShard) ScanFixed(ctx context.Context, req ScanFixedRequest) (ScanFixedResponse, error) {
	if err := ctx.Err(); err != nil {
		return ScanFixedResponse{}, err
	}
	if err := validateQuery(req.Query); err != nil {
		return ScanFixedResponse{}, err
	}
	lg := ls.grouped.ByLength[req.Length]
	if lg == nil {
		return ScanFixedResponse{}, fmt.Errorf("query: length %d not indexed", req.Length)
	}
	units := ls.units[req.Length]
	n := len(units)
	if n == 0 {
		return ScanFixedResponse{}, nil
	}
	q := req.Query
	cutoff := math.Float64frombits(req.CutoffBits)
	workers := reqWorkers(req.Workers)
	if n < scanParallelMin {
		workers = 1
	}
	// found[i] is unit i's distance, +Inf when the cascade dropped it.
	found := make([]FixedHit, n)
	var tr Trace
	strided(ctx, ls.pool, workers, n, &tr, func(ws *dist.Workspace, i int, tr *Trace) {
		found[i] = FixedHit{GroupID: units[i].global, Dist: scanRep(ws, q, lg.Groups[units[i].local].Rep, cutoff, tr)}
	})
	if err := ctx.Err(); err != nil {
		return ScanFixedResponse{}, err
	}
	hits := found[:0]
	for _, h := range found {
		if !math.IsInf(h.Dist, 1) {
			hits = append(hits, h)
		}
	}
	return ScanFixedResponse{Hits: hits, Trace: tr}, nil
}
