// Package shard implements the ONEX serving engine: one dataset's global
// grouping plus a fixed layout of shards — each holding the GTI/LSI index
// layers (inter-representative distance lists, envelopes) over its series —
// queried by scatter-gather (query.Scatter). There is one engine: an
// unsharded base (Shards 0 or 1, no workers) is the one-shard layout, whose
// single in-process shard indexes the global grouping itself; more shards
// hash-partition the series; a worker list places the shards in other
// processes.
//
// # Why the grouping stays global
//
// ONEX's query semantics are grouping-dependent: BestMatch mines the group
// of the nearest representative, k-NN's cut and walk orders derive from the
// group structure, and seasonal patterns ARE the groups. Truly independent
// per-shard groupings would therefore change answers — Algorithm 1 over a
// subset of the series produces different groups than over the whole
// dataset, and a scatter-gather min-merge over different groupings is a
// different (uncomparable) approximation. The engine instead runs the ONE
// deterministic global grouping every layout shares (grouping.Build —
// bit-identical for a fixed dataset/ST/lengths/seed at every worker count)
// and partitions everything downstream of it by series:
//
//   - each shard gets the sub-dataset of its series (value arrays shared,
//     zero copy) and the restriction of every global group to those series
//     (shared representative, preserved member order and EDs) — with one
//     shard that restriction is the grouping itself, so the shard's base is
//     built over the global group objects and nothing is copied;
//   - the expensive per-length index layers — the sparse top-k Dc neighbor
//     lists and the LB_Keogh envelopes — are built per shard over its group
//     set, concurrently on the internal/parallel pool;
//   - queries scatter across shards and gather one decision procedure (see
//     query.Scatter for the per-query argument), so every shard count,
//     transport and worker count answers identically; exact ties between
//     representatives go to the smallest global group id;
//   - the SP-Space guidance surface (Recommend, DegreeOf, STHalf/STFinal)
//     comes from the global grouping — read off the shard's base in the
//     one-shard layout, otherwise computed at assemble time via
//     rspace.MergeThresholdsFor (Prim's algorithm with on-demand
//     inter-representative distances, O(g) working memory) — so it too is
//     bit-identical at every shard count, without materializing a global
//     distance matrix;
//   - incremental maintenance (Append/Extend) runs the global assignment
//     rule once, then refreshes only the shards whose series or groups the
//     step touched; untouched shards are reused wholesale.
//
// WithThreshold (Sec. 5.2) merges groups by inter-representative distance
// across the whole grouping, which only a shard indexing all of it holds: it
// adapts the one-shard in-process layout and refuses every other.
//
// # One request, two entry points
//
// Queries enter as query.Request values through Exec (one) and ExecBatch
// (many, of any mix of families); the engine hands them to the coordinator
// unchanged. The request's context bounds it and carries its trace, if any.
//
// # Persistence
//
// An engine snapshots as a single stream carrying the global dataset +
// grouping payload plus the shard count: per-shard state is derived, like
// the Dc neighbor lists, and is re-derived on load.
package shard

import (
	"fmt"
	"sort"
	"time"

	"onex/internal/core"
	"onex/internal/grouping"
	"onex/internal/obs"
	"onex/internal/parallel"
	"onex/internal/query"
	"onex/internal/rspace"
	"onex/internal/shardrpc"
	"onex/internal/ts"
)

// Engine is a serving engine over one dataset with a fixed shard layout.
// It is immutable after construction: Append/Extend/WithThreshold return
// new engines and the receiver stays valid, so any number of queries can
// run concurrently with maintenance swaps.
type Engine struct {
	shards int
	// workerURLs, when non-empty, places every shard on a remote worker
	// process (shard s on workerURLs[s%len]); empty keeps shards in-process.
	// The list is serving-time configuration, not persisted state.
	workerURLs       []string
	cfg              core.BuildConfig
	normMin, normMax float64
	// data is the global normalized dataset; shard sub-datasets share its
	// (immutable) value arrays.
	data *ts.Dataset
	// grouped is the global grouping, the same at every layout.
	grouped *grouping.Result
	// adapted marks a WithThreshold view: its grouping was derived by
	// split/merge, not by Algorithm 1, so it cannot grow or be saved.
	adapted bool
	parts   []*part
	scatter *query.Scatter

	// spHalf/spFinal are the per-length SP-Space critical thresholds of the
	// ONE global grouping (see assemble) — never per-shard aggregates, so
	// Recommend/DegreeOf/STHalf/STFinal answer bit-identically at every
	// shard count.
	spHalf, spFinal map[int]float64
	// globalSTHalf/globalSTFinal are the dataset-wide maxima over lengths,
	// mirroring rspace.Base.GlobalSTHalf/GlobalSTFinal.
	globalSTHalf, globalSTFinal float64

	buildTime   time.Duration
	savedAt     time.Time
	rebuilds    int64
	lastRebuild time.Duration
}

// part is one shard: its series and local↔global translation tables, plus
// the transport the coordinator drives it through. Local parts additionally
// hold the shard's base and its processor (the state behind the transport);
// remote parts hold only the tables — their index lives in the worker
// process, reachable through the transport. The part of a one-shard layout
// needs no tables: local ids are the global ids.
type part struct {
	// series maps local series index → global series id (ascending).
	series []int
	// base/proc back an in-process part; nil when the shard is remote.
	base *rspace.Base
	proc *query.Processor
	// transport is how the scatter coordinator reaches the shard
	// (query.LocalShard in-process, shardrpc.Client remote).
	transport query.ShardTransport
	// gen is the generation nonce of the shipped state (remote parts only):
	// the idempotency key component workers key resident state by.
	gen string
	// globalIDs maps, per length, local group index → global group id. A
	// fresh derivation orders locals by global id; an incremental refresh
	// preserves the previous local order (so index state can be reused) and
	// appends newly-present groups, so the slice is NOT always sorted.
	globalIDs map[int][]int
	// sortedIDs holds the same ids per length in ascending order, for
	// membership tests.
	sortedIDs map[int][]int
	// owned marks, per length, the local groups this shard scans for the
	// global representative phase.
	owned map[int][]bool
}

// has reports whether the part holds global group k of the given length.
// sortedIDs (not globalIDs: an incremental refresh appends newly-present
// groups out of id order) is searched.
func (p *part) has(length, k int) bool {
	ids := p.sortedIDs[length]
	i := sort.SearchInts(ids, k)
	return i < len(ids) && ids[i] == k
}

// ShardOf is the stable series→shard routing function: a splitmix64-style
// mix of the global series id modulo the shard count. It depends only on
// (seriesID, shards), so appends and extensions route deterministically
// across processes and restarts, and new series ids (which continue after
// the existing ones) hash without disturbing the placement of old ones.
func ShardOf(seriesID, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := uint64(seriesID) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// Build constructs an engine over the dataset with the requested shard
// count: 0 and 1 both mean the one-shard layout; counts above the series
// count clamp to it (a shard needs at least a chance of holding a series);
// negative counts error. The input is normalized per cfg into a copy (never
// modified), the global grouping runs once on cfg.Workers, then the
// per-shard index layers are derived concurrently on the same pool.
//
// A non-empty workers list places every shard on a remote worker process
// (shard s on workers[s%len(workers)]): the engine ships each shard's
// series and grouping restriction to its worker at assembly and queries it
// over the shardrpc transport. Answers are bit-identical to the in-process
// layout (the workers rebuild the exact per-shard index from the shipped
// spec); Build fails fast if a worker is unreachable.
func Build(d *ts.Dataset, cfg core.BuildConfig, shards int, workers []string) (*Engine, error) {
	if shards < 0 {
		return nil, fmt.Errorf("shard: shard count must be ≥ 0, got %d", shards)
	}
	if shards < 1 {
		shards = 1
	}
	if d != nil && d.N() > 0 && shards > d.N() {
		shards = d.N()
	}
	work, normMin, normMax, err := core.PrepareDataset(d, cfg.Normalize)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	gr, err := grouping.Build(work, grouping.Config{
		ST:       cfg.ST,
		Lengths:  cfg.Lengths,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
		Progress: cfg.Progress,
		Cancel:   cfg.Cancel,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		shards: shards, workerURLs: append([]string(nil), workers...),
		cfg: cfg, normMin: normMin, normMax: normMax,
		data: work, grouped: gr,
	}
	if err := e.assemble(nil, nil, nil); err != nil {
		return nil, err
	}
	e.buildTime = time.Since(start)
	return e, nil
}

// whole reports the one-shard in-process layout, whose shard indexes the
// global dataset and grouping themselves.
func (e *Engine) whole() bool { return e.shards == 1 && len(e.workerURLs) == 0 }

// assemble derives the per-shard state, the global SP-Space thresholds and
// the scatter executor from the engine's global dataset + grouping. With
// prevE/affected set, shards whose affected flag is false reuse their
// previous part wholesale — valid because an unaffected shard's series
// values are unchanged and every group it holds is value-identical to its
// previous incarnation (incremental maintenance copies untouched groups
// verbatim) — and affected shards refresh incrementally from the
// maintenance delta when one is given (wholePart, refreshPart), paying index
// recomputation only for touched and new groups instead of a from-scratch
// derivation. The per-length critical thresholds reuse the previous
// engine's values for lengths the delta left untouched (no touched groups,
// no new groups — the group set is then value-identical, so the thresholds
// are too).
func (e *Engine) assemble(prevE *Engine, affected []bool, delta *grouping.Delta) error {
	var prev []*part
	if prevE != nil {
		prev = prevE.parts
	}
	parts := make([]*part, e.shards)
	errs := make([]error, e.shards)
	parallel.ForEach(e.cfg.Workers, e.shards, func(s int) {
		switch {
		case e.whole():
			var prevPart *part
			if prev != nil {
				prevPart = prev[0]
			}
			parts[s], errs[s] = e.wholePart(prevPart, delta)
		case prev != nil && !affected[s]:
			parts[s] = prev[s]
		case len(e.workerURLs) > 0:
			// Remote shards ship a fresh generation whenever they change:
			// the worker rebuilds the restricted index from the spec, so no
			// incremental-refresh path exists (or is needed) across the wire.
			parts[s], errs[s] = e.buildRemotePart(s)
		case prev != nil && delta != nil:
			parts[s], errs[s] = refreshPart(e.data, e.grouped, e.shards, s, e.cfg, prev[s], delta)
		default:
			parts[s], errs[s] = buildPart(e.data, e.grouped, e.shards, s, e.cfg)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Exact SP-Space over the global grouping. The one-shard base was built
	// over it and already holds the values; otherwise one Prim pass per
	// length with on-demand distances — O(g) extra memory, never a
	// materialized global matrix. Both evaluate the same float expression
	// over the same global groups, so the values are bit-identical.
	lengths := e.grouped.Lengths
	halves := make([]float64, len(lengths))
	finals := make([]float64, len(lengths))
	parallel.ForEach(e.cfg.Workers, len(lengths), func(i int) {
		l := lengths[i]
		groups := e.grouped.ByLength[l].Groups
		switch {
		case e.whole():
			entry := parts[0].base.Entry(l)
			halves[i], finals[i] = entry.STHalf, entry.STFinal
		case prevE != nil && delta != nil &&
			len(delta.Touched[l]) == 0 && delta.PrevGroups[l] == len(groups):
			halves[i], finals[i] = prevE.spHalf[l], prevE.spFinal[l]
		default:
			halves[i], finals[i] = rspace.MergeThresholdsFor(groups, l, e.grouped.ST)
		}
	})
	e.spHalf = make(map[int]float64, len(lengths))
	e.spFinal = make(map[int]float64, len(lengths))
	e.globalSTHalf, e.globalSTFinal = 0, 0
	for i, l := range lengths {
		e.spHalf[l] = halves[i]
		e.spFinal[l] = finals[i]
		if halves[i] > e.globalSTHalf {
			e.globalSTHalf = halves[i]
		}
		if finals[i] > e.globalSTFinal {
			e.globalSTFinal = finals[i]
		}
	}
	transports := make([]query.ShardTransport, e.shards)
	for s, p := range parts {
		transports[s] = p.transport
	}
	var globalBase *rspace.Base
	if e.whole() {
		globalBase = parts[0].base
	} else {
		globalBase = &rspace.Base{
			Dataset:     e.data,
			ST:          e.grouped.ST,
			Lengths:     append([]int(nil), e.grouped.Lengths...),
			Entries:     make(map[int]*rspace.LengthEntry, len(e.grouped.Lengths)),
			TotalSubseq: e.grouped.TotalSubseq,
		}
		for _, l := range e.grouped.Lengths {
			globalBase.Entries[l] = &rspace.LengthEntry{Length: l, Groups: e.grouped.ByLength[l].Groups}
		}
	}
	sc, err := query.NewScatter(globalBase, e.cfg.Query, transports)
	if err != nil {
		return err
	}
	e.parts = parts
	e.scatter = sc
	return nil
}

// wholePart derives the part of the one-shard layout: the index layers over
// the global dataset and grouping themselves — the same *grouping.Group
// objects, no restricted copy — refreshed incrementally from the previous
// part's base when a maintenance delta is given (rspace.Refresh falls back
// to a full build without one).
func (e *Engine) wholePart(prev *part, delta *grouping.Delta) (*part, error) {
	var prevBase *rspace.Base
	if prev != nil {
		prevBase = prev.base
	}
	base, err := rspace.Refresh(e.data, e.grouped, rspace.Options{TopK: e.cfg.DcTopK}, prevBase, delta)
	if err != nil {
		return nil, err
	}
	p := &part{series: make([]int, e.data.N())}
	for i := range p.series {
		p.series[i] = i
	}
	if p.proc, err = query.New(base, e.cfg.Query); err != nil {
		return nil, err
	}
	p.base = base
	if p.transport, err = query.NewWholeShard(p.proc); err != nil {
		return nil, err
	}
	return p, nil
}

// buildPart derives one shard: the sub-dataset of its series (shared value
// arrays), the restriction of every global group to those series (shared
// representative, member order and EDs preserved — restriction of a sorted
// list is sorted), and the full GTI/LSI index layers over the restricted
// group set. Group ownership — which shard scans a representative — goes to
// the shard holding the group's nearest member (Members[0] of the global
// LSI order), a pure function of the global grouping.
func buildPart(data *ts.Dataset, gr *grouping.Result, shards, s int, cfg core.BuildConfig) (*part, error) {
	p := &part{
		globalIDs: make(map[int][]int, len(gr.Lengths)),
		sortedIDs: make(map[int][]int, len(gr.Lengths)),
		owned:     make(map[int][]bool, len(gr.Lengths)),
	}
	localOf := p.collectSeries(data, shards, s)

	res := &grouping.Result{
		ST:       gr.ST,
		Lengths:  append([]int(nil), gr.Lengths...),
		ByLength: make(map[int]*grouping.LengthGroups, len(gr.Lengths)),
	}
	for _, l := range gr.Lengths {
		src := gr.ByLength[l]
		lg := &grouping.LengthGroups{Length: l}
		gids := make([]int, 0, len(src.Groups))
		owned := make([]bool, 0, len(src.Groups))
		for k, g := range src.Groups {
			members := restrictMembers(g, shards, s, localOf)
			if len(members) == 0 {
				continue
			}
			lg.Groups = append(lg.Groups, &grouping.Group{
				Length:  l,
				ID:      len(lg.Groups),
				Rep:     g.Rep, // immutable, shared with the global group
				Members: members,
			})
			gids = append(gids, k)
			owned = append(owned, ShardOf(g.Members[0].SeriesIdx, shards) == s)
			res.TotalSubseq += int64(len(members))
		}
		res.ByLength[l] = lg
		p.globalIDs[l] = gids
		p.sortedIDs[l] = gids // fresh derivations order locals by global id
		p.owned[l] = owned
	}

	base, err := rspace.New(p.sub(data, s), res, rspace.Options{TopK: cfg.DcTopK})
	if err != nil {
		return nil, err
	}
	return p.finish(s, base, cfg.Query)
}

// buildRemotePart derives one remote shard: the same series routing and
// grouping restriction buildPart computes — but with global series ids, as
// a wire ShardSpec — shipped to the shard's worker under a fresh generation
// nonce. The worker rebuilds the exact restricted index from the spec
// (query.BuildLocalShard runs the constructors buildPart runs, on
// bit-identical inputs), so the remote transport answers bit-identically to
// the in-process one. A shard the hash leaves empty stays in-process (there
// is nothing to ship, and the empty local transport costs nothing).
func (e *Engine) buildRemotePart(s int) (*part, error) {
	p := &part{
		gen:       obs.NewRequestID(),
		globalIDs: make(map[int][]int, len(e.grouped.Lengths)),
		sortedIDs: make(map[int][]int, len(e.grouped.Lengths)),
		owned:     make(map[int][]bool, len(e.grouped.Lengths)),
	}
	p.collectSeries(e.data, e.shards, s)
	if len(p.series) == 0 {
		return buildPart(e.data, e.grouped, e.shards, s, e.cfg)
	}
	name := e.data.Name
	if name == "" {
		name = "dataset"
	}
	spec := query.ShardSpec{
		Dataset:    name,
		Generation: p.gen,
		Shard:      s,
		Shards:     e.shards,
		ST:         e.grouped.ST,
		DcTopK:     e.cfg.DcTopK,
		Opts:       e.cfg.Query,
		Series:     make([]query.SpecSeries, 0, len(p.series)),
		Lengths:    make([]query.SpecLength, 0, len(e.grouped.Lengths)),
	}
	for _, id := range p.series {
		spec.Series = append(spec.Series, query.SpecSeries{
			ID:     id,
			Label:  e.data.Series[id].Label,
			Values: e.data.Series[id].Values,
		})
	}
	for _, l := range e.grouped.Lengths {
		src := e.grouped.ByLength[l]
		sl := query.SpecLength{Length: l}
		gids := make([]int, 0, len(src.Groups))
		owned := make([]bool, 0, len(src.Groups))
		for k, g := range src.Groups {
			members := restrictMembersGlobal(g, e.shards, s)
			if len(members) == 0 {
				continue
			}
			own := ShardOf(g.Members[0].SeriesIdx, e.shards) == s
			sl.Groups = append(sl.Groups, query.SpecGroup{
				GlobalID: k,
				Owned:    own,
				Rep:      g.Rep,
				Members:  members,
			})
			gids = append(gids, k)
			owned = append(owned, own)
		}
		spec.Lengths = append(spec.Lengths, sl)
		p.globalIDs[l] = gids
		p.sortedIDs[l] = gids // global iteration order is ascending
		p.owned[l] = owned
	}
	worker := e.workerURLs[s%len(e.workerURLs)]
	client, err := shardrpc.NewClient(worker, spec, shardrpc.ClientOptions{})
	if err != nil {
		return nil, fmt.Errorf("shard: ship shard %d to worker %s: %w", s, worker, err)
	}
	p.transport = client
	return p, nil
}

// restrictMembersGlobal is restrictMembers on the wire: the restriction of
// one global group's member list to the shard's series, keeping global
// series ids (the worker remaps to its local order, which equals the
// coordinator's — both ascend the same id set).
func restrictMembersGlobal(g *grouping.Group, shards, s int) []query.SpecMember {
	var members []query.SpecMember
	for _, m := range g.Members {
		if ShardOf(m.SeriesIdx, shards) != s {
			continue
		}
		members = append(members, query.SpecMember{
			Series:  m.SeriesIdx,
			Start:   m.Start,
			EDToRep: m.EDToRep,
		})
	}
	return members
}

// collectSeries fills p.series with the shard's series (ascending global
// id) and returns the global→local index map. The sub-dataset itself is
// derived separately (sub) so refreshPart can share this step.
func (p *part) collectSeries(data *ts.Dataset, shards, s int) map[int]int {
	localOf := make(map[int]int)
	for id := range data.Series {
		if ShardOf(id, shards) != s {
			continue
		}
		localOf[id] = len(p.series)
		p.series = append(p.series, id)
	}
	return localOf
}

// sub materializes the shard's sub-dataset: fresh series headers sharing
// the (immutable) global value arrays, local ids in p.series order.
func (p *part) sub(data *ts.Dataset, s int) *ts.Dataset {
	sub := &ts.Dataset{Name: fmt.Sprintf("%s#%d", data.Name, s)}
	for _, id := range p.series {
		sub.Append(data.Series[id].Label, data.Series[id].Values)
	}
	return sub
}

// finish wraps the restricted base with its query processor and the
// in-process transport over the part's translation tables.
func (p *part) finish(s int, base *rspace.Base, qopts query.Options) (*part, error) {
	proc, err := query.New(base, qopts)
	if err != nil {
		return nil, err
	}
	p.base = base
	p.proc = proc
	if p.transport, err = query.NewLocalShard(proc, s, p.series, p.globalIDs, p.owned); err != nil {
		return nil, err
	}
	return p, nil
}

// restrictMembers filters one global group's member list down to the
// shard's series, remapping to local ids. Restriction of the (ED-sorted)
// global LSI order preserves it.
func restrictMembers(g *grouping.Group, shards, s int, localOf map[int]int) []grouping.Member {
	var members []grouping.Member
	for _, m := range g.Members {
		if ShardOf(m.SeriesIdx, shards) != s {
			continue
		}
		members = append(members, grouping.Member{
			SeriesIdx: localOf[m.SeriesIdx],
			Start:     m.Start,
			EDToRep:   m.EDToRep,
		})
	}
	return members
}

// refreshPart is buildPart's incremental form, run on the shards a
// maintenance delta touched: previously-present groups keep their local
// indices (untouched ones reuse the previous restricted group object
// wholesale — it is value-identical), groups the step touched re-restrict,
// and groups newly present in the shard (touched groups gaining their
// first member here, or brand-new groups) append at the end. The
// prefix-stable local order lets rspace.Refresh reuse every Dc entry and
// envelope not involving a touched or appended group, so the refresh costs
// O(changed·gₛ·L + gₛ²) instead of buildPart's O(gₛ²·L) — and is proven
// bit-identical to a fresh derivation (rspace.Refresh's contract, plus the
// structural equality test in this package).
//
// The shard's series membership only grows (new ids hash in above all old
// ids), so the previous local series order is a prefix of the new one and
// every reused member index stays valid.
func refreshPart(data *ts.Dataset, gr *grouping.Result, shards, s int, cfg core.BuildConfig,
	prev *part, delta *grouping.Delta) (*part, error) {

	p := &part{
		globalIDs: make(map[int][]int, len(gr.Lengths)),
		sortedIDs: make(map[int][]int, len(gr.Lengths)),
		owned:     make(map[int][]bool, len(gr.Lengths)),
	}
	localOf := p.collectSeries(data, shards, s)

	res := &grouping.Result{
		ST:       gr.ST,
		Lengths:  append([]int(nil), gr.Lengths...),
		ByLength: make(map[int]*grouping.LengthGroups, len(gr.Lengths)),
	}
	localDelta := &grouping.Delta{
		PrevGroups: make(map[int]int, len(gr.Lengths)),
		Touched:    make(map[int][]int, len(gr.Lengths)),
	}
	for _, l := range gr.Lengths {
		src := gr.ByLength[l]
		prevIDs := prev.globalIDs[l]
		prevGroups := prev.base.Entry(l).Groups
		touched := make(map[int]bool, len(delta.Touched[l]))
		for _, k := range delta.Touched[l] {
			touched[k] = true
		}

		lg := &grouping.LengthGroups{Length: l}
		gids := make([]int, 0, len(prevIDs))
		owned := make([]bool, 0, len(prevIDs))
		var localTouched []int
		for li, k := range prevIDs {
			g := src.Groups[k]
			rg := prevGroups[li]
			if touched[k] {
				rg = &grouping.Group{
					Length:  l,
					ID:      li,
					Rep:     g.Rep,
					Members: restrictMembers(g, shards, s, localOf),
				}
				localTouched = append(localTouched, li)
			}
			lg.Groups = append(lg.Groups, rg)
			gids = append(gids, k)
			owned = append(owned, ShardOf(g.Members[0].SeriesIdx, shards) == s)
			res.TotalSubseq += int64(len(rg.Members))
		}

		// Only groups whose membership changed can newly enter the shard:
		// touched old groups not present before, and brand-new groups.
		candidates := make([]int, 0, len(delta.Touched[l]))
		for _, k := range delta.Touched[l] {
			if !prev.has(l, k) {
				candidates = append(candidates, k)
			}
		}
		for k := delta.PrevGroups[l]; k < len(src.Groups); k++ {
			candidates = append(candidates, k)
		}
		sort.Ints(candidates)
		for _, k := range candidates {
			g := src.Groups[k]
			members := restrictMembers(g, shards, s, localOf)
			if len(members) == 0 {
				continue
			}
			lg.Groups = append(lg.Groups, &grouping.Group{
				Length:  l,
				ID:      len(lg.Groups),
				Rep:     g.Rep,
				Members: members,
			})
			gids = append(gids, k)
			owned = append(owned, ShardOf(g.Members[0].SeriesIdx, shards) == s)
			res.TotalSubseq += int64(len(members))
		}

		res.ByLength[l] = lg
		p.globalIDs[l] = gids
		sorted := append([]int(nil), gids...)
		sort.Ints(sorted)
		p.sortedIDs[l] = sorted
		p.owned[l] = owned
		localDelta.PrevGroups[l] = len(prevIDs)
		localDelta.Touched[l] = localTouched
	}

	base, err := rspace.Refresh(p.sub(data, s), res, rspace.Options{TopK: cfg.DcTopK}, prev.base, localDelta)
	if err != nil {
		return nil, err
	}
	return p.finish(s, base, cfg.Query)
}
