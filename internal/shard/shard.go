// Package shard implements the ONEX serving engine: one dataset's global
// grouping plus a fixed layout of shards — each indexing the grouping
// restricted to its series (group vectors and ED-sorted member lists, the
// GTI and LSI) — queried by scatter-gather (query.Scatter). There is one
// engine: an unsharded base (Shards 0 or 1, no workers) is the one-shard
// layout, whose single in-process shard indexes the global grouping itself;
// more shards hash-partition the series; a worker list places the shards in
// other processes.
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
//     (shared representative, preserved member order and EDs), as the
//     query.ShardSpec a worker is shipped: an in-process shard is built from
//     that spec by query.BuildLocalShard, the function a worker runs on it,
//     so there is one shard recipe. With one shard the restriction is the
//     grouping itself, so that shard's index (query.NewWholeShard) is built
//     over the global group objects and nothing is copied; the coordinator
//     reads the same dataset and grouping, never a shard's index;
//   - the shards are built concurrently on the internal/parallel pool;
//   - queries scatter across shards and gather one decision procedure (see
//     query.Scatter for the per-query argument), so every shard count,
//     transport and worker count answers identically; exact ties between
//     representatives go to the smallest global group id;
//   - the SP-Space critical thresholds (CriticalValues) come from the
//     global grouping, computed on first read by grouping.MergeThresholdsFor
//     (Prim's algorithm with on-demand inter-representative distances, O(g)
//     working memory, one length per pool task) at every layout, so it is
//     bit-identical at every shard count without a distance matrix ever
//     being stored. No query reads it, so no write path (Build, Load,
//     Append, Extend, WithThreshold) computes it;
//   - incremental maintenance (Append/Extend) runs the global assignment
//     rule once, then re-derives only the shards whose series or groups the
//     step touched; untouched shards are reused wholesale, and untouched
//     lengths share their threshold cell with the previous engine.
//
// WithThreshold (Sec. 5.2) adapts the global grouping with grouping.Adapt
// and indexes the result. It adapts the one-shard in-process layout and
// refuses every other: kept behaviour, since the global grouping it reads
// is held at every layout.
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
// grouping payload plus the shard count: per-shard state is derived and
// re-derived on load, and the critical thresholds are derived when first
// asked for.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"onex/internal/core"
	"onex/internal/grouping"
	"onex/internal/obs"
	"onex/internal/parallel"
	"onex/internal/query"
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
	// layoutSig is LayoutSignature's value, fixed at assembly: the engine
	// is immutable, and serving layers read it on every request.
	layoutSig uint64

	// sp holds, per length, the SP-Space critical thresholds of the ONE
	// global grouping — never per-shard aggregates, so CriticalValues
	// answers bit-identically at every shard count. A cell is computed on
	// first read; maintenance shares the cells of untouched lengths with
	// the previous engine (see assemble).
	sp map[int]*spCell

	buildTime   time.Duration
	savedAt     time.Time
	rebuilds    int64
	lastRebuild time.Duration
}

// spCell is one length's SP-Space critical thresholds, computed once, on
// first read, from the groups of the engine that reads it. Engines share a
// cell only when their groups of that length are value-identical, so the
// bits are the same whichever engine computes first. The cell holds no
// groups and no engine: sharing it never keeps a previous generation alive.
type spCell struct {
	once        sync.Once
	half, final float64
}

// thresholdPasses counts the cells computed in this process.
var thresholdPasses atomic.Int64

// ThresholdPasses reports how many per-length SP-Space threshold passes
// (one minimum spanning tree each) this process has run. Write paths run
// none; the first CriticalValues read after a write runs one per length
// the write touched.
func ThresholdPasses() int64 { return thresholdPasses.Load() }

// thresholds returns the cell's values, computing them over groups on the
// first call.
func (c *spCell) thresholds(groups []*grouping.Group, length int, st float64) (half, final float64) {
	c.once.Do(func() {
		thresholdPasses.Add(1)
		c.half, c.final = grouping.MergeThresholdsFor(groups, length, st)
	})
	return c.half, c.final
}

// part is one shard: the transport the coordinator drives it through, plus
// its group translation table, which maintenance reads to find the shards a
// delta touches. Every part but the one-shard layout's is built from its
// ShardSpec, so the table is the spec's; the whole part needs none: its
// local ids are the global ids.
type part struct {
	// transport is how the scatter coordinator reaches the shard
	// (query.LocalShard in-process, shardrpc.Client remote).
	transport query.ShardTransport
	// globalIDs maps, per length, local group index → global group id;
	// locals are numbered in ascending global id.
	globalIDs map[int][]int
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
// modified), the global grouping runs once on cfg.Parallelism, then the
// per-shard index layers are derived concurrently on the same pool.
//
// A non-empty workers list places every shard on a remote worker process
// (shard s on workers[s%len(workers)]): the engine ships each shard's
// series and grouping restriction to its worker at assembly and queries it
// over the shardrpc transport. Answers are bit-identical to the in-process
// layout (a worker builds its shard from the spec an in-process shard is
// built from); Build fails fast if a worker is unreachable.
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
		Workers:  cfg.Parallelism,
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

// assemble derives the per-shard state and the scatter executor from the
// engine's global dataset + grouping, and allocates one SP-Space cell per
// length without computing any. With prevE/affected set, shards whose
// affected flag is false reuse their previous part wholesale — valid because
// an unaffected shard's series values are unchanged and every group it holds
// is value-identical to its previous incarnation (incremental maintenance
// copies untouched groups verbatim) — and affected shards derive afresh.
// Lengths the delta left untouched (no touched groups, no new groups — the
// group set is then value-identical, so the thresholds are too) share the
// previous engine's cell; touched and new lengths get fresh ones.
func (e *Engine) assemble(prevE *Engine, affected []bool, delta *grouping.Delta) error {
	parts := make([]*part, e.shards)
	errs := make([]error, e.shards)
	parallel.ForEach(e.cfg.Parallelism, e.shards, func(s int) {
		switch {
		case prevE != nil && !affected[s]:
			parts[s] = prevE.parts[s]
		case e.whole():
			parts[s], errs[s] = e.wholePart()
		default:
			parts[s], errs[s] = e.specPart(s)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	e.sp = make(map[int]*spCell, len(e.grouped.Lengths))
	for _, l := range e.grouped.Lengths {
		if prevE != nil && delta != nil && len(delta.Touched[l]) == 0 &&
			delta.PrevGroups[l] == len(e.grouped.ByLength[l].Groups) {
			e.sp[l] = prevE.sp[l]
		} else {
			e.sp[l] = new(spCell)
		}
	}
	transports := make([]query.ShardTransport, e.shards)
	for s, p := range parts {
		transports[s] = p.transport
	}
	sc, err := query.NewScatter(e.data, e.grouped, e.cfg.Parallelism, transports)
	if err != nil {
		return err
	}
	e.parts = parts
	e.scatter = sc
	e.layoutSig = layoutSignature(parts)
	return nil
}

// wholePart derives the part of the one-shard layout: an index over the
// global dataset and grouping themselves — the same *grouping.Group
// objects, no restricted copy.
func (e *Engine) wholePart() (*part, error) {
	ls, err := query.NewWholeShard(e.data, e.grouped)
	if err != nil {
		return nil, err
	}
	return &part{transport: ls}, nil
}

// specFor derives shard s's ShardSpec from the global dataset and grouping:
// the shard's series (ascending global id, value arrays shared), and per
// length the restriction of every global group to those series (shared
// representative, member ED order preserved — restriction of a sorted list
// is sorted), under a fresh generation nonce. Group ownership — which shard
// scans a representative — goes to the shard holding the group's nearest
// member (Members[0] of the global LSI order), a pure function of the
// global grouping.
func (e *Engine) specFor(s int) query.ShardSpec {
	name := e.data.Name
	if name == "" {
		name = "dataset"
	}
	spec := query.ShardSpec{
		Dataset:    name,
		Generation: obs.NewRequestID(),
		Shard:      s,
		Shards:     e.shards,
		ST:         e.grouped.ST,
		Lengths:    make([]query.SpecLength, 0, len(e.grouped.Lengths)),
	}
	for id, sr := range e.data.Series {
		if ShardOf(id, e.shards) == s {
			spec.Series = append(spec.Series, query.SpecSeries{ID: id, Label: sr.Label, Values: sr.Values})
		}
	}
	for _, l := range e.grouped.Lengths {
		sl := query.SpecLength{Length: l}
		for k, g := range e.grouped.ByLength[l].Groups {
			members := restrictMembersGlobal(g, e.shards, s)
			if len(members) == 0 {
				continue
			}
			sl.Groups = append(sl.Groups, query.SpecGroup{
				GlobalID: k,
				Owned:    ShardOf(g.Members[0].SeriesIdx, e.shards) == s,
				Rep:      g.Rep,
				Members:  members,
			})
		}
		spec.Lengths = append(spec.Lengths, sl)
	}
	return spec
}

// specPart builds shard s of a sharded or remote layout from its spec. An
// in-process shard is the LocalShard query.BuildLocalShard derives from the
// spec — the one function a worker runs on the spec it is shipped — so the
// remote transport answers bit-identically to the in-process one by
// construction. A remote shard ships the spec to its worker; a shard the
// hash leaves empty stays in-process (there is nothing to ship, and the
// empty local transport costs nothing).
func (e *Engine) specPart(s int) (*part, error) {
	spec := e.specFor(s)
	p := &part{globalIDs: make(map[int][]int, len(spec.Lengths))}
	for _, sl := range spec.Lengths {
		gids := make([]int, len(sl.Groups))
		for i, g := range sl.Groups {
			gids[i] = g.GlobalID
		}
		p.globalIDs[sl.Length] = gids
	}
	if len(e.workerURLs) == 0 || len(spec.Series) == 0 {
		ls, err := query.BuildLocalShard(spec)
		if err != nil {
			return nil, err
		}
		p.transport = ls
		return p, nil
	}
	worker := e.workerURLs[s%len(e.workerURLs)]
	client, err := shardrpc.NewClient(worker, spec, shardrpc.ClientOptions{})
	if err != nil {
		return nil, fmt.Errorf("shard: ship shard %d to worker %s: %w", s, worker, err)
	}
	p.transport = client
	return p, nil
}

// restrictMembersGlobal restricts one global group's member list to the
// shard's series, keeping global series ids (BuildLocalShard remaps them to
// its local order, which ascends the same id set).
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
