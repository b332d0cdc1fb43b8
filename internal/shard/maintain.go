package shard

import (
	"errors"
	"fmt"
	"time"

	"onex/internal/core"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// Append grows one existing series in time: the points are appended to the
// series and only the suffix subsequences — windows overlapping the new
// points — are pushed through the Algorithm 1 assignment rule
// (grouping.AppendPoints), once and globally, so answers stay
// layout-invariant. Then only the shards holding a touched or new group —
// plus the home shard, whose data grew — refresh their index layers; every
// other shard is reused wholesale. Maintenance therefore costs
// O(new-subsequences × g × L) distance work instead of a rebuild. When the
// accumulated drift would cross BuildConfig.RebuildDrift the full global
// build re-runs over the final data instead (see maintainOrRebuild).
//
// The receiver stays valid and unchanged; a new engine is returned. Points
// are scaled into the indexed value space by core.ScaleAppendPoints.
func (e *Engine) Append(seriesID int, points []float64) (*Engine, error) {
	if len(points) == 0 {
		return nil, errors.New("core: no points to append")
	}
	if e.adapted {
		return nil, errors.New("shard: threshold-adapted engines cannot be appended to; append to the original base first")
	}
	scaled, err := core.ScaleAppendPoints(e.cfg.Normalize, e.normMin, e.normMax, points)
	if err != nil {
		return nil, err
	}
	// Copy-on-write clone: indexed observations are immutable, so the grown
	// base shares every series' backing array; Dataset.AppendPoints moves
	// the grown series onto a freshly-owned array (never writing through a
	// shared one) and rejects non-finite values — NaN and ±Inf survive the
	// affine scaling, so validating scaled covers raw. An append therefore
	// costs O(series + grown-series length) in copying, not O(total points).
	work := e.data.CloneShared()
	oldLens := make([]int, work.N())
	for i, s := range work.Series {
		oldLens[i] = s.Len()
	}
	if err := work.AppendPoints(seriesID, scaled); err != nil {
		return nil, err
	}
	// Count the windows this append creates to decide incrementally-vs-
	// rebuild before paying for either.
	var newCount int64
	for _, l := range e.grouped.Lengths {
		lo, hi := work.Series[seriesID].NewWindowStarts(oldLens[seriesID], l)
		newCount += int64(hi - lo)
	}
	return e.maintainOrRebuild(work, newCount, []int{ShardOf(seriesID, e.shards)},
		func() (*grouping.Result, *grouping.Delta, error) {
			return grouping.AppendPoints(work, e.grouped, oldLens, e.maintenanceConfig())
		})
}

// Extend adds series to the base incrementally: the new series join the
// existing similarity groups via the Algorithm 1 assignment rule (only the
// new subsequences are clustered, once and globally), then only the affected
// shards refresh. New series ids continue after the existing ones and hash
// to their shards without disturbing the placement of old series. Like
// Append, Extend participates in the amortized rebuild policy, and the
// receiver stays valid and unchanged. New series are scaled into the
// indexed value space by core.ScaleNewSeries.
func (e *Engine) Extend(newSeries []*ts.Series) (*Engine, error) {
	if len(newSeries) == 0 {
		return nil, errors.New("core: no series to add")
	}
	if e.adapted {
		return nil, errors.New("shard: threshold-adapted engines cannot be extended; extend the original base first")
	}
	work := e.data.CloneShared()
	from := work.N()
	homes := make([]int, 0, len(newSeries))
	for _, s := range newSeries {
		if s == nil || s.Len() == 0 {
			return nil, errors.New("core: empty new series")
		}
		// Reject non-finite values at the boundary, as Build (Validate) and
		// Append (Dataset.AppendPoints) do — a NaN window would found a
		// group with a NaN representative and poison every later query.
		if i := ts.CheckFinite(s.Values); i >= 0 {
			return nil, fmt.Errorf("core: new series has non-finite value %v at index %d", s.Values[i], i)
		}
		values, err := core.ScaleNewSeries(e.cfg.Normalize, e.normMin, e.normMax, s.Values)
		if err != nil {
			return nil, err
		}
		homes = append(homes, ShardOf(work.N(), e.shards))
		work.Append(s.Label, values)
	}
	var newCount int64
	for _, s := range work.Series[from:] {
		for _, l := range e.grouped.Lengths {
			if n := s.Len() - l + 1; n > 0 {
				newCount += int64(n)
			}
		}
	}
	return e.maintainOrRebuild(work, newCount, homes,
		func() (*grouping.Result, *grouping.Delta, error) {
			return grouping.Extend(work, e.grouped, from, e.maintenanceConfig())
		})
}

func (e *Engine) maintenanceConfig() grouping.Config {
	return grouping.Config{
		ST:      e.cfg.ST,
		Seed:    e.cfg.Seed,
		Workers: e.cfg.Workers,
	}
}

// maintainOrRebuild finishes a maintenance step over the grown dataset work:
// when absorbing newCount more incremental members would push drift past
// BuildConfig.RebuildDrift (core.RebuildDue over the global drift counters,
// so every layout rebuilds at precisely the same appends), the full
// Algorithm 1 build re-runs over the final data and every shard re-derives;
// otherwise the incremental step runs and the affected shards refresh from
// the returned delta. homes lists the shards whose data grew; shards holding
// a touched group join them, everything else is reused. The rebuild's
// length set is pinned to the currently-indexed lengths — never re-resolved
// from the grown data — so crossing the drift threshold can never change
// which query lengths the base answers; within that set the result is
// exactly what a from-scratch Build over this dataset would produce.
// Progress/Cancel flow like the original build's, so a serving layer can
// abort a maintenance-triggered rebuild on shutdown.
func (e *Engine) maintainOrRebuild(work *ts.Dataset, newCount int64, homes []int,
	incremental func() (*grouping.Result, *grouping.Delta, error)) (*Engine, error) {

	rebuild := core.RebuildDue(e.cfg.RebuildDrift, e.grouped.TotalSubseq, e.grouped.IncrementalMembers, newCount)
	start := time.Now()
	next := &Engine{
		shards: e.shards, workerURLs: e.workerURLs,
		cfg: e.cfg, normMin: e.normMin, normMax: e.normMax,
		data: work, rebuilds: e.rebuilds, lastRebuild: e.lastRebuild,
	}
	if rebuild {
		gr, err := grouping.Build(work, grouping.Config{
			ST:       e.cfg.ST,
			Lengths:  e.grouped.Lengths,
			Seed:     e.cfg.Seed,
			Workers:  e.cfg.Workers,
			Progress: e.cfg.Progress,
			Cancel:   e.cfg.Cancel,
		})
		if err != nil {
			return nil, err
		}
		next.grouped = gr
		if err := next.assemble(nil, nil, nil); err != nil {
			return nil, err
		}
		next.buildTime = time.Since(start)
		next.rebuilds++
		next.lastRebuild = next.buildTime
		return next, nil
	}

	gr, delta, err := incremental()
	if err != nil {
		return nil, err
	}
	next.grouped = gr
	affected := e.affectedShards(delta, homes)
	if err := next.assemble(e, affected, delta); err != nil {
		return nil, err
	}
	next.buildTime = time.Since(start)
	return next, nil
}

// affectedShards marks the shards a maintenance delta invalidates: the home
// shards (their sub-dataset and restricted member lists grew — new groups'
// members are exclusively new positions, so homes cover them) and every
// shard holding a touched group (its representative moved, so the shard's
// Dc rows, envelope and restricted member order for that group are stale).
// All other shards' state is value-identical to a fresh derivation and is
// reused.
func (e *Engine) affectedShards(delta *grouping.Delta, homes []int) []bool {
	affected := make([]bool, e.shards)
	for _, h := range homes {
		affected[h] = true
	}
	for length, touched := range delta.Touched {
		for _, k := range touched {
			for s, p := range e.parts {
				if !affected[s] && p.has(length, k) {
					affected[s] = true
				}
			}
		}
	}
	return affected
}
