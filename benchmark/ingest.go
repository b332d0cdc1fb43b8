package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"onex"
	"onex/internal/core"
	"onex/internal/grouping"
	"onex/internal/hub"
	"onex/internal/obs"
	"onex/internal/rspace"
	"onex/internal/stats"
	"onex/internal/ts"
)

// ingested is the ingest deployment: a hub that snapshots every swap to
// disk, holding `few` (few groups of many members) and `many` (many groups).
type ingested struct {
	few, many   *inputs
	dir         string
	hub         *hub.Hub
	dFew, dMany *hub.Dataset
}

func (g *ingested) close() {
	if g == nil {
		return
	}
	if g.hub != nil {
		g.hub.Close()
	}
	if g.dir != "" {
		_ = os.RemoveAll(g.dir) // scratch; a leftover directory is harmless
	}
}

func ingestSpec(in *inputs) hub.Spec {
	return hub.Spec{Series: in.series, Opts: onex.Options{ST: st, Lengths: in.lengths, Seed: populationSeed, Parallelism: 1}}
}

// open starts a hub on the snapshot directory and registers both datasets;
// where the directory already holds their snapshots the hub loads those
// instead of building.
func (g *ingested) open(rc *runCtx) error {
	g.hub = hub.New(hub.Config{SnapshotDir: g.dir, CacheEntries: rc.sz.ingest.cacheEntries})
	var err error
	if g.dFew, err = g.hub.Register("few", ingestSpec(g.few)); err != nil {
		return err
	}
	if g.dMany, err = g.hub.Register("many", ingestSpec(g.many)); err != nil {
		return err
	}
	ctx := context.Background()
	if err := g.dFew.Wait(ctx); err != nil {
		return err
	}
	return g.dMany.Wait(ctx)
}

func setupIngest(rc *runCtx) (*ingested, error) {
	sz := rc.sz.ingest
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.outDir, "ingest-snapshots-")
	if err != nil {
		return nil, err
	}
	g := &ingested{
		// few gives up the series the script extends it with, and a few more.
		few:  generate(sz.few, sz.extends*sz.extendSeries+8, rc.seed),
		many: generate(sz.many, 8, rc.seed+1),
		dir:  dir,
	}
	if err := g.open(rc); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// step is one write of the script.
type step struct {
	kind   string // "append", "extend", "append_many"
	series int
	points []float64
	extend []onex.Series
}

// script is the fixed write list: appends of a few points to rotating
// series of few, then extensions of few sized so that the drift crosses
// RebuildDrift exactly once, then appends to many. final is few's data
// after the whole script, for the oracle.
func (g *ingested) script(sz ingestSizes) (steps []step, final *ts.Dataset) {
	final = g.few.dataset()
	points := func(pool [][]float64, i int) []float64 {
		v := pool[i%len(pool)]
		off := (i / len(pool) * sz.appendPoints) % (len(v) - sz.appendPoints + 1)
		return v[off : off+sz.appendPoints]
	}
	for i := 0; i < sz.appends; i++ {
		s := step{kind: "append", series: i % len(g.few.series), points: points(g.few.removed, i)}
		final.Series[s.series].AppendPoints(s.points...)
		steps = append(steps, s)
	}
	for i := 0; i < sz.extends; i++ {
		s := step{kind: "extend"}
		for _, v := range g.few.removed[i*sz.extendSeries : (i+1)*sz.extendSeries] {
			s.extend = append(s.extend, onex.Series{Values: v})
			final.Append("", v)
		}
		steps = append(steps, s)
	}
	for i := 0; i < sz.manyAppends; i++ {
		steps = append(steps, step{kind: "append_many", series: i % len(g.many.series), points: points(g.many.removed, i)})
	}
	return steps, final
}

// hubExecutor answers reads through hub.Dataset, cache and all.
func hubExecutor(d *hub.Dataset) executor {
	ctx := context.Background()
	return func(o *op, rec *obs.Trace) answer {
		switch o.fam {
		case famRange:
			rs, err := d.RangeObserved(ctx, o.q, o.length, o.radius, false, rec)
			return answer{ranges: rs, err: err}
		default:
			ms, err := d.MatchObserved(ctx, o.q, o.mode, o.k, rec)
			return answer{matches: ms, err: err}
		}
	}
}

func runIngest(rc *runCtx, res *result) error {
	sz := rc.sz.ingest
	g, err := setups(rc, res, func() (*ingested, error) { return setupIngest(rc) }, (*ingested).close)
	if err != nil {
		return err
	}
	defer g.close()
	steps, final := g.script(sz)

	// The reader's list: distinct matches, and every readKNNEvery-th read a
	// k-NN and a range query as well. It is longer than the cache, so a read
	// never hits even when no write has purged the cache since its last turn.
	qlens := g.few.queryLengths()
	knnQs := g.few.queries(sz.readList/sz.readKNNEvery, qlens, bothKinds)
	rangeQs := g.few.queries(sz.readList/sz.readKNNEvery, qlens, inDataset)
	var reads []op
	for i, q := range g.few.queries(sz.readList, qlens, bothKinds) {
		reads = append(reads, op{fam: famMatch, q: q, mode: onex.MatchAny, k: 1, oracle: i < min(sz.oracle, pinnedOf(sz.readList))})
		if j := i / sz.readKNNEvery; i%sz.readKNNEvery == 0 && j < len(knnQs) {
			reads = append(reads, op{fam: famKNN, q: knnQs[j], mode: onex.MatchExact, k: sz.k})
			reads = append(reads, op{fam: famRange, q: rangeQs[j], length: len(rangeQs[j]), radius: sz.radius})
		}
	}
	finalSeries := len(g.few.series) + sz.extends*sz.extendSeries

	// One writer runs the script while one reader loops its list on few.
	type read struct {
		op     *op
		lat    time.Duration
		sent   time.Time
		view   *obs.View
		traced bool
		err    error
	}
	var done atomic.Bool
	var log []read
	readerDone := make(chan struct{})
	exec := hubExecutor(g.dFew)
	go func() {
		defer close(readerDone)
		asked := map[string]int{}
		for i := 0; !done.Load(); i++ {
			o := &reads[i%len(reads)]
			var rec *obs.Trace
			// A traced run traces every second pair of reads of each family
			// (pairs: neighbours in a family alternate between in- and
			// out-of-dataset queries), so that traced and untraced reads
			// sample the same mix beside the same writes.
			asked[o.fam]++
			if rc.traced && asked[o.fam]/2%2 == 1 {
				rec = obs.NewTrace("")
			}
			t0 := time.Now()
			a := exec(o, rec)
			r := read{op: o, lat: time.Since(t0), sent: t0, traced: rec != nil}
			if rec != nil {
				v := rec.Snapshot()
				r.view = &v
			}
			r.err = a.check(o, finalSeries)
			log = append(log, r)
		}
	}()

	lat := map[string][]float64{}
	var swaps []float64
	_, endScript := rc.tr.begin("script", 0)
	t0 := time.Now()
	for i, s := range steps {
		res.Attempted++
		var err error
		start := time.Now()
		switch s.kind {
		case "append":
			if rc.traced && i < sz.swapProbes {
				// The same step on the bare base first: the hub's own share
				// of an append is what it costs beyond that.
				base, _, berr := g.dFew.Base()
				if berr != nil {
					return berr
				}
				if _, berr = base.Append(s.series, s.points...); berr != nil {
					return berr
				}
				bare := time.Since(start)
				start = time.Now()
				err = g.dFew.Append(s.series, s.points)
				swaps = append(swaps, ms(time.Since(start)-bare))
			} else {
				err = g.dFew.Append(s.series, s.points)
			}
		case "extend":
			err = g.dFew.Extend(s.extend)
		case "append_many":
			err = g.dMany.Append(s.series, s.points)
		}
		lat[s.kind] = append(lat[s.kind], ms(time.Since(start)))
		if err != nil {
			res.fail("step %d (%s): %v", i, s.kind, err)
		}
	}
	writerWall := time.Since(t0)
	endScript()
	done.Store(true)
	<-readerDone

	readLat := map[string][]float64{}
	for i, r := range log {
		res.Attempted++
		if r.err != nil {
			res.fail("read %d (%s): %v", i, r.op.fam, r.err)
		}
		if !r.traced {
			readLat[r.op.fam] = append(readLat[r.op.fam], ms(r.lat))
		}
	}
	res.set("match_p50_ms", median(readLat[famMatch]), len(readLat[famMatch]))
	res.set("match_p90_ms", percentile(readLat[famMatch], 90), len(readLat[famMatch]))
	res.set("knn_p50_ms", median(readLat[famKNN]), len(readLat[famKNN]))
	res.set("range_p50_ms", median(readLat[famRange]), len(readLat[famRange]))
	res.set("throughput_ops_s", float64(len(steps))/writerWall.Seconds(), len(steps))
	res.set("append_p50_ms", median(lat["append"]), len(lat["append"]))
	res.set("extend_p50_ms", median(lat["extend"]), len(lat["extend"]))
	res.set("append_many_p50_ms", median(lat["append_many"]), len(lat["append_many"]))
	// Memory is read with the cache full of best-match answers: which range
	// answers, each as heavy as thousands of matches, the reader's last
	// turns left in it is a matter of timing.
	for i, n := 0, 0; i < len(reads) && n < 2*sz.cacheEntries; i++ {
		if reads[i].fam == famMatch {
			if a := exec(&reads[i], nil); a.err != nil {
				return a.err
			}
			n++
		}
	}
	res.set("heap_live_mb", heapLiveMB(), 1)

	// After the script: the series count and the one rebuild it was sized for.
	info := g.dFew.Info()
	res.Attempted += 2
	if info.Series != finalSeries {
		res.fail("few holds %d series after the script, want %d", info.Series, finalSeries)
	}
	if info.Rebuilds != 1 {
		res.fail("few rebuilt %d times, want exactly 1", info.Rebuilds)
	}

	// Answers before the save, to be compared with answers after the reload.
	checks := make([]op, 0, sz.check)
	for i := 0; i < sz.check; i++ {
		checks = append(checks, reads[(i*7)%len(reads)])
	}
	answersOf := func() ([]uint64, error) {
		var out []uint64
		for _, d := range []*hub.Dataset{g.dFew, g.dMany} {
			b, _, err := d.Base()
			if err != nil {
				return nil, err
			}
			x := baseExecutor(b)
			for i := range checks {
				if d == g.dMany && checks[i].fam != famMatch {
					continue // few's k-NN and range lengths are not many's
				}
				a := x(&checks[i], nil)
				if a.err != nil {
					return nil, a.err
				}
				out = append(out, a.digest())
			}
		}
		return out, nil
	}
	before, err := answersOf()
	if err != nil {
		return err
	}

	// Reload: close the hub, reopen it on the snapshot directory, wait until
	// both datasets are ready.
	var reloads []float64
	for i := 0; i < sz.reloads; i++ {
		g.hub.Close()
		_, end := rc.tr.begin("reload", 0)
		t0 := time.Now()
		err := g.open(rc)
		reloads = append(reloads, time.Since(t0).Seconds())
		end()
		if err != nil {
			return fmt.Errorf("reload: %w", err)
		}
		res.Attempted++
		if !g.dFew.Info().FromSnapshot || !g.dMany.Info().FromSnapshot {
			res.fail("reload %d rebuilt instead of loading the snapshots", i)
		}
	}
	res.set("reload_s", median(reloads), len(reloads))
	after, err := answersOf()
	if err != nil {
		return err
	}
	for i := range before {
		res.Attempted++
		if before[i] != after[i] {
			res.fail("check query %d answers differently after the reload", i)
		}
	}

	// The oracle runs on few as the script left it.
	base, _, err := g.dFew.Base()
	if err != nil {
		return err
	}
	var oracleOps []*op
	var oracleAns []answer
	var oracleMS []float64
	x := baseExecutor(base)
	for i := range reads {
		if reads[i].oracle {
			t0 := time.Now()
			a := x(&reads[i], nil)
			oracleMS = append(oracleMS, ms(time.Since(t0)))
			oracleOps = append(oracleOps, &reads[i])
			oracleAns = append(oracleAns, a)
		}
	}
	if err := oracle(rc, res, final, base.Lengths(), oracleOps, oracleAns, oracleMS); err != nil {
		return err
	}
	if !rc.traced {
		return nil
	}

	// Layer metrics. The reads traced beside the writes stand in for a
	// traced pass.
	tm := &timings{}
	var tracedMS, plainMS []float64
	id, end := rc.tr.begin("traced reads", 0)
	end()
	for i := range log {
		r := &log[i]
		// The cost of tracing is read off the matches, the one family with
		// hundreds of reads on either side.
		if r.op.fam == famMatch {
			if r.traced {
				tracedMS = append(tracedMS, ms(r.lat))
			} else {
				plainMS = append(plainMS, ms(r.lat))
			}
		}
		if !r.traced {
			continue
		}
		tm.ops = append(tm.ops, r.op)
		tm.views = append(tm.views, r.view)
		rc.tr.request(r.op.fam, id, r.sent, r.lat, r.view)
	}
	tm.tracedMean, tm.passMean = []float64{stats.Mean(tracedMS)}, []float64{stats.Mean(plainMS)}
	queryLayers(rc, res, tm)
	var matchOps []*op
	for i := range reads {
		matchOps = append(matchOps, &reads[i])
	}
	distLayers(rc, res, g.few, matchOps)
	res.set("core.rebuilds", float64(info.Rebuilds), 1)
	res.set("hub.swap_ms", median(swaps), len(swaps))
	manyBase, _, err := g.dMany.Base()
	if err != nil {
		return err
	}
	if err := snapshotLayers(rc, res, manyBase); err != nil {
		return err
	}
	return maintenanceLayers(rc, res, g, steps)
}

// maintenanceLayers calls the maintenance layers directly, the way
// core.Engine does: grouping.AppendPoints and grouping.Extend on the
// script's first steps over few, and on many a build split into its two
// layers followed by rspace.Refresh with the delta of one append.
func maintenanceLayers(rc *runCtx, res *result, g *ingested, steps []step) error {
	cfg := func(in *inputs) grouping.Config {
		return grouping.Config{ST: st, Lengths: in.lengths, Seed: populationSeed, Workers: 1}
	}
	// Maintenance steps run without a length list: the grouping carries it.
	maintain := grouping.Config{ST: st, Seed: populationSeed, Workers: 1}
	appendTo := func(d *ts.Dataset, s step) (*ts.Dataset, []int, error) {
		grown := d.CloneShared()
		old := make([]int, grown.N())
		for i, sr := range grown.Series {
			old[i] = sr.Len()
		}
		return grown, old, grown.AppendPoints(s.series, s.points)
	}

	few, _, _, err := core.PrepareDataset(g.few.dataset(), core.NormalizeDataset)
	if err != nil {
		return err
	}
	gr, err := grouping.Build(few, cfg(g.few))
	if err != nil {
		return err
	}
	fewIdx, err := rspace.New(few, gr, rspace.Options{})
	if err != nil {
		return err
	}
	const probes = 5
	var appendMS, extendMS []float64
	_, end := rc.tr.begin("grouping maintenance", 0)
	defer end()
	for _, s := range steps {
		switch {
		case s.kind == "append" && len(appendMS) < probes:
			grown, old, err := appendTo(few, s)
			if err != nil {
				return err
			}
			t0 := time.Now()
			next, delta, err := grouping.AppendPoints(grown, gr, old, maintain)
			appendMS = append(appendMS, ms(time.Since(t0)))
			if err != nil {
				return err
			}
			// No metric, a span: what the index refresh is of an append on
			// few, to read beside rspace.refresh_ms on many.
			_, endRefresh := rc.tr.begin("rspace.Refresh few", 0)
			fewIdx, err = rspace.Refresh(grown, next, rspace.Options{}, fewIdx, delta)
			endRefresh()
			if err != nil {
				return err
			}
			few, gr = grown, next
		case s.kind == "extend" && len(extendMS) < probes:
			grown := few.CloneShared()
			from := grown.N()
			for _, sr := range s.extend {
				grown.Append(sr.Label, sr.Values)
			}
			t0 := time.Now()
			next, _, err := grouping.Extend(grown, gr, from, maintain)
			extendMS = append(extendMS, ms(time.Since(t0)))
			if err != nil {
				return err
			}
			few, gr = grown, next
		}
	}
	res.set("grouping.append_ms", median(appendMS), len(appendMS))
	res.set("grouping.extend_ms", median(extendMS), len(extendMS))

	if err := buildLayers(rc, res, g.many, 1); err != nil {
		return err
	}
	many, _, _, err := core.PrepareDataset(g.many.dataset(), core.NormalizeDataset)
	if err != nil {
		return err
	}
	mgr, err := grouping.Build(many, cfg(g.many))
	if err != nil {
		return err
	}
	prev, err := rspace.New(many, mgr, rspace.Options{})
	if err != nil {
		return err
	}
	for _, s := range steps {
		if s.kind != "append_many" {
			continue
		}
		grown, old, err := appendTo(many, s)
		if err != nil {
			return err
		}
		next, delta, err := grouping.AppendPoints(grown, mgr, old, maintain)
		if err != nil {
			return err
		}
		_, endRefresh := rc.tr.begin("rspace.Refresh many", 0)
		t0 := time.Now()
		_, err = rspace.Refresh(grown, next, rspace.Options{}, prev, delta)
		endRefresh()
		if err != nil {
			return err
		}
		res.set("rspace.refresh_ms", ms(time.Since(t0)), 1)
		break
	}
	return nil
}
