package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"onex"
	"onex/internal/core"
	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/rspace"
	"onex/internal/shardrpc"
	"onex/internal/stats"
)

// embedded is the deployment of scan, refine and remote: one onex.Base
// called directly, for remote with its shards on loopback workers.
type embedded struct {
	in      *inputs
	base    *onex.Base
	workers []*httptest.Server
	lists   [][]op
	buildS  float64
}

func (e *embedded) close() {
	if e == nil {
		return
	}
	if e.base != nil {
		_ = e.base.Close() // releases idle worker connections; nothing to report
	}
	for _, w := range e.workers {
		w.Close()
	}
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func (sz embeddedSizes) options(in *inputs) onex.Options {
	return onex.Options{ST: st, Lengths: in.lengths, Seed: populationSeed, Parallelism: sz.parallelism, Shards: sz.shards}
}

// setupEmbedded generates the inputs and the op list from the seed and
// builds the base, shipping its shards when the workload has workers.
func setupEmbedded(rc *runCtx, name string, sz embeddedSizes) (*embedded, error) {
	e := &embedded{in: generate(sz.data, sz.removed, rc.seed)}
	in := e.in
	qlens := in.queryLengths()
	var ops []op
	for i, q := range in.queries(sz.matchAny, qlens, bothKinds) {
		ops = append(ops, op{fam: famMatch, q: q, mode: onex.MatchAny, oracle: i < min(sz.oracle, pinnedOf(sz.matchAny))})
	}
	for _, q := range in.queries(sz.matchExact, qlens, bothKinds) {
		ops = append(ops, op{fam: famMatch, q: q, mode: onex.MatchExact})
	}
	for _, q := range in.queries(sz.knn, qlens, bothKinds) {
		ops = append(ops, op{fam: famKNN, q: q, mode: onex.MatchExact, k: sz.k})
	}
	for _, q := range in.queries(sz.ranges, qlens, inDataset) {
		ops = append(ops, op{fam: famRange, q: q, length: len(q), radius: sz.radius})
	}
	e.lists = [][]op{ops}

	opts := sz.options(in)
	for i := 0; i < sz.workers; i++ {
		w := httptest.NewServer(shardrpc.NewWorker(quietLogger()).Handler())
		e.workers = append(e.workers, w)
		opts.ShardWorkers = append(opts.ShardWorkers, w.URL)
	}
	t0 := time.Now()
	b, err := onex.Build(name, in.series, opts)
	if err != nil {
		e.close()
		return nil, err
	}
	e.buildS = time.Since(t0).Seconds()
	e.base = b
	return e, nil
}

func runEmbedded(rc *runCtx, res *result, sz embeddedSizes) error {
	e, err := setups(rc, res,
		func() (*embedded, error) { return setupEmbedded(rc, res.Workload, sz) },
		(*embedded).close)
	if err != nil {
		return err
	}
	defer e.close()

	exec := baseExecutor(e.base)
	totals0 := shardrpc.Fleet().Totals()
	tm := measure(rc, res, e.lists, exec, len(e.in.series))
	tm.reportFamily(res, famMatch, "match")
	tm.reportFamily(res, famKNN, "knn")
	tm.reportFamily(res, famRange, "range")
	res.set("throughput_ops_s", median(tm.passOps), tm.timed)
	res.set("heap_live_mb", heapLiveMB(), 1)

	if err := oracle(rc, res, e.in.dataset(), e.in.lengths, tm.ops, tm.ref, tm.perOp); err != nil {
		return err
	}

	// remote: every answer must equal the in-process shards' answer.
	var local *onex.Base
	var localBuildS float64
	if sz.workers > 0 {
		t0 := time.Now()
		local, err = onex.Build(res.Workload, e.in.series, sz.options(e.in))
		if err != nil {
			return err
		}
		localBuildS = time.Since(t0).Seconds()
		tm.compareWith(res, "in-process shards", baseExecutor(local))
	}

	if !rc.traced {
		return nil
	}
	queryLayers(rc, res, tm)
	distLayers(rc, res, e.in, tm.ops)
	probe := e.base
	if sz.workers > 0 {
		// The build and snapshot layers are probed on a monolithic base
		// over the same inputs; remoteLayers needs it as well.
		mono := sz.options(e.in)
		mono.Shards = 0
		if probe, err = onex.Build(res.Workload, e.in.series, mono); err != nil {
			return err
		}
		if err := remoteLayers(rc, res, sz, e, tm, probe, local, localBuildS, totals0); err != nil {
			return err
		}
	}
	if err := buildLayers(rc, res, e.in, sz.parallelism); err != nil {
		return err
	}
	if err := snapshotLayers(rc, res, probe); err != nil {
		return err
	}
	if sz.workers == 0 {
		if err := embeddedLayers(rc, res, sz, e, tm); err != nil {
			return err
		}
	}
	return nil
}

// distLayers times the distance kernels on query × same-length subsequence
// pairs drawn from the workload: full DTW per cell, ordered LB_Keogh and
// the envelope per point, LB_Kim per call.
func distLayers(rc *runCtx, res *result, in *inputs, ops []*op) {
	_, end := rc.tr.begin("dist kernels", 0)
	defer end()
	type pair struct {
		q, c, up, lo []float64
		order        []int
	}
	var pairs []pair
	var cells, points float64
	for i, o := range ops {
		if o.fam != famMatch || len(pairs) == 32 {
			continue
		}
		c := in.series[(i*7)%len(in.series)].Values[:len(o.q)]
		up, lo := dist.Envelope(c, len(c)-1, nil, nil)
		pairs = append(pairs, pair{o.q, c, up, lo, dist.QueryOrder(o.q)})
		cells += float64(len(o.q) * len(c))
		points += float64(len(o.q))
	}
	// Each kernel runs over all pairs until 30 ms have gone by.
	timeKernel := func(f func(p *pair)) float64 {
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < 30*time.Millisecond {
			for i := range pairs {
				f(&pairs[i])
			}
			reps++
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reps)
	}
	var ws dist.Workspace
	var sink float64
	res.set("dist.dtw_ns_per_cell", timeKernel(func(p *pair) { sink += ws.DTW(p.q, p.c) })/cells, len(pairs))
	res.set("dist.lbkeogh_ns_per_point", timeKernel(func(p *pair) {
		sink += dist.LBKeoghOrdered(p.q, p.up, p.lo, p.order, math.Inf(1))
	})/points, len(pairs))
	res.set("dist.lbkim_ns_per_call", timeKernel(func(p *pair) { sink += dist.LBKim(p.q, p.c) })/float64(len(pairs)), len(pairs))
	var up, lo []float64
	res.set("dist.envelope_ns_per_point", timeKernel(func(p *pair) { up, lo = dist.Envelope(p.c, len(p.c)-1, up, lo) })/points, len(pairs))
	calibSink += sink
}

// buildLayers splits a build into its two layers by calling them the way
// core.Build does: grouping.Build over the prepared dataset, then
// rspace.New over the grouping.
func buildLayers(rc *runCtx, res *result, in *inputs, workers int) error {
	work, _, _, err := core.PrepareDataset(in.dataset(), core.NormalizeDataset)
	if err != nil {
		return err
	}
	_, end := rc.tr.begin("grouping.Build", 0)
	t0 := time.Now()
	gr, err := grouping.Build(work, grouping.Config{ST: st, Lengths: in.lengths, Seed: populationSeed, Workers: workers})
	end()
	if err != nil {
		return err
	}
	res.set("grouping.build_s", time.Since(t0).Seconds(), 1)
	res.set("grouping.groups", float64(gr.TotalGroups()), 1)
	res.set("grouping.subsequences", float64(gr.TotalSubseq), 1)
	_, end = rc.tr.begin("rspace.New", 0)
	t0 = time.Now()
	rb, err := rspace.New(work, gr, rspace.Options{})
	end()
	if err != nil {
		return err
	}
	res.set("rspace.new_s", time.Since(t0).Seconds(), 1)
	res.set("rspace.index_mb", float64(rb.SizeBytes())/(1<<20), 1)
	return nil
}

// snapshotLayers times Base.Save and onex.Load on a memory buffer.
func snapshotLayers(rc *runCtx, res *result, b *onex.Base) error {
	var buf bytes.Buffer
	_, end := rc.tr.begin("Base.Save", 0)
	t0 := time.Now()
	err := b.Save(&buf)
	end()
	if err != nil {
		return err
	}
	res.set("core.save_ms", ms(time.Since(t0)), 1)
	res.set("core.snapshot_mb", float64(buf.Len())/(1<<20), 1)
	_, end = rc.tr.begin("onex.Load", 0)
	t0 = time.Now()
	_, err = onex.Load(bytes.NewReader(buf.Bytes()))
	end()
	if err != nil {
		return err
	}
	res.set("core.load_ms", ms(time.Since(t0)), 1)
	return nil
}

// embeddedLayers takes the layer metrics only scan and refine have: the
// seasonal and any-length k-NN families, a batch against single calls, and
// on scan the same matches at Parallelism 2.
func embeddedLayers(rc *runCtx, res *result, sz embeddedSizes, e *embedded, tm *timings) error {
	b, in := e.base, e.in
	_, end := rc.tr.begin("seasonal", 0)
	t0 := time.Now()
	for i := 0; i < sz.seasonal; i++ {
		res.Attempted++
		if _, err := b.Seasonal(i%len(in.series), in.lengths[i%len(in.lengths)]); err != nil {
			res.fail("seasonal %d: %v", i, err)
		}
	}
	end()
	res.set("query.seasonal_us", float64(time.Since(t0).Microseconds())/float64(sz.seasonal), sz.seasonal)

	var matchQs [][]float64
	for _, o := range tm.ops {
		if o.fam == famMatch && o.mode == onex.MatchAny {
			matchQs = append(matchQs, o.q)
		}
	}
	_, end = rc.tr.begin("knn any", 0)
	t0 = time.Now()
	for _, q := range matchQs[:sz.knnAny] {
		res.Attempted++
		a := answer{}
		a.matches, a.err = b.BestKMatches(q, onex.MatchAny, sz.k)
		if err := a.check(&op{fam: famKNN, k: sz.k}, len(in.series)); err != nil {
			res.fail("knn any: %v", err)
		}
	}
	end()
	res.set("query.knn_any_ms", ms(time.Since(t0))/float64(sz.knnAny), sz.knnAny)

	batch := matchQs[:sz.batch]
	_, end = rc.tr.begin("batch", 0)
	t0 = time.Now()
	singles := make([]onex.Match, len(batch))
	for i, q := range batch {
		singles[i], _ = b.BestMatch(q, onex.MatchAny) // these queries already answered without error in every pass
	}
	single := time.Since(t0)
	t0 = time.Now()
	rs := b.BestMatchBatch(context.Background(), batch, onex.MatchAny)
	batched := time.Since(t0)
	end()
	for i := range rs {
		res.Attempted++
		if rs[i].Err != nil || rs[i].Match.Distance != singles[i].Distance || rs[i].Match.Start != singles[i].Start || rs[i].Match.SeriesID != singles[i].SeriesID {
			res.fail("batch item %d differs from the single call", i)
		}
	}
	res.set("query.batch_speedup_x", single.Seconds()/batched.Seconds(), len(batch))

	if res.Workload != "scan" || runtime.NumCPU() < 2 {
		return nil
	}
	opts := sz.options(in)
	opts.Parallelism = 2
	_, end = rc.tr.begin("Parallelism 2", 0)
	defer end()
	p2, err := onex.Build(res.Workload, in.series, opts)
	if err != nil {
		return err
	}
	var matches []op
	var p1 []float64
	for i, o := range tm.ops {
		if o.fam == famMatch {
			matches = append(matches, *o)
			p1 = append(p1, tm.perOp[i])
		}
	}
	exec := baseExecutor(p2)
	runPass([][]op{matches}, exec, false) // warm
	p := runPass([][]op{matches}, exec, false)
	for i := range matches {
		res.Attempted++
		if p.answers[i].err != nil || p.answers[i].digest() != tm.refDigest[i] {
			res.fail("Parallelism 2: match %d differs from Parallelism 1", i)
		}
	}
	res.set("parallel.match_speedup_p2", stats.Mean(p1)/(ms(p.wall)/float64(len(matches))), len(matches))
	return nil
}

// remoteLayers takes the shard and shardrpc layer metrics: the workload's
// queries on a monolithic, a one-shard and the four-shard in-process base,
// and the RPCs, bytes and wire/worker time the traced pass's rpc-* spans
// and the fleet totals report.
func remoteLayers(rc *runCtx, res *result, sz embeddedSizes, e *embedded, tm *timings, mono, local *onex.Base, localBuildS float64, totals0 shardrpc.FleetTotals) error {
	_, end := rc.tr.begin("shard layouts", 0)
	defer end()
	one := sz.options(e.in)
	one.Shards = 1
	local1, err := onex.Build(res.Workload, e.in.series, one)
	if err != nil {
		return err
	}
	// One warm pass, one timed pass per layout; per-family mean latency.
	famMean := func(b *onex.Base) map[string]float64 {
		exec := baseExecutor(b)
		runPass(e.lists, exec, false)
		p := runPass(e.lists, exec, false)
		sum, n := map[string]float64{}, map[string]float64{}
		for i, o := range tm.ops {
			sum[o.fam] += ms(p.lat[i])
			n[o.fam]++
		}
		for f := range sum {
			sum[f] /= n[f]
		}
		return sum
	}
	monoMean, oneMean, fourMean := famMean(mono), famMean(local1), famMean(local)
	res.set("shard.local1_vs_mono_x", oneMean[famMatch]/monoMean[famMatch], sz.matchAny)
	res.set("shard.local4_match_ms", fourMean[famMatch], sz.matchAny)
	res.set("shard.local4_knn_ms", fourMean[famKNN], sz.knn)
	var idx4 int64
	for _, s := range local.Stats().PerShard {
		idx4 += s.IndexBytes
	}
	res.set("shard.index_overhead_x", float64(idx4)/float64(mono.Stats().IndexBytes), 1)

	rpcs, queries := map[string]float64{}, map[string]float64{}
	var bytesMoved, wireUS, workerUS, n float64
	for i, o := range tm.ops {
		v := tm.views[i]
		if v == nil {
			continue
		}
		queries[o.fam]++
		n++
		for _, s := range v.Spans {
			if !strings.HasPrefix(s.Name, "rpc-") {
				continue
			}
			for _, a := range s.Attrs {
				switch a.Key {
				case "attempts":
					rpcs[o.fam] += float64(a.Value)
				case "reqBytes", "respBytes":
					bytesMoved += float64(a.Value)
				case "wireMicros":
					wireUS += float64(a.Value)
				case "workerMicros":
					workerUS += float64(a.Value)
				}
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("remote: the traced pass recorded no request")
	}
	res.set("shardrpc.rpcs_per_match", rpcs[famMatch]/queries[famMatch], int(queries[famMatch]))
	res.set("shardrpc.rpcs_per_knn", rpcs[famKNN]/queries[famKNN], int(queries[famKNN]))
	res.set("shardrpc.rpcs_per_range", rpcs[famRange]/queries[famRange], int(queries[famRange]))
	res.set("shardrpc.bytes_per_q", bytesMoved/n, int(n))
	res.set("shardrpc.wire_ms_per_q", wireUS/1e3/n, int(n))
	res.set("shardrpc.worker_ms_per_q", workerUS/1e3/n, int(n))
	totals := shardrpc.Fleet().Totals()
	res.set("shardrpc.retries", float64(totals.Retries-totals0.Retries), 1)
	res.set("shardrpc.reships", float64(totals.Reships-totals0.Reships), 1)
	res.set("shardrpc.ship_s", e.buildS-localBuildS, 1)
	return nil
}
