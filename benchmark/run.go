package main

import (
	"context"
	"fmt"
	"time"

	"onex"
	"onex/internal/baseline"
	"onex/internal/dist"
	"onex/internal/obs"
	"onex/internal/stats"
	"onex/internal/ts"
)

// runCtx is what one run of one workload is given.
type runCtx struct {
	seed    int64
	seconds float64 // how long the timed passes go on; 0: the size table's pass count
	traced  bool
	sz      sizes
	tr      *tracer // nil unless traced
	outDir  string  // trace files, snapshot directories
	corrupt bool    // self-test only: flip one answer so that verification must fail
}

// runWorkload runs one workload between two calibration loops and fills in
// the result's envelope-side fields.
func runWorkload(rc *runCtx, name string) (*result, error) {
	res := newResult(name)
	res.CalibBefore = calibrate()
	t0 := time.Now()
	var err error
	switch name {
	case "scan":
		err = runEmbedded(rc, res, rc.sz.scan)
	case "refine":
		err = runEmbedded(rc, res, rc.sz.refine)
	case "remote":
		err = runEmbedded(rc, res, rc.sz.remote)
	case "serve":
		err = runServe(rc, res)
	case "ingest":
		err = runIngest(rc, res)
	default:
		err = fmt.Errorf("unknown workload (have %v)", workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.WallS = time.Since(t0).Seconds()
	res.CalibAfter = calibrate()
	lo, hi := res.CalibBefore, res.CalibAfter
	if lo > hi {
		lo, hi = hi, lo
	}
	res.Noisy = hi > lo*(1+calibTolerance)
	return res, nil
}

// setups makes the workload's set-up at least rc.sz.setups times, and again
// until rc.sz.setupSeconds have gone into set-ups (a set-up of a tenth of a
// second needs more repeats than one of a second for a median as steady);
// once when traced: the traced run reports no setup_s. It returns the last
// deployment; setup_s is the median of the set-up times. discard releases a
// deployment that a later set-up replaces.
func setups[D any](rc *runCtx, res *result, setup func() (D, error), discard func(D)) (D, error) {
	n, seconds := rc.sz.setups, rc.sz.setupSeconds
	if rc.traced {
		n, seconds = 1, 0
	}
	var dep D
	var times []float64
	var spent float64
	for i := 0; i < n || spent < seconds; i++ {
		if i > 0 {
			discard(dep)
		}
		_, end := rc.tr.begin("setup", 0)
		t0 := time.Now()
		d, err := setup()
		times = append(times, time.Since(t0).Seconds())
		spent += times[i]
		end()
		if err != nil {
			var zero D
			return zero, err
		}
		dep = d
	}
	res.set("setup_s", median(times), len(times))
	return dep, nil
}

// baseExecutor answers ops on a bare onex.Base: the plain methods when
// untraced, their *Observed forms when a trace is recording.
func baseExecutor(b *onex.Base) executor {
	ctx := context.Background()
	return func(o *op, rec *obs.Trace) answer {
		switch o.fam {
		case famKNN:
			var ms []onex.Match
			var err error
			if rec == nil {
				ms, err = b.BestKMatches(o.q, o.mode, o.k)
			} else {
				ms, err = b.BestKMatchesObserved(ctx, o.q, o.mode, o.k, rec)
			}
			return answer{matches: ms, err: err}
		case famRange:
			var rs []onex.RangeMatch
			var err error
			if rec == nil {
				rs, err = b.RangeSearch(o.q, o.length, o.radius)
			} else {
				rs, err = b.RangeSearchObserved(ctx, o.q, o.length, o.radius, false, rec)
			}
			return answer{ranges: rs, err: err}
		case famSeasonal:
			var ps []onex.Pattern
			var err error
			if rec == nil {
				ps, err = b.Seasonal(o.series, o.length)
			} else {
				ps, err = b.SeasonalObserved(o.series, o.length, rec)
			}
			return answer{patterns: ps, err: err}
		case famBatch:
			a := answer{batch: make([]answer, len(o.batch))}
			for i := range o.batch {
				m, err := b.BestMatch(o.batch[i].q, o.batch[i].mode)
				a.batch[i] = answer{matches: []onex.Match{m}, err: err}
				if err != nil && a.err == nil {
					a.err = err
				}
			}
			return a
		default: // match, repeat, job: one best match
			var m onex.Match
			var err error
			if rec == nil {
				m, err = b.BestMatch(o.q, o.mode)
			} else {
				m, err = b.BestMatchObserved(ctx, o.q, o.mode, rec)
			}
			return answer{matches: []onex.Match{m}, err: err}
		}
	}
}

// oracle answers the ops marked for it with baseline.BruteForce over d and
// reports the paper's accuracy (stats.Accuracy on baseline.PerPointScale
// distances, measured from the location each system returned) of the
// workload's own answers to them. The traced run adds the baseline layer
// metrics.
func oracle(rc *runCtx, res *result, d *ts.Dataset, lengths []int, ops []*op, answers []answer, onexMS []float64) error {
	bf, err := baseline.NewBruteForce(d)
	if err != nil {
		return err
	}
	_, end := rc.tr.begin("baseline.BruteForce", 0)
	defer end()
	var system, exact, bruteMS, ours []float64
	for i, o := range ops {
		if !o.oracle || answers[i].err != nil || len(answers[i].matches) != 1 {
			continue
		}
		cand := lengths
		if o.mode == onex.MatchExact {
			cand = []int{len(o.q)}
		}
		t0 := time.Now()
		ex, err := bf.BestMatchScale(o.q, cand, baseline.PerPointScale)
		bruteMS = append(bruteMS, ms(time.Since(t0)))
		res.Attempted++
		if err != nil {
			res.fail("oracle query %d: %v", i, err)
			continue
		}
		m := answers[i].matches[0]
		if m.SeriesID >= d.N() || !d.Series[m.SeriesID].CheckRange(m.Start, m.Length) {
			res.fail("oracle query %d: answer outside the dataset", i)
			continue
		}
		w := d.Series[m.SeriesID].Values[m.Start : m.Start+m.Length]
		system = append(system, dist.DTW(o.q, w)/baseline.PerPointScale(len(o.q), m.Length))
		exact = append(exact, ex.Dist)
		ours = append(ours, onexMS[i])
	}
	acc, err := stats.Accuracy(system, exact)
	if err != nil {
		res.Attempted++
		res.fail("accuracy: %v", err)
		return nil
	}
	res.set("accuracy_pct", acc, len(exact))
	if rc.traced {
		res.set("baseline.brute_ms_per_q", stats.Mean(bruteMS), len(bruteMS))
		res.set("baseline.speedup_x", stats.Mean(bruteMS)/stats.Mean(ours), len(ours))
	}
	return nil
}

// queryLayers derives the query.* layer metrics from the engine's traces
// of the last traced pass: the work counters each trace rolled up and the
// self time of the scan and refine spans.
func queryLayers(rc *runCtx, res *result, tm *timings) {
	type tally struct{ n, reps, kim, keogh, dtw, members, lengths int64 }
	fams := map[string]*tally{}
	var all tally
	for i, o := range tm.ops {
		v := tm.views[i]
		if v == nil || (o.fam != famMatch && o.fam != famKNN && o.fam != famRange) {
			continue
		}
		t := fams[o.fam]
		if t == nil {
			t = &tally{}
			fams[o.fam] = t
		}
		for _, x := range []*tally{t, &all} {
			x.n++
			x.reps += v.Work["repsExamined"]
			x.kim += v.Work["prunedByKim"]
			x.keogh += v.Work["prunedByKeogh"]
			x.dtw += v.Work["dtwComputed"]
			x.members += v.Work["membersTested"]
			x.lengths += v.Work["lengthsVisited"]
		}
	}
	res.Work = map[string]map[string]int64{}
	for f, t := range fams {
		res.Work[f] = map[string]int64{
			"queries": t.n, "repsExamined": t.reps, "prunedByKim": t.kim, "prunedByKeogh": t.keogh,
			"dtwComputed": t.dtw, "membersTested": t.members, "lengthsVisited": t.lengths,
		}
	}
	m := fams[famMatch]
	if all.n == 0 || m == nil {
		return
	}
	// The pruning cascade's counters describe the representative scan of
	// best-match queries; on k-NN and range queries the same counters also
	// tick per group member, so the scan's shares are taken over matches.
	n, mn := float64(all.n), float64(m.n)
	res.set("query.reps_examined_per_q", float64(m.reps)/mn, int(m.n))
	res.set("query.kim_pruned_share", float64(m.kim)/float64(max(m.reps, 1)), int(m.n))
	res.set("query.keogh_pruned_share", float64(m.keogh)/float64(max(m.reps, 1)), int(m.n))
	res.set("query.dtw_per_q", float64(m.dtw)/mn, int(m.n))
	res.set("query.lengths_visited_per_q", float64(m.lengths)/mn, int(m.n))
	res.set("query.members_tested_per_q", float64(all.members)/n, int(all.n))

	// A range search is one span in the engine (range-scan, and its
	// shard-, rpc- and worker- forms): it runs one DTW against each group's
	// representative and then verifies members. Its time is split between
	// scan and refine as its own counters split its DTWs: one per
	// representative examined, the rest on members.
	rc.tr.finish()
	self, requests := rc.tr.selfByName()
	var scan, refine, ranged float64
	for _, name := range []string{"scan", "shard-scan", "rpc-scan", "rpc-scanfixed", "worker-scan", "worker-scanfixed"} {
		scan += self[name]
	}
	for _, name := range []string{"refine", "rpc-members", "worker-members"} {
		refine += self[name]
	}
	for _, name := range []string{"range-scan", "shard-range", "rpc-range", "worker-range"} {
		ranged += self[name]
	}
	if r := fams[famRange]; r != nil && r.dtw > 0 {
		onReps := float64(r.reps) / float64(r.dtw)
		scan += ranged * onReps
		refine += ranged * (1 - onReps)
	}
	traced := requests[famMatch] + requests[famKNN] + requests[famRange]
	res.set("query.scan_ms_per_q", scan/float64(traced), traced)
	res.set("query.refine_ms_per_q", refine/float64(traced), traced)
	res.set("obs.tracing_overhead_pct", (stats.Mean(tm.tracedMean)/stats.Mean(tm.passMean)-1)*100, len(tm.ops))
}
