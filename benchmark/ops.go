package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"onex"
	"onex/internal/obs"
)

// Query families. A family is what a percentile is taken over.
const (
	famMatch    = "match"
	famRepeat   = "repeat" // a match drawn from the hot set (serve)
	famKNN      = "knn"
	famRange    = "range"
	famSeasonal = "seasonal"
	famBatch    = "batch"
	famJob      = "job"
)

// op is one pre-generated operation of a workload's fixed list.
type op struct {
	fam    string
	q      []float64
	mode   onex.MatchMode
	k      int     // knn: neighbours wanted
	length int     // range, seasonal: subsequence length
	radius float64 // range
	series int     // seasonal
	batch  []op    // batch: its items (matches)
	oracle bool    // a match also answered by baseline.BruteForce; always a pinned candidate
	client int     // serve: which closed-loop client sends it
	path   string  // serve: the request path
	body   []byte  // serve: the request body, encoded before timing starts (nil: a GET)
}

// answer is what an operation returned, in the program's own types; it is
// reduced to a digest only after the clock has stopped.
type answer struct {
	matches  []onex.Match
	ranges   []onex.RangeMatch
	patterns []onex.Pattern
	batch    []answer
	err      error

	view *obs.View // the engine's trace, when the pass is traced

	// serve only
	raw                 []byte // the reply body, until decode
	explained           bool   // raw wraps the result together with the engine's trace
	reqBytes, respBytes int
	polls               int
}

// executor runs one op against a deployment. rec is nil on untraced passes.
type executor func(o *op, rec *obs.Trace) answer

// digest folds every located distance of an answer into one number:
// two answers are bit-identical exactly when their digests are equal
// (math.Float64bits of each distance is part of it).
func (a *answer) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	putMatch := func(m onex.Match) {
		put(uint64(m.SeriesID))
		put(uint64(m.Start))
		put(uint64(m.Length))
		put(math.Float64bits(m.Distance))
	}
	var walk func(a *answer)
	walk = func(a *answer) {
		put(uint64(len(a.matches)))
		for _, m := range a.matches {
			putMatch(m)
		}
		put(uint64(len(a.ranges)))
		for _, m := range a.ranges {
			putMatch(m.Match)
			if m.Guaranteed {
				put(1)
			} else {
				put(0)
			}
		}
		put(uint64(len(a.patterns)))
		for _, p := range a.patterns {
			put(uint64(p.Length))
			for _, o := range p.Occurrences {
				put(uint64(o.SeriesID))
				put(uint64(o.Start))
			}
			for _, v := range p.Representative {
				put(math.Float64bits(v))
			}
		}
		for i := range a.batch {
			walk(&a.batch[i])
		}
	}
	walk(a)
	return h.Sum64()
}

// check applies the per-family validity rules to one answer: a match is a
// finite distance at a real location; k-NN answers are sorted, distinct and
// of length k; range answers lie within the radius. numSeries is the
// series count of the searched dataset.
func (a *answer) check(o *op, numSeries int) error {
	if a.err != nil {
		return a.err
	}
	located := func(m onex.Match) error {
		if m.SeriesID < 0 || m.SeriesID >= numSeries || m.Start < 0 || m.Length < 1 {
			return fmt.Errorf("match located at series %d start %d length %d", m.SeriesID, m.Start, m.Length)
		}
		if math.IsNaN(m.Distance) || math.IsInf(m.Distance, 0) || m.Distance < 0 {
			return fmt.Errorf("distance %v", m.Distance)
		}
		return nil
	}
	switch o.fam {
	case famMatch, famRepeat, famJob:
		if len(a.matches) != 1 {
			return fmt.Errorf("%d matches, want 1", len(a.matches))
		}
		return located(a.matches[0])
	case famKNN:
		if len(a.matches) != o.k {
			return fmt.Errorf("%d neighbours, want %d", len(a.matches), o.k)
		}
		seen := map[subseq]bool{}
		for i, m := range a.matches {
			if err := located(m); err != nil {
				return err
			}
			if i > 0 && m.Distance < a.matches[i-1].Distance {
				return fmt.Errorf("neighbours not sorted at %d", i)
			}
			k := subseq{m.SeriesID, m.Start, m.Length}
			if seen[k] {
				return fmt.Errorf("neighbour %d repeats an earlier one", i)
			}
			seen[k] = true
		}
	case famRange:
		for _, m := range a.ranges {
			if err := located(m.Match); err != nil {
				return err
			}
			// A guaranteed match reports the ST upper bound, not its distance.
			if !m.Guaranteed && m.Distance > o.radius {
				return fmt.Errorf("range match at %v beyond radius %v", m.Distance, o.radius)
			}
			if m.Length != o.length {
				return fmt.Errorf("range match of length %d, want %d", m.Length, o.length)
			}
		}
	case famSeasonal:
		for _, p := range a.patterns {
			if p.Length != o.length || len(p.Occurrences) < 2 {
				return fmt.Errorf("seasonal pattern of length %d with %d occurrences", p.Length, len(p.Occurrences))
			}
		}
	case famBatch:
		if len(a.batch) != len(o.batch) {
			return fmt.Errorf("%d batch results, want %d", len(a.batch), len(o.batch))
		}
		for i := range a.batch {
			if err := a.batch[i].check(&o.batch[i], numSeries); err != nil {
				return fmt.Errorf("item %d: %w", i, err)
			}
		}
	}
	return nil
}

// pass is one execution of a workload's op list.
type pass struct {
	sent    []time.Time     // per op
	lat     []time.Duration // per op
	answers []answer        // per op
	wall    time.Duration
}

// runPass replays the lists, one closed-loop client per list: a client
// sends its next operation only when the previous one has answered. Op i
// of list c is ops[c][i]; the flat index used by everything else is the
// position in the concatenation of the lists. traced passes hand every op a
// fresh obs.Trace and keep its view.
func runPass(lists [][]op, exec executor, traced bool) *pass {
	n := 0
	offsets := make([]int, len(lists))
	for c, l := range lists {
		offsets[c] = n
		n += len(l)
	}
	p := &pass{sent: make([]time.Time, n), lat: make([]time.Duration, n), answers: make([]answer, n)}
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range lists[c] {
				var rec *obs.Trace
				if traced {
					rec = obs.NewTrace("")
				}
				start := time.Now()
				a := exec(&lists[c][i], rec)
				p.lat[offsets[c]+i] = time.Since(start)
				p.sent[offsets[c]+i] = start
				if a.raw != nil {
					a.decode(&lists[c][i])
				}
				if rec != nil && a.view == nil {
					v := rec.Snapshot()
					a.view = &v
				}
				p.answers[offsets[c]+i] = a
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	return p
}

func flatten(lists [][]op) []*op {
	var out []*op
	for c := range lists {
		for i := range lists[c] {
			out = append(out, &lists[c][i])
		}
	}
	return out
}

// timings is the outcome of the measurement protocol over one op list.
type timings struct {
	ops        []*op
	ref        []answer    // pass 0: the reference answers
	refDigest  []uint64    // their digests
	perOp      []float64   // ms: each op's median latency over the timed passes
	passOps    []float64   // ops/s of each timed pass
	passMean   []float64   // ms: mean op latency of each timed pass
	timed      int         // timed passes made
	tracedMean []float64   // ms: mean op latency of each traced pass
	views      []*obs.View // last traced pass: the engine's trace of each op
	tracedLat  []float64   // ms: last traced pass, per op
	tracedAns  []answer    // last traced pass
}

// tracedPasses is how many traced passes a traced run interleaves with its
// untraced ones, one for one, so that both kinds see the same machine.
const tracedPasses = 2

// measure runs the protocol of the README: pass 0 warms every cache and
// records the reference answers; then timed passes until rc.seconds have
// gone by and at least the size table's passes were made (seconds 0: exactly
// that many). A traced run makes tracedPasses untraced and as many traced
// passes instead. Every answer of every later pass must be bit-identical to
// pass 0; each that is not counts as a failure in res.
func measure(rc *runCtx, res *result, lists [][]op, exec executor, numSeries int) *timings {
	seconds, minPasses, wantTraced := rc.seconds, rc.sz.passes, 0
	if rc.traced {
		seconds, minPasses, wantTraced = 0, tracedPasses, tracedPasses
	}
	tm := &timings{ops: flatten(lists)}
	_, end := rc.tr.begin("pass-0", 0)
	p0 := runPass(lists, exec, false)
	end()
	tm.ref = p0.answers
	tm.refDigest = make([]uint64, len(tm.ops))
	for i := range tm.ops {
		res.Attempted++
		if err := tm.ref[i].check(tm.ops[i], numSeries); err != nil {
			res.fail("%s op %d: %v", tm.ops[i].fam, i, err)
		}
		tm.refDigest[i] = tm.ref[i].digest()
		// Only the oracle looks at a reference answer again; the rest (a
		// range answer can hold thousands of windows) must not count as the
		// workload's memory.
		if !tm.ops[i].oracle {
			tm.ref[i] = answer{}
		}
	}
	if rc.corrupt {
		// The self-test's fault: from here on the first match's answer is
		// off by one bit of its distance, which verification must notice.
		inner, victim := exec, tm.ops[0]
		for _, o := range tm.ops {
			if o.fam == famMatch {
				victim = o
				break
			}
		}
		exec = func(o *op, rec *obs.Trace) answer {
			a := inner(o, rec)
			if a.raw != nil {
				a.decode(o)
			}
			if o == victim && len(a.matches) > 0 {
				a.matches = append([]onex.Match(nil), a.matches...) // the hub's slices are shared
				a.matches[0].Distance = math.Nextafter(a.matches[0].Distance, math.Inf(1))
			}
			return a
		}
	}

	verify := func(p *pass, what string) {
		for i := range tm.ops {
			res.Attempted++
			if p.answers[i].err != nil {
				res.fail("%s pass: %s op %d: %v", what, tm.ops[i].fam, i, p.answers[i].err)
			} else if d := p.answers[i].digest(); d != tm.refDigest[i] {
				res.fail("%s pass: %s op %d: answer differs from pass 0", what, tm.ops[i].fam, i)
			}
		}
	}
	meanLat := func(p *pass) float64 {
		var sum time.Duration
		for _, d := range p.lat {
			sum += d
		}
		return ms(sum) / float64(len(p.lat))
	}

	var lats [][]time.Duration
	start := time.Now()
	for len(lats) < minPasses || (seconds > 0 && time.Since(start).Seconds() < seconds) {
		_, end := rc.tr.begin("timed-pass", 0)
		p := runPass(lists, exec, false)
		end()
		verify(p, "timed")
		lats = append(lats, p.lat)
		tm.passOps = append(tm.passOps, float64(len(tm.ops))/p.wall.Seconds())
		tm.passMean = append(tm.passMean, meanLat(p))
		if len(tm.tracedMean) < wantTraced {
			id, end := rc.tr.begin("traced-pass", 0)
			tp := runPass(lists, exec, true)
			end()
			verify(tp, "traced")
			for i, o := range tm.ops {
				rc.tr.request(o.fam, id, tp.sent[i], tp.lat[i], tp.answers[i].view)
			}
			tm.tracedMean = append(tm.tracedMean, meanLat(tp))
			tm.tracedAns = tp.answers
			tm.views = make([]*obs.View, len(tm.ops))
			tm.tracedLat = make([]float64, len(tm.ops))
			for i := range tm.ops {
				a := &tp.answers[i]
				tm.views[i] = a.view
				tm.tracedLat[i] = ms(tp.lat[i])
				a.matches, a.ranges, a.patterns, a.batch = nil, nil, nil, nil // verified; the sizes and the view are what is kept
			}
		}
	}
	tm.timed = len(lats)
	tm.perOp = make([]float64, len(tm.ops))
	col := make([]float64, len(lats))
	for i := range tm.ops {
		for p := range lats {
			col[p] = ms(lats[p][i])
		}
		tm.perOp[i] = median(col)
	}
	return tm
}

// family returns the per-op median latencies of one family.
func (tm *timings) family(fam string) []float64 {
	var out []float64
	for i, o := range tm.ops {
		if o.fam == fam {
			out = append(out, tm.perOp[i])
		}
	}
	return out
}

// reportFamily sets <prefix>_p50_ms, and <prefix>_p90_ms where the registry
// has it and the rule for it holds: an optional p90 needs 100 queries, ten
// samples beyond the percentile.
func (tm *timings) reportFamily(res *result, fam, prefix string) {
	lat := tm.family(fam)
	if len(lat) == 0 {
		return
	}
	res.set(prefix+"_p50_ms", median(lat), len(lat))
	if d, ok := metricByName[prefix+"_p90_ms"]; ok && d.measuredOn(res.Workload) && (d.kind != optional || len(lat) >= 100) {
		res.set(prefix+"_p90_ms", percentile(lat, 90), len(lat))
	}
}

// compareWith checks the reference answers of this run against another
// deployment's answers to the same ops (serve against the bare base, remote
// against the in-process shards): each must be bit-identical.
func (tm *timings) compareWith(res *result, what string, exec executor) {
	for i, o := range tm.ops {
		res.Attempted++
		a := exec(o, nil)
		if a.err != nil {
			res.fail("%s: %s op %d: %v", what, o.fam, i, a.err)
		} else if a.digest() != tm.refDigest[i] {
			res.fail("%s: %s op %d: answers differ", what, o.fam, i)
		}
	}
}
