package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"onex/internal/grouping"
	"onex/internal/ts"
)

// equivDataset builds a random-walk dataset whose group structure is rich
// enough to cross the parallel-path thresholds (≥ scanParallelMin reps at
// tight thresholds, ≥ 2·mineBatchSize members per group at loose ones).
func equivDataset(seed int64, n, length int) *ts.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := &ts.Dataset{Name: fmt.Sprintf("equiv-%d", seed)}
	for i := 0; i < n; i++ {
		v := make([]float64, length)
		x := r.Float64()
		for j := range v {
			x += float64(r.NormFloat64() * 0.1)
			v[j] = x
		}
		d.Append("", v)
	}
	if err := d.NormalizeMinMax(); err != nil {
		panic(err)
	}
	return d
}

// equivProcessors builds two processors over the same base differing only
// in their worker count: 1 and 8.
func equivProcessors(t *testing.T, d *ts.Dataset, st float64, lengths []int) (seq, par *engine) {
	t.Helper()
	gr, err := grouping.Build(d, grouping.Config{ST: st, Lengths: lengths, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err = newEngine(d, gr, 1); err != nil {
		t.Fatal(err)
	}
	if par, err = newEngine(d, gr, 8); err != nil {
		t.Fatal(err)
	}
	return seq, par
}

// randomQuery draws either an in-dataset window (possibly perturbed) or a
// fresh random walk.
func randomQuery(r *rand.Rand, d *ts.Dataset, length int) []float64 {
	q := make([]float64, length)
	if r.Intn(2) == 0 {
		s := d.Series[r.Intn(d.N())]
		start := r.Intn(s.Len() - length + 1)
		copy(q, s.Values[start:start+length])
		if r.Intn(2) == 0 {
			for i := range q {
				q[i] += float64(r.NormFloat64() * 0.02)
			}
		}
		return q
	}
	x := r.Float64()
	for i := range q {
		x += float64(r.NormFloat64() * 0.1)
		q[i] = x
	}
	return q
}

func sameMatch(t *testing.T, ctx string, a, b Match) {
	t.Helper()
	if a.SeriesID != b.SeriesID || a.Start != b.Start || a.Length != b.Length || a.GroupID != b.GroupID {
		t.Fatalf("%s: match identity differs: seq=%+v par=%+v", ctx, a, b)
	}
	if math.Abs(a.Dist-b.Dist) > 1e-12 {
		t.Fatalf("%s: distance differs: seq=%v par=%v", ctx, a.Dist, b.Dist)
	}
}

// TestParallelEquivalenceBestMatch drives hundreds of random (dataset,
// query) pairs through Parallelism=1 and Parallelism=8 processors and
// requires identical answers: same subsequence, same group, distance within
// 1e-12. Thresholds are swept from tight (many groups → parallel rep scan)
// to loose (few huge groups → parallel group mining).
func TestParallelEquivalenceBestMatch(t *testing.T) {
	sts := []float64{0.05, 0.15, 0.3, 0.8}
	queries := 0
	for ds := 0; ds < 10; ds++ {
		d := equivDataset(int64(100+ds), 14, 48)
		st := sts[ds%len(sts)]
		seq, par := equivProcessors(t, d, st, []int{8, 12, 20})
		r := rand.New(rand.NewSource(int64(900 + ds)))
		for qi := 0; qi < 10; qi++ {
			qlen := []int{8, 12, 20, 15}[qi%4] // 15 is unindexed → MatchAny length walk
			q := randomQuery(r, d, qlen)
			for _, mode := range []MatchMode{MatchExact, MatchAny} {
				ctx := fmt.Sprintf("ds=%d st=%v qlen=%d mode=%d", ds, st, qlen, mode)
				ms, trs, errS := seq.BestMatchTraced(q, mode)
				mp, trp, errP := par.BestMatchTraced(q, mode)
				if (errS == nil) != (errP == nil) {
					t.Fatalf("%s: error divergence: seq=%v par=%v", ctx, errS, errP)
				}
				if errS != nil {
					continue
				}
				sameMatch(t, ctx, ms, mp)
				// The logical walk is identical, so the decision-level
				// counters must agree exactly (only DTWComputed may differ:
				// parallelism affects which DTWs are proven vs computed).
				if trs.MembersTested != trp.MembersTested || trs.RepsExamined != trp.RepsExamined ||
					trs.LengthsVisited != trp.LengthsVisited {
					t.Fatalf("%s: decision counters diverge: seq=%+v par=%+v", ctx, trs, trp)
				}
				queries++
			}
		}
	}
	if queries < 150 {
		t.Fatalf("only %d successful equivalence checks; want hundreds", queries)
	}
}

// TestParallelEquivalenceBestKMatches: identical ordered k-NN result lists
// across parallelism settings.
func TestParallelEquivalenceBestKMatches(t *testing.T) {
	checks := 0
	for ds := 0; ds < 6; ds++ {
		d := equivDataset(int64(300+ds), 12, 40)
		st := []float64{0.08, 0.25, 0.9}[ds%3]
		seq, par := equivProcessors(t, d, st, []int{7, 11})
		r := rand.New(rand.NewSource(int64(700 + ds)))
		for qi := 0; qi < 8; qi++ {
			q := randomQuery(r, d, []int{7, 11}[qi%2])
			for _, k := range []int{1, 3, 10} {
				ctx := fmt.Sprintf("ds=%d k=%d qi=%d", ds, k, qi)
				as, errS := seq.BestKMatches(q, MatchAny, k)
				ap, errP := par.BestKMatches(q, MatchAny, k)
				if (errS == nil) != (errP == nil) {
					t.Fatalf("%s: error divergence: seq=%v par=%v", ctx, errS, errP)
				}
				if errS != nil {
					continue
				}
				if len(as) != len(ap) {
					t.Fatalf("%s: result count differs: %d vs %d", ctx, len(as), len(ap))
				}
				for i := range as {
					sameMatch(t, fmt.Sprintf("%s i=%d", ctx, i), as[i], ap[i])
				}
				checks++
			}
		}
	}
	if checks < 100 {
		t.Fatalf("only %d k-NN equivalence checks; want hundreds of result lists", checks)
	}
}

// TestParallelEquivalenceRangeSearch: identical result sets, in identical
// (group-ordered) output order, including the Guaranteed wholesale flags.
func TestParallelEquivalenceRangeSearch(t *testing.T) {
	checks := 0
	for ds := 0; ds < 6; ds++ {
		d := equivDataset(int64(500+ds), 12, 40)
		st := []float64{0.1, 0.3, 0.7}[ds%3]
		seq, par := equivProcessors(t, d, st, []int{9})
		r := rand.New(rand.NewSource(int64(800 + ds)))
		for qi := 0; qi < 8; qi++ {
			q := randomQuery(r, d, 9)
			for _, radius := range []float64{st / 2, st, 2 * st} {
				ctx := fmt.Sprintf("ds=%d radius=%v qi=%d", ds, radius, qi)
				rs, errS := seq.RangeSearch(q, 9, radius)
				rp, errP := par.RangeSearch(q, 9, radius)
				if (errS == nil) != (errP == nil) {
					t.Fatalf("%s: error divergence: seq=%v par=%v", ctx, errS, errP)
				}
				if len(rs) != len(rp) {
					t.Fatalf("%s: result count differs: %d vs %d", ctx, len(rs), len(rp))
				}
				for i := range rs {
					if rs[i].Guaranteed != rp[i].Guaranteed {
						t.Fatalf("%s i=%d: Guaranteed flag differs", ctx, i)
					}
					sameMatch(t, fmt.Sprintf("%s i=%d", ctx, i), rs[i].Match, rp[i].Match)
				}
				checks++
			}
		}
	}
	if checks < 100 {
		t.Fatalf("only %d range equivalence checks", checks)
	}
}

// TestParallelEquivalenceHugeGroup pins the batched group-mining path
// specifically: a loose threshold collapses everything into one giant group
// (hundreds of members ≥ 2·mineBatchSize), where patience decisions are the
// part that must replay identically — across round boundaries, so at least
// one walk spans two rounds.
func TestParallelEquivalenceHugeGroup(t *testing.T) {
	d := equivDataset(4242, 24, 64)
	seq, par := equivProcessors(t, d, 2.0, []int{16})
	if g := seq.grouped.ByLength[16].Groups; len(g) > 4 {
		t.Fatalf("threshold not loose enough: %d groups", len(g))
	}
	r := rand.New(rand.NewSource(99))
	longest := 0
	for qi := 0; qi < 20; qi++ {
		q := randomQuery(r, d, 16)
		ms, trs, errS := seq.BestMatchTraced(q, MatchExact)
		mp, trp, errP := par.BestMatchTraced(q, MatchExact)
		if errS != nil || errP != nil {
			t.Fatalf("unexpected errors %v / %v", errS, errP)
		}
		ctx := fmt.Sprintf("qi=%d", qi)
		sameMatch(t, ctx, ms, mp)
		if trs.MembersTested != trp.MembersTested {
			t.Fatalf("%s: patience replay diverged: seq tested %d, par tested %d",
				ctx, trs.MembersTested, trp.MembersTested)
		}
		longest = max(longest, trp.MembersTested)
	}
	if longest <= mineBatchSize {
		t.Fatalf("longest walk tested %d members: no walk spans 2 rounds of %d", longest, mineBatchSize)
	}
}

// TestParallelEquivalenceExactTies pins the tie-break soundness of the
// parallel rep scan: constant series at ±c around the query produce
// representatives at *bit-identical* DTW distances in different groups, the
// one case where a shared-bound prune could otherwise hide the earlier
// median-order winner from the reduce. The parallel scan must pick the same
// group as the sequential scan on every repetition.
func TestParallelEquivalenceExactTies(t *testing.T) {
	d := &ts.Dataset{Name: "ties"}
	const L = 8
	constant := func(v float64) []float64 {
		s := make([]float64, L)
		for i := range s {
			s[i] = v
		}
		return s
	}
	// Tie pairs symmetric around 0.5, plus decoys so the entry crosses
	// scanParallelMin and the parallel path genuinely runs.
	for _, off := range []float64{0.1, 0.2, 0.3} {
		d.Append("hi", constant(0.5+off))
		d.Append("lo", constant(0.5-off))
	}
	for i := 0; i < 14; i++ {
		d.Append("decoy", constant(1.5+float64(0.2*float64(i))))
	}
	seq, par := equivProcessors(t, d, 0.05, []int{L})
	if got := len(seq.grouped.ByLength[L].Groups); got < scanParallelMin {
		t.Fatalf("only %d groups; parallel scan threshold not reached", got)
	}
	q := constant(0.5)
	want, _, err := seq.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 50; rep++ {
		got, _, err := par.BestMatchTraced(q, MatchExact)
		if err != nil {
			t.Fatal(err)
		}
		if got.GroupID != want.GroupID || got.SeriesID != want.SeriesID || got.Dist != want.Dist {
			t.Fatalf("rep %d: tie resolved differently: par %+v, seq %+v", rep, got, want)
		}
	}
}

// TestBestMatchBatchMatchesSingles: the batch API must agree query-by-query
// with individual BestMatch calls, including per-query validation errors.
func TestBestMatchBatchMatchesSingles(t *testing.T) {
	d := equivDataset(77, 12, 40)
	_, par := equivProcessors(t, d, 0.2, []int{8, 12})
	r := rand.New(rand.NewSource(5))
	qs := make([][]float64, 0, 40)
	for i := 0; i < 34; i++ {
		qs = append(qs, randomQuery(r, d, []int{8, 12, 10}[i%3]))
	}
	// Malformed entries must fail individually, never panic.
	qs = append(qs, nil, []float64{}, []float64{1, math.NaN(), 3}, []float64{math.Inf(1)})

	for _, mode := range []MatchMode{MatchExact, MatchAny} {
		rs := par.BestMatchBatch(qs, mode)
		if len(rs) != len(qs) {
			t.Fatalf("batch returned %d results for %d queries", len(rs), len(qs))
		}
		for i, q := range qs {
			want, wantErr := par.BestMatch(q, mode)
			if (rs[i].Err == nil) != (wantErr == nil) {
				t.Fatalf("mode=%d q=%d: batch err %v, single err %v", mode, i, rs[i].Err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			sameMatch(t, fmt.Sprintf("mode=%d q=%d", mode, i), want, rs[i].Matches[0])
		}
	}
	if got := par.BestMatchBatch(nil, MatchAny); len(got) != 0 {
		t.Fatalf("nil batch returned %d results", len(got))
	}
}
