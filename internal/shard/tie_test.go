package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"onex/internal/core"
	"onex/internal/dist"
	"onex/internal/query"
	"onex/internal/ts"
)

// The tie rule, stated once: when representatives tie on the exact DTW to
// the query (bit-equal distances) the smallest global group id wins — at
// every shard count and every worker count. Continuous data never ties
// (equiv_test.go); these suites build ties on purpose with duplicated
// windows and compare shards {1, 3} × parallelism {1, 8}.

const tieLen = 8

func constant(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// tiedDataset is duplicated-window data: constant series mirrored around
// 0.5 (their groups' representatives sit at bit-identical DTW from a 0.5
// query), each held twice, decoys so a length crosses the parallel-scan
// threshold, and random walks held twice so member windows repeat too.
// Levels are dyadic and every constant group has 8 members, so the running
// averages that make the representatives are exact.
func tiedDataset(r *rand.Rand) *ts.Dataset {
	d := &ts.Dataset{Name: "ties"}
	for copies := 0; copies < 2; copies++ {
		for _, off := range []float64{0.125, 0.25, 0.375} {
			d.Append("hi", constant(0.5+off, tieLen+3))
			d.Append("lo", constant(0.5-off, tieLen+3))
		}
	}
	for i := 0; i < 14; i++ {
		d.Append("decoy", constant(1.5+0.25*float64(i), tieLen+3))
	}
	for i := 0; i < 4; i++ {
		v := make([]float64, tieLen+8)
		x := r.Float64()
		for j := range v {
			x += r.NormFloat64() * 0.05
			v[j] = x
		}
		d.Append("walk", v)
		d.Append("walk", append([]float64(nil), v...))
	}
	return d
}

// tieLayouts builds the same data at every shards × parallelism pair, in
// process and — given worker URLs — once more on the workers; the first
// engine (one shard, one worker, in-process) is the reference.
func tieLayouts(t *testing.T, d *ts.Dataset, st float64, lengths, shardCounts, workerCounts []int, urls []string) (names []string, engs []*Engine) {
	t.Helper()
	wheres := [][]string{nil}
	if urls != nil {
		wheres = append(wheres, urls)
	}
	for _, shards := range shardCounts {
		for _, p := range workerCounts {
			for _, where := range wheres {
				e, err := Build(d, core.BuildConfig{
					ST: st, Lengths: lengths, Seed: 13, Normalize: core.NormalizeNone,
					Workers: p, Query: query.Options{Parallelism: p},
				}, shards, where)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("shards%d_p%d", shards, p)
				if where != nil {
					name += "_remote"
					t.Cleanup(func() { e.Close() })
				}
				names = append(names, name)
				engs = append(engs, e)
			}
		}
	}
	return names, engs
}

// TestTieRuleSmallestGroupID pins the rule itself: the mined group is the
// smallest global id among the representatives at the minimum distance,
// whatever the layout, and repeatably under the racing parallel scan.
func TestTieRuleSmallestGroupID(t *testing.T) {
	d := tiedDataset(rand.New(rand.NewSource(1)))
	names, engs := tieLayouts(t, d, 0.05, []int{tieLen}, []int{1, 3}, []int{1, 8}, nil)
	groups := engs[0].grouped.ByLength[tieLen].Groups
	if len(groups) < 16 {
		t.Fatalf("only %d groups; the parallel scan threshold is not reached", len(groups))
	}
	q := constant(0.5, tieLen)
	want, tied, best := -1, 0, math.Inf(1)
	for k, g := range groups {
		switch dtw := dist.DTW(q, g.Rep); {
		case dtw < best:
			want, tied, best = k, 1, dtw
		case dtw == best:
			tied++
		}
	}
	if tied < 2 {
		t.Fatalf("fixture has no exact tie at the minimum (%d representative at %v)", tied, best)
	}
	for i, e := range engs {
		for rep := 0; rep < 25; rep++ {
			m, err := bestMatch(e, context.Background(), q, query.MatchExact)
			if err != nil {
				t.Fatal(err)
			}
			if m.GroupID != want {
				t.Fatalf("%s rep %d: tie resolved to group %d, want the smallest tied id %d", names[i], rep, m.GroupID, want)
			}
		}
	}
}

// TestTieEquivalenceAcrossLayouts is the P1-vs-P8 and 1-vs-N suite over
// duplicated-window data: every family answers identically — identities,
// group ids and distance bits — at every layout and worker count, in process
// and on workers. The k-NN part of compareEngines (k ∈ {1, 5, 10}, exact and
// any length) is the test of the phase's bound argument
// (query.LocalShard.VerifyK): ties sit exactly on the k-th distance, and
// with two indexed lengths a MatchAny search starts its second phase from
// the finite cutoff the first left.
func TestTieEquivalenceAcrossLayouts(t *testing.T) {
	lengths := []int{tieLen, tieLen + 2}
	urls, _ := startWorkers(t, 2)
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := tiedDataset(r)
		for _, st := range []float64{0.05, 0.4} {
			where := urls
			if seed > 1 {
				where = nil // the worker-served layouts run on the first seed only
			}
			names, engs := tieLayouts(t, d, st, lengths, []int{1, 3, 4}, []int{1, 2, 8}, where)
			queries := [][]float64{constant(0.5, tieLen), constant(0.625, tieLen), constant(1.75, tieLen)}
			for i := 0; i < 6; i++ {
				s := d.Series[r.Intn(d.N())]
				start := r.Intn(s.Len() - tieLen + 1)
				queries = append(queries, append([]float64(nil), s.Values[start:start+tieLen]...))
			}
			ref := engs[0]
			for i, e := range engs[1:] {
				ctx := fmt.Sprintf("seed%d st%v %s", seed, st, names[i+1])
				compareEngines(t, ctx, ref, e, queries, lengths, st)
			}
		}
	}
}
