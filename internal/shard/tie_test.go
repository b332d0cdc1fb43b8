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

// tieLayouts builds the same data at shards {1, 3} × parallelism {1, 8};
// the first engine (one shard, one worker) is the reference.
func tieLayouts(t *testing.T, d *ts.Dataset, st float64) (names []string, engs []*Engine) {
	t.Helper()
	for _, shards := range []int{1, 3} {
		for _, p := range []int{1, 8} {
			e, err := Build(d, core.BuildConfig{
				ST: st, Lengths: []int{tieLen}, Seed: 13, Normalize: core.NormalizeNone,
				Workers: p, Query: query.Options{Parallelism: p},
			}, shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, fmt.Sprintf("shards%d_p%d", shards, p))
			engs = append(engs, e)
		}
	}
	return names, engs
}

// TestTieRuleSmallestGroupID pins the rule itself: the mined group is the
// smallest global id among the representatives at the minimum distance,
// whatever the layout, and repeatably under the racing parallel scan.
func TestTieRuleSmallestGroupID(t *testing.T) {
	d := tiedDataset(rand.New(rand.NewSource(1)))
	names, engs := tieLayouts(t, d, 0.05)
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
			m, err := e.BestMatch(context.Background(), q, query.MatchExact)
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
// group ids and distance bits — at every layout and worker count.
func TestTieEquivalenceAcrossLayouts(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := tiedDataset(r)
		for _, st := range []float64{0.05, 0.4} {
			names, engs := tieLayouts(t, d, st)
			queries := [][]float64{constant(0.5, tieLen), constant(0.625, tieLen), constant(1.75, tieLen)}
			for i := 0; i < 6; i++ {
				s := d.Series[r.Intn(d.N())]
				start := r.Intn(s.Len() - tieLen + 1)
				queries = append(queries, append([]float64(nil), s.Values[start:start+tieLen]...))
			}
			ref := engs[0]
			for i, e := range engs[1:] {
				ctx := fmt.Sprintf("seed%d st%v %s", seed, st, names[i+1])
				compareEngines(t, ctx, ref, e, queries, []int{tieLen}, st)
				for qi, q := range queries {
					ak, err := ref.BestKMatches(context.Background(), q, query.MatchExact, 12)
					if err != nil {
						t.Fatal(err)
					}
					bk, err := e.BestKMatches(context.Background(), q, query.MatchExact, 12)
					if err != nil {
						t.Fatal(err)
					}
					if len(ak) != len(bk) {
						t.Fatalf("%s q%d: k-NN count diverged: %d vs %d", ctx, qi, len(ak), len(bk))
					}
					for j := range ak {
						if ak[j] != bk[j] {
							t.Fatalf("%s q%d knn[%d]: %+v vs %+v", ctx, qi, j, ak[j], bk[j])
						}
					}
				}
			}
		}
	}
}
