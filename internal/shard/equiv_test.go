package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"onex/internal/core"
	"onex/internal/query"
	"onex/internal/ts"
)

// The acceptance property of the engine: over the same data, a Shards=N
// layout answers BestMatch, BestKMatches, RangeSearch(Exact) and both
// seasonal queries identically (matches to the bit — identity, group id,
// distance; range distances and drift within 1e-12) to the one-shard layout,
// at every parallelism, and across Append/Extend maintenance interleavings.

const equivTol = 1e-12

// randomDataset builds a ragged random-walk dataset of continuous values
// (no two distinct windows tie on exact DTW; tie_test.go covers ties).
func randomDataset(r *rand.Rand, n, baseLen int) *ts.Dataset {
	d := &ts.Dataset{Name: "equiv"}
	for i := 0; i < n; i++ {
		length := baseLen + r.Intn(baseLen/2)
		v := make([]float64, length)
		x := r.Float64() * 10
		for j := range v {
			x += r.NormFloat64()
			v[j] = x
		}
		d.Append(fmt.Sprintf("s%d", i), v)
	}
	return d
}

func randomQueries(r *rand.Rand, d *ts.Dataset, lengths []int, count int) [][]float64 {
	qlens := append(append([]int(nil), lengths...), lengths[0]+1) // one unindexed length
	out := make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		l := qlens[i%len(qlens)]
		q := make([]float64, l)
		if i%2 == 0 {
			s := d.Series[r.Intn(d.N())]
			start := r.Intn(s.Len() - l + 1)
			copy(q, s.Values[start:start+l])
			for j := range q {
				q[j] += r.NormFloat64() * 0.05
			}
		} else {
			x := r.Float64()
			for j := range q {
				x += r.NormFloat64() * 0.3
				q[j] = x
			}
		}
		out = append(out, q)
	}
	return out
}

func matchesEqual(t *testing.T, ctx string, a, b query.Match) {
	t.Helper()
	if a != b {
		t.Fatalf("%s: match diverged (identity, group id or distance bits): %+v vs %+v", ctx, a, b)
	}
}

func sortRange(rs []query.RangeResult) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.SeriesID != b.SeriesID {
			return a.SeriesID < b.SeriesID
		}
		return a.Start < b.Start
	})
}

// compareEngines drives the full query mix against both engines and demands
// identical answers.
func compareEngines(t *testing.T, ctx string, one, sharded *Engine, queries [][]float64, lengths []int, st float64) {
	t.Helper()
	for qi, q := range queries {
		for _, mode := range []query.MatchMode{query.MatchAny, query.MatchExact} {
			mctx := fmt.Sprintf("%s q%d mode%d", ctx, qi, mode)
			am, aerr := bestMatch(one, context.Background(), q, mode)
			bm, berr := bestMatch(sharded, context.Background(), q, mode)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("%s: BestMatch error diverged: %v vs %v", mctx, aerr, berr)
			}
			if aerr == nil {
				matchesEqual(t, mctx+" best", am, bm)
			}

			for _, k := range []int{2, 5, 10} {
				ak, aerr := bestK(one, context.Background(), q, mode, k)
				bk, berr := bestK(sharded, context.Background(), q, mode, k)
				if (aerr == nil) != (berr == nil) {
					t.Fatalf("%s k%d: BestKMatches error diverged: %v vs %v", mctx, k, aerr, berr)
				}
				if aerr == nil {
					if len(ak) != len(bk) {
						t.Fatalf("%s k%d: k-NN count diverged: %d vs %d", mctx, k, len(ak), len(bk))
					}
					for i := range ak {
						matchesEqual(t, fmt.Sprintf("%s k%d knn[%d]", mctx, k, i), ak[i], bk[i])
					}
				}
			}
		}

		// Range searches at a wholesale-admitting radius (> ST) and a
		// verifying one (< ST), both plain and exact.
		length := lengths[qi%len(lengths)]
		rq := q
		if len(rq) != length {
			rq = q[:min(len(q), length)]
			if len(rq) < length {
				continue
			}
		}
		for _, radius := range []float64{st * 1.5, st * 0.6} {
			for _, exact := range []bool{false, true} {
				rctx := fmt.Sprintf("%s q%d range r=%.3f exact=%v", ctx, qi, radius, exact)
				var ar, br []query.RangeResult
				var aerr, berr error
				if exact {
					ar, aerr = rangeSearch(one, context.Background(), rq, length, radius, true)
					br, berr = rangeSearch(sharded, context.Background(), rq, length, radius, true)
				} else {
					ar, aerr = rangeSearch(one, context.Background(), rq, length, radius, false)
					br, berr = rangeSearch(sharded, context.Background(), rq, length, radius, false)
				}
				if (aerr == nil) != (berr == nil) {
					t.Fatalf("%s: error diverged: %v vs %v", rctx, aerr, berr)
				}
				if aerr != nil {
					continue
				}
				if len(ar) != len(br) {
					t.Fatalf("%s: result count diverged: %d vs %d", rctx, len(ar), len(br))
				}
				sortRange(ar)
				sortRange(br)
				for i := range ar {
					x, y := ar[i], br[i]
					if x.SeriesID != y.SeriesID || x.Start != y.Start || x.Guaranteed != y.Guaranteed {
						t.Fatalf("%s: result %d diverged: %+v vs %+v", rctx, i, x, y)
					}
					if math.Abs(x.Dist-y.Dist) > equivTol {
						t.Fatalf("%s: result %d distance diverged: %v vs %v", rctx, i, x.Dist, y.Dist)
					}
				}
			}
		}
	}

	// Seasonal queries: identical groups, ids, members, order.
	for _, length := range lengths {
		for sid := -1; sid < one.NumSeries(); sid += 3 {
			var ag, bg []query.SeasonalGroup
			var aerr, berr error
			if sid < 0 {
				ag, aerr = seasonal(one, context.Background(), -1, length)
				bg, berr = seasonal(sharded, context.Background(), -1, length)
			} else {
				ag, aerr = seasonal(one, context.Background(), sid, length)
				bg, berr = seasonal(sharded, context.Background(), sid, length)
			}
			sctx := fmt.Sprintf("%s seasonal l=%d sid=%d", ctx, length, sid)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("%s: error diverged: %v vs %v", sctx, aerr, berr)
			}
			if aerr != nil {
				continue
			}
			if len(ag) != len(bg) {
				t.Fatalf("%s: group count diverged: %d vs %d", sctx, len(ag), len(bg))
			}
			for i := range ag {
				x, y := ag[i], bg[i]
				if x.GroupID != y.GroupID || len(x.Members) != len(y.Members) {
					t.Fatalf("%s: group %d diverged: id %d/%d members %d/%d",
						sctx, i, x.GroupID, y.GroupID, len(x.Members), len(y.Members))
				}
				for j := range x.Members {
					if x.Members[j] != y.Members[j] {
						t.Fatalf("%s: group %d member %d diverged: %+v vs %+v",
							sctx, i, j, x.Members[j], y.Members[j])
					}
				}
			}
		}
	}

	// Batch answers must equal their single-query counterparts across both
	// engines.
	reqs := make([]query.Request, len(queries))
	for i, q := range queries {
		reqs[i] = query.Request{Family: query.FamilyMatch, Query: q, Mode: query.MatchAny}
	}
	amb := one.ExecBatch(context.Background(), reqs)
	bmb := sharded.ExecBatch(context.Background(), reqs)
	for i := range amb {
		if (amb[i].Err == nil) != (bmb[i].Err == nil) {
			t.Fatalf("%s: batch[%d] error diverged: %v vs %v", ctx, i, amb[i].Err, bmb[i].Err)
		}
		if amb[i].Err == nil {
			matchesEqual(t, fmt.Sprintf("%s batch[%d]", ctx, i), amb[i].Matches[0], bmb[i].Matches[0])
		}
	}

	// SP-Space guidance surface: bit-identical (==, no tolerance) at every
	// layout — the sharded engine computes the critical values from the one
	// global grouping, not from per-shard aggregates.
	oh, of := globalThresholds(t, one)
	if sh, sf := globalThresholds(t, sharded); oh != sh || of != sf {
		t.Fatalf("%s: critical values diverged: (%v,%v) vs (%v,%v)", ctx, oh, of, sh, sf)
	}
	for _, length := range append([]int{lengths[0] + 1}, lengths...) {
		ah, af, aerr := one.CriticalValues(length)
		bh, bf, berr := sharded.CriticalValues(length)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("%s: CriticalValues(%d) error diverged: %v vs %v", ctx, length, aerr, berr)
		}
		if aerr == nil && (ah != bh || af != bf) {
			t.Fatalf("%s: CriticalValues(%d) diverged: (%v,%v) vs (%v,%v)", ctx, length, ah, af, bh, bf)
		}
	}
}

// TestShardEquivalence is the core property suite: random datasets, both
// parallelism settings, several shard counts, full query mix.
func TestShardEquivalence(t *testing.T) {
	lengths := []int{8, 12, 16}
	const st = 0.35
	for _, parallelism := range []int{1, 8} {
		for _, shards := range []int{2, 3, 5} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("p%d_s%d_seed%d", parallelism, shards, seed), func(t *testing.T) {
					r := rand.New(rand.NewSource(seed * 7717))
					d := randomDataset(r, 18, 32)
					cfg := core.BuildConfig{
						ST: st, Lengths: lengths, Seed: seed,
						Parallelism: parallelism,
					}
					one, err := Build(d, cfg, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					sharded, err := Build(d, cfg, shards, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got := sharded.ShardCount(); got != shards {
						t.Fatalf("ShardCount = %d, want %d", got, shards)
					}
					queries := randomQueries(r, d, lengths, 10)
					compareEngines(t, "built", one, sharded, queries, lengths, st)
				})
			}
		}
	}
}

// TestShardEquivalenceMaintenance interleaves Appends and Extends on both
// layouts and re-checks the full query mix after every step — including
// steps that cross the drift threshold and trigger the amortized rebuild.
func TestShardEquivalenceMaintenance(t *testing.T) {
	lengths := []int{8, 12}
	const st = 0.35
	for _, parallelism := range []int{1, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("p%d_seed%d", parallelism, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed * 40129))
				d := randomDataset(r, 12, 28)
				cfg := core.BuildConfig{
					ST: st, Lengths: lengths, Seed: seed,
					Parallelism:  parallelism,
					RebuildDrift: 0.2, // make some steps rebuild
				}
				one, err := Build(d, cfg, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				sharded, err := Build(d, cfg, 3, nil)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 6; step++ {
					if step%2 == 0 {
						sid := r.Intn(one.NumSeries())
						pts := make([]float64, 4+r.Intn(8))
						x := one.Window(sid, one.data.Series[sid].Len()-1, 1)[0]
						for j := range pts {
							x += r.NormFloat64() * 0.05
							pts[j] = x
						}
						m2, err := one.Append(sid, pts)
						if err != nil {
							t.Fatalf("step %d one append: %v", step, err)
						}
						s2, err := sharded.Append(sid, pts)
						if err != nil {
							t.Fatalf("step %d sharded append: %v", step, err)
						}
						one, sharded = m2, s2
					} else {
						extra := make([]*ts.Series, 1+r.Intn(2))
						for i := range extra {
							v := make([]float64, 20+r.Intn(12))
							x := r.Float64() * 4
							for j := range v {
								x += r.NormFloat64() * 0.5
								v[j] = x
							}
							extra[i] = &ts.Series{Label: "new", Values: v}
						}
						m2, err := one.Extend(extra)
						if err != nil {
							t.Fatalf("step %d one extend: %v", step, err)
						}
						s2, err := sharded.Extend(extra)
						if err != nil {
							t.Fatalf("step %d sharded extend: %v", step, err)
						}
						one, sharded = m2, s2
					}
					if md, sd := one.Drift(), sharded.Drift(); math.Abs(md-sd) > equivTol {
						t.Fatalf("step %d: drift diverged: %v vs %v", step, md, sd)
					}
					queries := randomQueries(r, one.data, lengths, 6)
					compareEngines(t, fmt.Sprintf("step%d", step), one, sharded, queries, lengths, st)
				}
				if one.Rebuilds() == 0 {
					t.Error("maintenance interleaving never crossed the rebuild threshold; weaken RebuildDrift")
				}
				if one.Rebuilds() != sharded.Rebuilds() {
					t.Errorf("rebuild counters diverged: one %d, sharded %d", one.Rebuilds(), sharded.Rebuilds())
				}
			})
		}
	}
}
