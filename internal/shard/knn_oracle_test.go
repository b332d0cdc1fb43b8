package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"onex/internal/core"
	"onex/internal/dist"
	"onex/internal/obs"
	"onex/internal/query"
)

// plainKNN is the plain k-NN walk over e's global grouping: the reference
// every layout's k-NN reproduces bit for bit. Per length in the search order
// it scans every representative with plain dist.DTW under the fixed cut
// kth·divisor + radius, visits the survivors in (distance, global id) order
// until a representative's distance exceeds the real cut (kth as it stands
// then), and walks each visited group's members in ED order, pushing a
// member iff its LB_Kim and its DTW are both below kth·divisor. tested is
// the number of members of the visited groups.
func plainKNN(e *Engine, q []float64, mode query.MatchMode, k int) (found []query.Match, tested int, err error) {
	var lengths []int
	if e.grouped.ByLength[len(q)] != nil {
		lengths = append(lengths, len(q))
	} else if mode == query.MatchExact {
		return nil, 0, fmt.Errorf("length %d not indexed", len(q))
	}
	if mode == query.MatchAny {
		ls := e.grouped.Lengths // ascending
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i] < len(q) {
				lengths = append(lengths, ls[i])
			}
		}
		for _, l := range ls {
			if l > len(q) {
				lengths = append(lengths, l)
			}
		}
	}
	// found holds the k best so far, best first.
	kth := func() float64 {
		if len(found) < k {
			return math.Inf(1)
		}
		return found[k-1].Dist
	}
	var w dist.Workspace
	for _, l := range lengths {
		groups := e.grouped.ByLength[l].Groups
		divisor := dist.NormalizedDTWDivisor(len(q), l)
		radius := e.grouped.ST / 2 * math.Sqrt(float64(l))
		type candidate struct {
			id int
			d  float64
		}
		var cands []candidate
		for id, g := range groups {
			if d := w.DTW(q, g.Rep); d < kth()*divisor+radius {
				cands = append(cands, candidate{id, d})
			}
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
		for _, c := range cands {
			if c.d > kth()*divisor+radius {
				break
			}
			tested += groups[c.id].Count()
			for _, m := range groups[c.id].Members {
				v := e.data.Series[m.SeriesIdx].Values[m.Start : m.Start+l]
				cutoff := kth() * divisor
				if dist.LBKim(q, v) >= cutoff {
					continue
				}
				d := w.DTW(q, v)
				if d >= cutoff {
					continue
				}
				// Insert after every equal distance, as a stable sort of
				// found with the match appended would.
				at := sort.Search(len(found), func(i int) bool { return found[i].Dist > d/divisor })
				found = slices.Insert(found, at, query.Match{
					SeriesID: m.SeriesIdx, Start: m.Start, Length: l,
					Dist: d / divisor, RawDTW: d, GroupID: c.id,
				})
				found = found[:min(len(found), k)]
			}
		}
	}
	if len(found) == 0 {
		return nil, 0, errors.New("no candidates found")
	}
	return found, tested, nil
}

// TestKNNMatchesPlainWalk: Exec's k-NN is the plain walk's answer, bit for
// bit, and tests the members of exactly the groups the plain walk visits, at
// one and three shards, one and eight workers, in both modes. The loose
// threshold makes groups large enough for the verification phase to run
// rounds of members at eight workers. The tight one makes hundreds of
// groups per length, most of one member, so a k-NN's first k groups are
// fewer than a length's: its walk ends inside them or goes on past them, and
// at k = 300 over three shards every shard holds fewer than k of them while
// their union holds more. The largest k exceeds every length's members, so
// an exact-length heap never fills.
func TestKNNMatchesPlainWalk(t *testing.T) {
	lengths := []int{8, 12, 16}
	for _, st := range []float64{0.03, 0.35, 1.5} {
		for seed := int64(1); seed <= 2; seed++ {
			r := rand.New(rand.NewSource(seed * 5023))
			d := randomDataset(r, 18, 40)
			queries := randomQueries(r, d, lengths, 8)
			never := 0 // a k no length's members fill
			for _, l := range lengths {
				n := 0
				for _, s := range d.Series {
					n += max(s.Len()-l+1, 0)
				}
				never = max(never, n+1)
			}
			for _, parallelism := range []int{1, 8} {
				for _, shards := range []int{1, 3} {
					name := fmt.Sprintf("st%.2f_seed%d_p%d_s%d", st, seed, parallelism, shards)
					e, err := Build(d, core.BuildConfig{
						ST: st, Lengths: lengths, Seed: seed, Parallelism: parallelism,
					}, shards, nil)
					if err != nil {
						t.Fatal(err)
					}
					if st > 1 {
						largest := 0
						for _, l := range lengths {
							for _, g := range e.grouped.ByLength[l].Groups {
								largest = max(largest, g.Count())
							}
						}
						if largest < 64 {
							t.Fatalf("%s: largest group has %d members; the fixture must hold two rounds of 32", name, largest)
						}
					}
					for qi, q := range queries {
						for _, mode := range []query.MatchMode{query.MatchExact, query.MatchAny} {
							for _, k := range []int{2, 5, 10, 300, never} {
								ctx := fmt.Sprintf("%s q%d mode%d k%d", name, qi, mode, k)
								want, tested, werr := plainKNN(e, q, mode, k)
								rec := obs.NewTrace("")
								got, gerr := bestK(e, obs.ContextWithTrace(context.Background(), rec), q, mode, k)
								if (werr == nil) != (gerr == nil) {
									t.Fatalf("%s: error diverged: plain %v, Exec %v", ctx, werr, gerr)
								}
								if got := rec.Snapshot().Work["membersTested"]; werr == nil && got != int64(tested) {
									t.Fatalf("%s: Exec tested %d members, the plain walk's groups hold %d", ctx, got, tested)
								}
								if len(got) != len(want) {
									t.Fatalf("%s: %d matches, the plain walk has %d", ctx, len(got), len(want))
								}
								for i := range want {
									if got[i] != want[i] {
										t.Fatalf("%s: knn[%d] = %+v, the plain walk's is %+v", ctx, i, got[i], want[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
