package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"onex/internal/dist"
	"onex/internal/query"
	"onex/internal/shardrpc"
)

// scanSpecs lays out groups global groups of one length over shards specs,
// group g owned by shard g mod shards with one member (the shard's series
// at offset 0). The representatives come from a pool of distinct random
// walks a third the size of groups, so every distance is shared by about
// three groups: the ties the scan's (distance, global id) rule breaks.
func scanSpecs(r *rand.Rand, groups, length, shards int) (specs []query.ShardSpec, reps [][]float64) {
	pool := make([][]float64, groups/3)
	for i := range pool {
		pool[i] = make([]float64, length)
		x := r.Float64()
		for j := range pool[i] {
			x += r.NormFloat64()
			pool[i][j] = x
		}
	}
	specs = make([]query.ShardSpec, shards)
	for s := range specs {
		specs[s] = query.ShardSpec{
			Dataset: "topk", Generation: fmt.Sprintf("g%d", shards), Shard: s, Shards: shards, ST: 0.5,
			Series:  []query.SpecSeries{{ID: s, Values: pool[s%len(pool)]}},
			Lengths: []query.SpecLength{{Length: length}},
		}
	}
	reps = make([][]float64, groups)
	for g := range reps {
		reps[g] = pool[r.Intn(len(pool))]
		sl := &specs[g%shards].Lengths[0]
		sl.Groups = append(sl.Groups, query.SpecGroup{
			GlobalID: g, Owned: true, Rep: reps[g],
			Members: []query.SpecMember{{Series: g % shards}},
		})
	}
	return specs, reps
}

// bruteTopK is the first k of every (global id, plain DTW) pair in
// (distance, id) order.
func bruteTopK(q []float64, reps [][]float64, ids []int, k int) []query.ScanHit {
	var w dist.Workspace
	all := make([]query.ScanHit, 0, len(ids))
	for _, g := range ids {
		all = append(all, query.ScanHit{GroupID: g, Dist: w.DTW(q, reps[g])})
	}
	slices.SortFunc(all, func(a, b query.ScanHit) int {
		if a.Dist != b.Dist {
			return cmpFloat(a.Dist, b.Dist)
		}
		return a.GroupID - b.GroupID
	})
	return all[:min(k, len(all))]
}

func cmpFloat(a, b float64) int {
	if a < b {
		return -1
	}
	return 1
}

// stopAfter answers Err() == nil a fixed number of times, then
// context.Canceled: a cancellation between two polls of a scan.
type stopAfter struct {
	context.Context
	left *int
}

func (c stopAfter) Err() error {
	if *c.left--; *c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestScanTopKExact: Scan{K} is the exact top K of the shard's owned
// representatives by a brute sort of every plain DTW — distance bits and
// global ids, in (distance, id) order — for K of one, two, a k-NN's k, all
// the units and more, with ties at the K-th place, on a query of the scanned
// length (the ED seed runs) and of another, at one and four workers, on one
// and three shards, in process and over loopback workers; and the first K of
// the shards' merged answers is the global top K. A scan canceled before or
// between its polls answers the context's error.
func TestScanTopKExact(t *testing.T) {
	const groups, length = 72, 12
	urls, _ := startWorkers(t, 2)
	r := rand.New(rand.NewSource(5252))
	ties := false
	for _, shards := range []int{1, 3} {
		specs, reps := scanSpecs(r, groups, length, shards)
		for _, remote := range []bool{false, true} {
			transports := make([]query.ShardTransport, shards)
			owned := make([][]int, shards)
			for s, spec := range specs {
				var err error
				if remote {
					transports[s], err = shardrpc.NewClient(urls[s%len(urls)], spec, shardrpc.ClientOptions{})
				} else {
					transports[s], err = query.BuildLocalShard(spec)
				}
				if err != nil {
					t.Fatal(err)
				}
				defer transports[s].Close()
				owned[s] = transports[s].Info().Owned[length]
			}
			all := make([]int, groups)
			for g := range all {
				all[g] = g
			}
			for qi, qlen := range []int{length, length - 3, length + 2} {
				q := make([]float64, qlen)
				copy(q, reps[qi])
				for j := range q {
					q[j] += 0.1 * r.NormFloat64()
				}
				for _, k := range []int{1, 2, 10, groups / shards, groups + 5} {
					for _, workers := range []int{1, 4} {
						name := fmt.Sprintf("shards=%d remote=%v qlen=%d k=%d workers=%d", shards, remote, qlen, k, workers)
						req := query.ScanRequest{Length: length, Query: q, K: k, CutoffBits: math.Float64bits(math.Inf(1)), Workers: workers}
						var merged []query.ScanHit
						for s, tr := range transports {
							resp, err := tr.Scan(context.Background(), req)
							if err != nil {
								t.Fatalf("%s shard %d: %v", name, s, err)
							}
							if want := bruteTopK(q, reps, owned[s], k); !slices.Equal(resp.Hits, want) {
								t.Fatalf("%s shard %d: Scan = %v, brute top k = %v", name, s, resp.Hits, want)
							}
							merged = append(merged, resp.Hits...)
						}
						slices.SortFunc(merged, func(a, b query.ScanHit) int {
							if a.Dist != b.Dist {
								return cmpFloat(a.Dist, b.Dist)
							}
							return a.GroupID - b.GroupID
						})
						want := bruteTopK(q, reps, all, groups)
						if got := merged[:min(k, len(merged))]; !slices.Equal(got, want[:min(k, groups)]) {
							t.Fatalf("%s: merged first k = %v, global top k = %v", name, got, want[:min(k, groups)])
						}
						if k < groups && want[k-1].Dist == want[k].Dist {
							ties = true
						}
					}
				}
				canceled, cancel := context.WithCancel(context.Background())
				cancel()
				for _, tr := range transports {
					if _, err := tr.Scan(canceled, query.ScanRequest{Length: length, Query: q, K: 3, CutoffBits: math.Float64bits(math.Inf(1)), Workers: 4}); !errors.Is(err, context.Canceled) {
						t.Fatalf("shards=%d remote=%v: canceled scan = %v, want context.Canceled", shards, remote, err)
					}
				}
				if !remote {
					// Polls: one on entry, then one every 64 units of the one
					// worker, so on one shard the third falls mid-scan.
					left := 2
					_, err := transports[0].Scan(stopAfter{context.Background(), &left}, query.ScanRequest{
						Length: length, Query: q, K: 3, CutoffBits: math.Float64bits(math.Inf(1)), Workers: 1,
					})
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("shards=%d: scan canceled mid-way = %v, want context.Canceled", shards, err)
					}
				}
			}
		}
	}
	if !ties {
		t.Fatal("no K fell inside a tie: the fixture must tie at the K-th place")
	}
}
