package hub

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"onex"
	"onex/internal/obs"
)

// sameResult is equality to the bit of two results of one request (the hub
// hands out the cached value itself, so order is preserved too).
func sameResult(a, b onex.Result) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	if len(a.Matches) != len(b.Matches) || len(a.Ranges) != len(b.Ranges) {
		return false
	}
	same := func(x, y onex.Match) bool {
		return x.SeriesID == y.SeriesID && x.Start == y.Start && x.Length == y.Length &&
			math.Float64bits(x.Distance) == math.Float64bits(y.Distance)
	}
	for i := range a.Matches {
		if !same(a.Matches[i], b.Matches[i]) {
			return false
		}
	}
	for i := range a.Ranges {
		if !same(a.Ranges[i].Match, b.Ranges[i].Match) || a.Ranges[i].Guaranteed != b.Ranges[i].Guaranteed {
			return false
		}
	}
	return reflect.DeepEqual(a.Patterns, b.Patterns)
}

// TestExecCacheSharing is the hub's side of the equivalence table: for every
// family and option, traced and untraced, at shard counts {1, 3} and
// parallelism {1, 8} — a batch item and the same request asked alone answer
// the same bits and land on the same cache entry (whichever came first, the
// other is one hit and no miss), a request spelled differently but meaning
// the same (k 0 and 1, any negative series) shares that entry, each kept
// adapter is the Exec it packs, and a malformed item fails alone, the same
// way both ways, without ever being cached.
func TestExecCacheSharing(t *testing.T) {
	mk := func(i, n int) []float64 {
		q := make([]float64, n)
		for j := range q {
			q[j] = math.Cos(float64(j+i) / 2)
		}
		return q
	}
	good := []onex.Request{
		{Family: onex.FamilyMatch, Query: mk(0, 8), Mode: onex.MatchAny, K: 1},
		{Family: onex.FamilyMatch, Query: mk(1, 8), Mode: onex.MatchExact, K: 3},
		{Family: onex.FamilyMatch, Query: mk(2, 7), Mode: onex.MatchAny},
		{Family: onex.FamilyRange, Query: mk(3, 8), Length: 8, Radius: 0.5},
		{Family: onex.FamilyRange, Query: mk(3, 8), Length: 8, Radius: 0.5, Exact: true},
		{Family: onex.FamilySeasonal, SeriesID: 0, Length: 8},
		{Family: onex.FamilySeasonal, SeriesID: -1, Length: 8},
	}
	// alias[i] means the same as good[i] and must share its entry.
	alias := map[int]onex.Request{
		0: {Family: onex.FamilyMatch, Query: mk(0, 8), Mode: onex.MatchAny},
		2: {Family: onex.FamilyMatch, Query: mk(2, 7), Mode: onex.MatchAny, K: 1},
		6: {Family: onex.FamilySeasonal, SeriesID: -3, Length: 8},
	}
	bad := []onex.Request{
		{Family: onex.FamilyMatch, Mode: onex.MatchAny, K: 2},
		{Family: onex.FamilyMatch, Query: mk(0, 8), Mode: onex.MatchAny, K: -1},
		{Family: onex.FamilyMatch, Query: []float64{1, math.NaN()}, Mode: onex.MatchAny},
		{Family: onex.FamilyRange, Query: mk(3, 8), Length: -1, Radius: 0.5},
		{Family: onex.FamilyRange, Query: mk(3, 8), Length: 8, Radius: math.Inf(1)},
		{Family: onex.FamilySeasonal, SeriesID: 0, Length: -7},
		{Family: onex.Family(9), Query: mk(0, 8), Length: 8},
	}
	reqs := append(append([]onex.Request(nil), good...), bad...)

	for _, par := range []int{1, 8} {
		for _, shards := range []int{1, 3} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("par=%d/shards=%d/traced=%v", par, shards, traced)
				t.Run(name, func(t *testing.T) {
					h := New(Config{})
					defer h.Close()
					spec := testSpec(2)
					spec.Opts.Parallelism, spec.Opts.Shards = par, shards
					ctx := context.Background()
					var tr *obs.Trace
					if traced {
						tr = obs.NewTrace(name)
						ctx = obs.ContextWithTrace(ctx, tr)
					}
					// delta runs f and reports the hits and misses it cost.
					var ds *Dataset
					delta := func(f func()) (hits, misses uint64) {
						before := ds.Info()
						f()
						after := ds.Info()
						return after.CacheHits - before.CacheHits, after.CacheMisses - before.CacheMisses
					}

					// Batch first, then every item alone.
					var err error
					if ds, err = h.Register("batchfirst", spec); err != nil {
						t.Fatal(err)
					}
					waitReady(t, ds)
					var rs []onex.Result
					hits, misses := delta(func() {
						if rs, err = ds.ExecBatch(ctx, reqs); err != nil {
							t.Fatal(err)
						}
					})
					if len(rs) != len(reqs) || hits != 0 || misses != uint64(len(reqs)) {
						t.Fatalf("cold batch: %d results, %d hits, %d misses; want %d, 0, %d", len(rs), hits, misses, len(reqs), len(reqs))
					}
					for i, req := range reqs {
						var single onex.Result
						hits, misses := delta(func() { single = ds.Exec(ctx, req) })
						if !sameResult(single, rs[i]) {
							t.Fatalf("request %d: alone %+v, in the batch %+v", i, single, rs[i])
						}
						isBad := i >= len(good)
						if isBad != (single.Err != nil) {
							t.Fatalf("request %d: err = %v", i, single.Err)
						}
						// A good one hits the batch's entry; a bad one was never stored.
						if want := map[bool][2]uint64{false: {1, 0}, true: {0, 1}}[isBad]; hits != want[0] || misses != want[1] {
							t.Fatalf("request %d alone after the batch: %d hits, %d misses; want %v", i, hits, misses, want)
						}
						if a, ok := alias[i]; ok {
							hits, misses := delta(func() { single = ds.Exec(ctx, a) })
							if hits != 1 || misses != 0 || !sameResult(single, rs[i]) {
								t.Fatalf("request %d's alias %+v: %d hits, %d misses, same answer %v", i, a, hits, misses, sameResult(single, rs[i]))
							}
						}
					}
					// The kept adapters are the Exec they pack: same entry, same bits.
					hits, misses = delta(func() {
						ms, err := ds.Match(ctx, good[1].Query, good[1].Mode, good[1].K)
						if !sameResult(onex.Result{Matches: ms, Err: err}, rs[1]) {
							t.Fatalf("Match: %+v, want %+v", ms, rs[1])
						}
						ms, err = ds.MatchObserved(context.Background(), good[0].Query, good[0].Mode, 0, tr)
						if !sameResult(onex.Result{Matches: ms, Err: err}, rs[0]) {
							t.Fatalf("MatchObserved: %+v, want %+v", ms, rs[0])
						}
						rm, err := ds.RangeObserved(context.Background(), good[4].Query, good[4].Length, good[4].Radius, true, tr)
						if !sameResult(onex.Result{Ranges: rm, Err: err}, rs[4]) {
							t.Fatalf("RangeObserved: %d results, want %d", len(rm), len(rs[4].Ranges))
						}
					})
					if hits != 3 || misses != 0 {
						t.Fatalf("adapters after the batch: %d hits, %d misses; want 3, 0", hits, misses)
					}
					if traced {
						v := tr.Snapshot()
						cache := 0
						for _, sp := range v.Spans {
							if sp.Name == "cache" {
								cache++
							}
						}
						// One lookup span per item of the batch, per single, per alias, per adapter.
						if want := 2*len(reqs) + len(alias) + 3; cache != want {
							t.Fatalf("trace holds %d cache spans, want %d", cache, want)
						}
						if v.Work["repsExamined"] <= 0 {
							t.Fatalf("trace work = %v, want the batch's misses counted", v.Work)
						}
					}

					// Singles first, then the batch: all good items hit.
					if ds, err = h.Register("singlesfirst", spec); err != nil {
						t.Fatal(err)
					}
					waitReady(t, ds)
					singles := make([]onex.Result, len(reqs))
					hits, misses = delta(func() {
						for i, req := range reqs {
							singles[i] = ds.Exec(ctx, req)
						}
					})
					if hits != 0 || misses != uint64(len(reqs)) {
						t.Fatalf("cold singles: %d hits, %d misses; want 0, %d", hits, misses, len(reqs))
					}
					hits, misses = delta(func() {
						if rs, err = ds.ExecBatch(ctx, reqs); err != nil {
							t.Fatal(err)
						}
					})
					if hits != uint64(len(good)) || misses != uint64(len(bad)) {
						t.Fatalf("batch after singles: %d hits, %d misses; want %d, %d", hits, misses, len(good), len(bad))
					}
					for i := range reqs {
						if !sameResult(rs[i], singles[i]) {
							t.Fatalf("request %d: in the batch %+v, alone %+v", i, rs[i], singles[i])
						}
					}
				})
			}
		}
	}
}

// TestCacheKeysCoverQueryOptions is the poisoned-key regression test for
// the option-aliasing audit: k, radius and the exact flag are all part of
// the cache key, so an answer cached under one option set can never be
// served for another. Each case plants a sentinel under the would-be
// aliasing key and asserts the differently-optioned query does not see it —
// and that the correctly-optioned lookup does, proving the planted key is
// exactly the one the builder produces.
func TestCacheKeysCoverQueryOptions(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	ds, err := h.Register("demo", testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)
	base, gen, err := ds.Base()
	if err != nil {
		t.Fatal(err)
	}
	scope := ds.scope(base, gen)
	length := base.Lengths()[0]
	q := make([]float64, length)
	for j := range q {
		q[j] = math.Sin(float64(j) / 4)
	}
	sentinel := onex.Result{Matches: []onex.Match{{SeriesID: -999}}}
	ctx := context.Background()

	// k: a k=2 answer must never serve a k=1 query.
	k2 := onex.Request{Family: onex.FamilyMatch, Query: q, Mode: onex.MatchExact, K: 2}
	h.cache.put(requestKey(scope, k2), sentinel)
	ms, err := ds.Match(ctx, q, onex.MatchExact, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].SeriesID == -999 {
		t.Fatal("k=1 query served the k=2 cache entry")
	}
	if r := ds.Exec(ctx, k2); r.Err != nil || r.Matches[0].SeriesID != -999 {
		t.Fatal("planted k=2 sentinel is not where requestKey points")
	}

	// exact flag: an inexact range answer must never serve an exact query.
	rsent := onex.Result{Ranges: []onex.RangeMatch{{Match: onex.Match{SeriesID: -999}}}}
	inexact := onex.Request{Family: onex.FamilyRange, Query: q, Length: length, Radius: 0.4}
	h.cache.put(requestKey(scope, inexact), rsent)
	exact := inexact
	exact.Exact = true
	for _, m := range ds.Exec(ctx, exact).Ranges {
		if m.SeriesID == -999 {
			t.Fatal("exact range query served the inexact cache entry")
		}
	}

	// radius: a radius=0.4 answer must never serve radius=0.8.
	h.cache.put(requestKey(scope, exact), rsent)
	wider := exact
	wider.Radius = 0.8
	for _, m := range ds.Exec(ctx, wider).Ranges {
		if m.SeriesID == -999 {
			t.Fatal("radius=0.8 query served the radius=0.4 cache entry")
		}
	}

	// family: a match answer must never alias a range or seasonal key even
	// at identical parameter hashes (kind strings separate them).
	if requestKey(scope, onex.Request{Family: onex.FamilyMatch, K: 1, Query: q}) ==
		requestKey(scope, onex.Request{Family: onex.FamilyRange, Length: 0, Exact: true, Query: q[:len(q)-1], Radius: q[len(q)-1]}) {
		t.Fatal("match and range keys can collide")
	}
	if requestKey(scope, onex.Request{Family: onex.FamilySeasonal, Length: length}) == recommendKey(scope, 0, length) {
		t.Fatal("seasonal and recommend keys can collide")
	}
}

// TestQueryCountersThroughInfo checks the bound-pruning work tally surfaces
// through Dataset.Info and the hub-wide stats.
func TestQueryCountersThroughInfo(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	ds, err := h.Register("demo", testSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)
	base, _, err := ds.Base()
	if err != nil {
		t.Fatal(err)
	}
	length := base.Lengths()[0]
	q := make([]float64, length)
	for j := range q {
		q[j] = math.Cos(float64(j) / 5)
	}
	if _, err := ds.Match(context.Background(), q, onex.MatchExact, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.RangeObserved(context.Background(), q, length, 0.3, false, nil); err != nil {
		t.Fatal(err)
	}
	info := ds.Info()
	if info.Query.Queries < 2 {
		t.Fatalf("query counter = %d, want ≥ 2", info.Query.Queries)
	}
	if info.Query.RepsExamined == 0 {
		t.Fatal("best-match query did not record examined representatives")
	}
	st := h.Stats()
	if st.Query.Queries < info.Query.Queries {
		t.Fatalf("hub stats query tally %d < dataset tally %d", st.Query.Queries, info.Query.Queries)
	}

	// Cache hits must not tick the work tally (the base never ran).
	before := ds.Info().Query.Queries
	if _, err := ds.Match(context.Background(), q, onex.MatchExact, 1); err != nil {
		t.Fatal(err)
	}
	if got := ds.Info().Query.Queries; got != before {
		t.Fatalf("cache hit ticked the query tally: %d → %d", before, got)
	}
}
