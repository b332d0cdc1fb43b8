package shard

import (
	"context"
	"math/rand"
	"testing"

	"onex/internal/core"
	"onex/internal/obs"
	"onex/internal/query"
)

// TestCountersMatchTraces: the lifetime tally (QueryCounters) and a
// request's trace work totals are fed from the same per-query Trace, so
// over any stream the tally's delta is the sum of the requests' trace
// totals, and Queries is the number of requests — at the one-shard layout,
// three in-process shards and three shards on loopback workers. The stream
// mixes every family plus one batch: the batch runs on a worker-budget view
// of the coordinator, which must share its tally, and seasonal requests
// tick Queries only. Both sides are read within one run, so the top-K
// scan's timing-dependent Kim/DTW split cannot make them disagree.
func TestCountersMatchTraces(t *testing.T) {
	r := rand.New(rand.NewSource(6151))
	d := randomDataset(r, 18, 40)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{8, 12, 16}, Seed: 1, Parallelism: 2}
	urls, _ := startWorkers(t, 2)
	layouts := []struct {
		name    string
		shards  int
		workers []string
	}{{"one-shard", 1, nil}, {"three-shards", 3, nil}, {"three-remote", 3, urls}}

	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			e, err := Build(d, cfg, lay.shards, lay.workers)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			window := func(s, start, n int) []float64 {
				return append([]float64(nil), e.data.Series[s].Values[start:start+n]...)
			}
			match := query.Request{Family: query.FamilyMatch, Query: window(1, 3, 12), Mode: query.MatchAny}
			exact := query.Request{Family: query.FamilyMatch, Query: window(4, 0, 8), Mode: query.MatchExact}
			knn := query.Request{Family: query.FamilyMatch, Query: window(7, 5, 16), Mode: query.MatchAny, K: 4}
			rng := query.Request{Family: query.FamilyRange, Query: window(2, 1, 12), Length: 12, Radius: cfg.ST}
			exactRange := rng
			exactRange.Exact = true
			seasonal := query.Request{Family: query.FamilySeasonal, Length: 8, SeriesID: -1}
			single := []query.Request{match, exact, knn, rng, exactRange, seasonal}
			batch := []query.Request{knn, match, rng, seasonal, exact}

			before := e.QueryCounters()
			var traced query.CountersSnapshot
			fold := func(rec *obs.Trace) {
				w := rec.Snapshot().Work
				traced.Add(query.CountersSnapshot{
					RepsExamined:  uint64(w["repsExamined"]),
					PrunedByKim:   uint64(w["prunedByKim"]),
					DTWComputed:   uint64(w["dtwComputed"]),
					MembersTested: uint64(w["membersTested"]),
				})
			}
			for i, req := range single {
				rec := obs.NewTrace("")
				if res := e.Exec(obs.ContextWithTrace(context.Background(), rec), req); res.Err != nil {
					t.Fatalf("request %d: %v", i, res.Err)
				}
				if req.Family == query.FamilySeasonal && len(rec.Snapshot().Work) != 0 {
					t.Errorf("seasonal request traced work %v", rec.Snapshot().Work)
				}
				fold(rec)
			}
			rec := obs.NewTrace("")
			for i, res := range e.ExecBatch(obs.ContextWithTrace(context.Background(), rec), batch) {
				if res.Err != nil {
					t.Fatalf("batch item %d: %v", i, res.Err)
				}
			}
			fold(rec)
			traced.Queries = uint64(len(single) + len(batch))

			after := e.QueryCounters()
			delta := query.CountersSnapshot{
				Queries:       after.Queries - before.Queries,
				RepsExamined:  after.RepsExamined - before.RepsExamined,
				PrunedByKim:   after.PrunedByKim - before.PrunedByKim,
				DTWComputed:   after.DTWComputed - before.DTWComputed,
				MembersTested: after.MembersTested - before.MembersTested,
			}
			if delta != traced {
				t.Fatalf("counter delta %+v, trace totals %+v", delta, traced)
			}
			if traced.RepsExamined == 0 || traced.DTWComputed == 0 || traced.MembersTested == 0 {
				t.Fatalf("the stream did no cascade work (%+v); the fixture checks nothing", traced)
			}
		})
	}
}
