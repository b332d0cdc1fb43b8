package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"onex/internal/core"
	"onex/internal/obs"
	"onex/internal/query"
)

// The distributed tracing contract: recording a trace is strictly
// observational. Turning explain on must not change a single answer bit —
// across transports (in-process vs worker-served), parallelism and shard
// counts, for every query family. Distances are compared as Float64bits
// (exact equality including ±Inf and signed zero), not with a tolerance.

func matchBitsEqual(a, b query.Match) bool {
	return a.SeriesID == b.SeriesID && a.Start == b.Start && a.Length == b.Length &&
		math.Float64bits(a.Dist) == math.Float64bits(b.Dist) &&
		math.Float64bits(a.RawDTW) == math.Float64bits(b.RawDTW)
}

func matchesBitsEqual(a, b []query.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !matchBitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func rangeBitsEqual(a, b []query.RangeResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !matchBitsEqual(a[i].Match, b[i].Match) || a[i].Guaranteed != b[i].Guaranteed {
			return false
		}
	}
	return true
}

func seasonalBitsEqual(a, b []query.SeasonalGroup) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Length != b[i].Length || a[i].GroupID != b[i].GroupID ||
			len(a[i].Members) != len(b[i].Members) {
			return false
		}
	}
	return true
}

// TestRemoteObservationalPurity: every query family answers bit-identically
// with tracing off and on, locally and over remote workers, across
// parallelism {1,8} and shard counts {1,3} — and the remote traces actually
// contain the rpc/worker span pairs (tracing is on, not silently skipped).
func TestRemoteObservationalPurity(t *testing.T) {
	lengths := []int{8, 12, 16}
	const st = 0.35
	for _, parallelism := range []int{1, 8} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("p%d_s%d", parallelism, shards), func(t *testing.T) {
				r := rand.New(rand.NewSource(7717))
				d := randomDataset(r, 14, 32)
				cfg := core.BuildConfig{
					ST: st, Lengths: lengths, Seed: 1,
					Parallelism: parallelism,
				}
				urls, _ := startWorkers(t, 2)
				local, err := Build(d, cfg, shards, nil)
				if err != nil {
					t.Fatal(err)
				}
				remote, err := Build(d, cfg, shards, urls)
				if err != nil {
					t.Fatal(err)
				}
				defer remote.Close()

				engines := []struct {
					name string
					eng  *Engine
				}{{"local", local}, {"remote", remote}}
				queries := randomQueries(r, d, lengths, 6)
				ctx := context.Background()
				var remoteSpans []obs.Span

				for qi, q := range queries {
					for _, mode := range []query.MatchMode{query.MatchAny, query.MatchExact} {
						// Reference: local, untraced.
						refM, refErr := bestMatch(local, ctx, q, mode)
						refK, refKErr := bestK(local, ctx, q, mode, 3)
						for _, e := range engines {
							for _, traced := range []bool{false, true} {
								var rec *obs.Trace
								if traced {
									rec = obs.NewTrace(fmt.Sprintf("purity-%d", qi))
								}
								m, err := bestMatch(e.eng, obs.ContextWithTrace(ctx, rec), q, mode)
								if (err != nil) != (refErr != nil) {
									t.Fatalf("%s traced=%v q%d mode%d: error diverged: %v vs %v",
										e.name, traced, qi, mode, err, refErr)
								}
								if err == nil && !matchBitsEqual(m, refM) {
									t.Fatalf("%s traced=%v q%d mode%d: match diverged: %+v vs %+v",
										e.name, traced, qi, mode, m, refM)
								}
								ms, err := bestK(e.eng, obs.ContextWithTrace(ctx, rec), q, mode, 3)
								if (err != nil) != (refKErr != nil) {
									t.Fatalf("%s traced=%v q%d mode%d: knn error diverged: %v vs %v",
										e.name, traced, qi, mode, err, refKErr)
								}
								if err == nil && !matchesBitsEqual(ms, refK) {
									t.Fatalf("%s traced=%v q%d mode%d: knn diverged", e.name, traced, qi, mode)
								}
								if traced && e.name == "remote" {
									remoteSpans = append(remoteSpans, rec.Snapshot().Spans...)
								}
							}
						}
					}
					for _, exact := range []bool{false, true} {
						refR, refErr := rangeSearch(local, ctx, q, len(q), st, exact)
						for _, e := range engines {
							for _, traced := range []bool{false, true} {
								var rec *obs.Trace
								if traced {
									rec = obs.NewTrace("purity-range")
								}
								rs, err := rangeSearch(e.eng, obs.ContextWithTrace(ctx, rec), q, len(q), st, exact)
								if (err != nil) != (refErr != nil) {
									t.Fatalf("%s traced=%v q%d exact=%v: range error diverged: %v vs %v",
										e.name, traced, qi, exact, err, refErr)
								}
								if err == nil && !rangeBitsEqual(rs, refR) {
									t.Fatalf("%s traced=%v q%d exact=%v: range diverged", e.name, traced, qi, exact)
								}
								if traced && e.name == "remote" {
									remoteSpans = append(remoteSpans, rec.Snapshot().Spans...)
								}
							}
						}
					}
				}

				refS, refErr := seasonal(local, ctx, -1, lengths[0])
				for _, e := range engines {
					for _, traced := range []bool{false, true} {
						var rec *obs.Trace
						if traced {
							rec = obs.NewTrace("purity-seasonal")
						}
						sg, err := seasonal(e.eng, obs.ContextWithTrace(ctx, rec), -1, lengths[0])
						if (err != nil) != (refErr != nil) {
							t.Fatalf("%s traced=%v: seasonal error diverged: %v vs %v", e.name, traced, err, refErr)
						}
						if err == nil && !seasonalBitsEqual(sg, refS) {
							t.Fatalf("%s traced=%v: seasonal diverged", e.name, traced)
						}
					}
				}

				var rpcSpans, workerSpans int
				for _, sp := range remoteSpans {
					if strings.HasPrefix(sp.Name, "rpc-") {
						rpcSpans++
					}
					if strings.HasPrefix(sp.Name, "worker-") {
						workerSpans++
					}
				}
				if rpcSpans == 0 || workerSpans == 0 {
					t.Fatalf("traced remote queries recorded %d rpc / %d worker spans — tracing silently off",
						rpcSpans, workerSpans)
				}
			})
		}
	}
}

// TestRemoteWorkerSpanWorkAgreement: the pruning-cascade attrs the worker
// spans carry, plus the coordinator's refine spans (the best-match group
// walk runs on the coordinator), must sum to exactly the work counters the
// trace accumulated — the distributed explain decomposition is exact, not
// approximate.
func TestRemoteWorkerSpanWorkAgreement(t *testing.T) {
	lengths := []int{8, 12}
	const st = 0.35
	r := rand.New(rand.NewSource(3301))
	d := randomDataset(r, 12, 30)
	cfg := core.BuildConfig{
		ST: st, Lengths: lengths, Seed: 1,
		Parallelism: 2,
	}
	urls, _ := startWorkers(t, 2)
	remote, err := Build(d, cfg, 3, urls)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	queries := randomQueries(r, d, lengths, 5)
	for qi, q := range queries {
		rec := obs.NewTrace(fmt.Sprintf("agree-%d", qi))
		if _, err := bestMatch(remote, obs.ContextWithTrace(context.Background(), rec), q, query.MatchAny); err != nil {
			continue
		}
		v := rec.Snapshot()
		sums, refined := map[string]int64{}, map[string]int64{}
		for _, sp := range v.Spans {
			if !strings.HasPrefix(sp.Name, "worker-") && sp.Name != "refine" {
				continue
			}
			for _, a := range sp.Attrs {
				sums[a.Key] += a.Value
				if sp.Name == "refine" {
					refined[a.Key] += a.Value
				}
			}
		}
		// Every cascade counter the coordinator accumulated must equal the sum
		// over the worker spans and the refine spans.
		for _, key := range []string{"repsExamined", "prunedByKim", "dtwComputed"} {
			if sums[key] != v.Work[key] {
				t.Fatalf("q%d: worker+refine span sum %s=%d != trace work %d (work=%v sums=%v)",
					qi, key, sums[key], v.Work[key], v.Work, sums)
			}
		}
		// The group walk tests members only on the coordinator.
		if v.Work["membersTested"] != refined["membersTested"] {
			t.Fatalf("q%d: membersTested %d != refine span sum %d",
				qi, v.Work["membersTested"], refined["membersTested"])
		}
	}
}
