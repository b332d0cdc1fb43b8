// Benchmarks mirroring the paper's evaluation, one per table/figure.
// These are testing.B micro-views of the experiments (per-operation costs at
// a fixed small scale, so `go test -bench=.` completes in minutes);
// cmd/onex-bench regenerates the full tables/series and EXPERIMENTS.md
// records paper-vs-measured values.
//
// This file lives in the external test package: it only touches internal
// packages directly.
package onex_test

import (
	"context"
	"fmt"
	"testing"

	"onex/internal/baseline"
	"onex/internal/bench"
	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/grouping"
	"onex/internal/query"
	"onex/internal/shard"
	"onex/internal/stats"
	"onex/internal/ts"
)

// benchFixture builds one dataset + engine + baselines at bench scale.
type benchFixture struct {
	data    *ts.Dataset
	lengths []int
	queries [][]float64
	eng     *shard.Engine
	trill   *baseline.Trillion
	paa     *baseline.PAA
	brute   *baseline.BruteForce
}

func newBenchFixture(b *testing.B, name string, scale float64, lengthCount, nQueries int) *benchFixture {
	b.Helper()
	sp, ok := dataset.ByName(name)
	if !ok {
		b.Fatalf("unknown dataset %s", name)
	}
	sp = sp.Scaled(scale)
	d := sp.Generate(1)
	if err := d.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	var lengths []int
	for i := 0; i < lengthCount; i++ {
		l := 4 + i*(sp.Length-4)/lengthCount
		if len(lengths) == 0 || l != lengths[len(lengths)-1] {
			lengths = append(lengths, l)
		}
	}
	eng, err := shard.Build(d, core.BuildConfig{ST: 0.2, Lengths: lengths, Seed: 1, Normalize: core.NormalizeNone}, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	trill, err := baseline.NewTrillion(d, baseline.TrillionConfig{})
	if err != nil {
		b.Fatal(err)
	}
	paa, err := baseline.NewPAA(d, lengths, 0)
	if err != nil {
		b.Fatal(err)
	}
	brute, err := baseline.NewBruteForce(d)
	if err != nil {
		b.Fatal(err)
	}
	var queries [][]float64
	for i := 0; i < nQueries; i++ {
		l := lengths[(i+1)%len(lengths)]
		s := d.Series[i%d.N()]
		if l > s.Len() {
			l = s.Len()
		}
		start := (i * 7) % (s.Len() - l + 1)
		q := append([]float64(nil), s.Values[start:start+l]...)
		if i%2 == 1 { // half the queries perturbed "outside the dataset"
			for j := range q {
				q[j] += 0.02 * float64(j%3)
			}
		}
		queries = append(queries, q)
	}
	return &benchFixture{data: d, lengths: lengths, queries: queries,
		eng: eng, trill: trill, paa: paa, brute: brute}
}

// BenchmarkFig2SimilarityTime — Fig. 2: per-query similarity search cost for
// each system on the same data and candidate pool.
func BenchmarkFig2SimilarityTime(b *testing.B) {
	f := newBenchFixture(b, "ItalyPower", 1, 8, 8)
	b.Run("ONEX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engBestMatch(f.eng, f.queries[i%len(f.queries)], query.MatchAny); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Trillion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.trill.BestMatch(f.queries[i%len(f.queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PAA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.paa.BestMatch(f.queries[i%len(f.queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StandardDTW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.brute.BestMatch(f.queries[i%len(f.queries)], f.lengths); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig3Scalability — Fig. 3: ONEX and Trillion query cost as the
// number of StarLightCurves series grows.
func BenchmarkFig3Scalability(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		sp := dataset.StarLight(n, 100)
		d := sp.Generate(1)
		if err := d.NormalizeMinMax(); err != nil {
			b.Fatal(err)
		}
		lengths := []int{25, 50, 75, 100}
		eng, err := shard.Build(d, core.BuildConfig{ST: 0.2, Lengths: lengths, Seed: 1, Normalize: core.NormalizeNone}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		trill, err := baseline.NewTrillion(d, baseline.TrillionConfig{})
		if err != nil {
			b.Fatal(err)
		}
		q := append([]float64(nil), d.Series[0].Values[10:60]...)
		b.Run(fmt.Sprintf("ONEX/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engBestMatch(eng, q, query.MatchAny); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Trillion/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trill.BestMatch(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Seasonal — Fig. 4: seasonal-similarity query cost, sample-TS
// and all-TS variants.
func BenchmarkFig4Seasonal(b *testing.B) {
	f := newBenchFixture(b, "ECG", 0.2, 6, 2)
	l := f.lengths[len(f.lengths)/2]
	b.Run("SampleTS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := f.eng.Exec(context.Background(), query.Request{Family: query.FamilySeasonal, SeriesID: i % f.data.N(), Length: l}).Err; err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AllTS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := f.eng.Exec(context.Background(), query.Request{Family: query.FamilySeasonal, SeriesID: -1, Length: l}).Err; err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5Construction — Fig. 5: offline base-construction cost as the
// similarity threshold varies (higher ST → fewer groups → cheaper build).
func BenchmarkFig5Construction(b *testing.B) {
	sp := dataset.ItalyPower
	d := sp.Generate(1)
	if err := d.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	for _, st := range []float64{0.1, 0.2, 0.4, 0.8} {
		b.Run(fmt.Sprintf("ST=%.1f", st), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := grouping.Build(d, grouping.Config{ST: st, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Representatives — Fig. 6: the representative count the sweep
// of Fig. 5 produces, reported as a custom metric.
func BenchmarkFig6Representatives(b *testing.B) {
	sp := dataset.ItalyPower
	d := sp.Generate(1)
	if err := d.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	for _, st := range []float64{0.1, 0.2, 0.4, 0.8} {
		b.Run(fmt.Sprintf("ST=%.1f", st), func(b *testing.B) {
			var reps int
			for i := 0; i < b.N; i++ {
				gr, err := grouping.Build(d, grouping.Config{ST: st, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				reps = gr.TotalGroups()
			}
			b.ReportMetric(float64(reps), "reps")
		})
	}
}

// tradeoffBench measures the Fig. 7/8 quantities: per-query time at each ST
// with the accuracy against brute force reported as a custom metric.
func tradeoffBench(b *testing.B, name string, scale float64) {
	f := newBenchFixture(b, name, scale, 6, 4)
	var exact []float64
	for _, q := range f.queries {
		m, err := f.brute.BestMatch(q, f.lengths)
		if err != nil {
			b.Fatal(err)
		}
		exact = append(exact, m.Dist)
	}
	for _, st := range []float64{0.1, 0.2, 0.4} {
		eng, err := shard.Build(f.data, core.BuildConfig{ST: st, Lengths: f.lengths, Seed: 1, Normalize: core.NormalizeNone}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		var dists []float64
		for _, q := range f.queries {
			m, err := engBestMatch(eng, q, query.MatchAny)
			if err != nil {
				b.Fatal(err)
			}
			dists = append(dists, m.Dist)
		}
		acc, err := stats.Accuracy(dists, exact)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ST=%.1f", st), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engBestMatch(eng, f.queries[i%len(f.queries)], query.MatchAny); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc, "acc%")
		})
	}
}

// BenchmarkFig7Tradeoff — Fig. 7: accuracy/time trade-off on ItalyPower.
func BenchmarkFig7Tradeoff(b *testing.B) { tradeoffBench(b, "ItalyPower", 1) }

// BenchmarkFig8Tradeoff — Fig. 8: the same trade-off on Wafer.
func BenchmarkFig8Tradeoff(b *testing.B) { tradeoffBench(b, "Wafer", 0.03) }

// BenchmarkTable1SameLengthTime — Table 1: same-length query cost, ONEX-S vs
// Trillion.
func BenchmarkTable1SameLengthTime(b *testing.B) {
	f := newBenchFixture(b, "ECG", 0.15, 6, 6)
	b.Run("ONEX-S", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engBestMatch(f.eng, f.queries[i%len(f.queries)], query.MatchExact); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Trillion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.trill.BestMatch(f.queries[i%len(f.queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// accuracyBench measures a Table 2/3 accuracy column once and reports it as
// the benchmark metric while timing the system's query path.
func accuracyBench(b *testing.B, sameLength bool) {
	f := newBenchFixture(b, "ItalyPower", 1, 8, 8)
	var exact, onexD, trillD []float64
	mode := query.MatchAny
	if sameLength {
		mode = query.MatchExact
	}
	for _, q := range f.queries {
		var em baseline.Match
		var err error
		if sameLength {
			em, err = f.brute.BestMatchSameLength(q)
		} else {
			em, err = f.brute.BestMatch(q, f.lengths)
		}
		if err != nil {
			b.Fatal(err)
		}
		exact = append(exact, em.Dist)
		om, err := engBestMatch(f.eng, q, mode)
		if err != nil {
			b.Fatal(err)
		}
		onexD = append(onexD, om.Dist)
		tm, err := f.trill.BestMatch(q)
		if err != nil {
			b.Fatal(err)
		}
		trillD = append(trillD, tm.Dist)
	}
	accONEX, err := stats.Accuracy(onexD, exact)
	if err != nil {
		b.Fatal(err)
	}
	accTrill, err := stats.Accuracy(trillD, exact)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ONEX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engBestMatch(f.eng, f.queries[i%len(f.queries)], mode); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(accONEX, "acc%")
	})
	b.Run("Trillion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.trill.BestMatch(f.queries[i%len(f.queries)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(accTrill, "acc%")
	})
}

// BenchmarkTable2SameLengthAccuracy — Table 2: same-length accuracy.
func BenchmarkTable2SameLengthAccuracy(b *testing.B) { accuracyBench(b, true) }

// BenchmarkTable3AnyLengthAccuracy — Table 3: any-length accuracy.
func BenchmarkTable3AnyLengthAccuracy(b *testing.B) { accuracyBench(b, false) }

// BenchmarkTable4BaseSize — Table 4: full base materialization (groups +
// GTI/LSI indexes), with representative count and index MB as metrics.
func BenchmarkTable4BaseSize(b *testing.B) {
	sp := dataset.ItalyPower
	d := sp.Generate(1)
	if err := d.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	var reps int
	var mb float64
	for i := 0; i < b.N; i++ {
		eng, err := shard.Build(d, core.BuildConfig{ST: 0.2, Seed: 1, Normalize: core.NormalizeNone}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		reps = eng.TotalGroups()
		mb = float64(eng.SizeBytes()) / (1 << 20)
	}
	b.ReportMetric(float64(reps), "reps")
	b.ReportMetric(mb, "MB")
}

// BenchmarkExperimentHarness exercises the bench-package registry end to end
// at miniature scale, guarding the cmd/onex-bench path.
func BenchmarkExperimentHarness(b *testing.B) {
	cfg := bench.Config{ST: 0.2, Seed: 1, Scale: 0.2, LengthCount: 5,
		Queries: 2, Repeats: 1, Datasets: []string{"ItalyPower"}}
	for i := 0; i < b.N; i++ {
		s, err := bench.NewSession(cfg)
		if err != nil {
			b.Fatal(err)
		}
		e, _ := bench.ByID("table4")
		if _, err := e.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// engBestMatch asks the engine one Q1 query.
func engBestMatch(e *shard.Engine, q []float64, mode query.MatchMode) (query.Match, error) {
	r := e.Exec(context.Background(), query.Request{Family: query.FamilyMatch, Query: q, Mode: mode})
	if r.Err != nil {
		return query.Match{}, r.Err
	}
	return r.Matches[0], nil
}
