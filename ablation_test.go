// Ablation benchmarks for the design choices DESIGN.md calls out: each
// isolates one Sec. 5.3 optimization so its contribution to query latency is
// measurable. Answers never change for admissible prunes (asserted in the
// query package's tests); these benches quantify the speed side.
package onex

import (
	"context"
	"testing"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/query"
	"onex/internal/shard"
	"onex/internal/ts"
)

// ablationFixture builds one dataset once and engines with/without a knob.
type ablationFixture struct {
	data    *ts.Dataset
	lengths []int
	queries [][]float64
}

func newAblationFixture(b *testing.B) *ablationFixture {
	b.Helper()
	sp := dataset.ECG.Scaled(0.25)
	d := sp.Generate(3)
	if err := d.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	lengths := []int{12, 24, 48, 72, 96}
	var queries [][]float64
	for i := 0; i < 8; i++ {
		l := lengths[i%len(lengths)]
		s := d.Series[(i*3)%d.N()]
		start := (i * 5) % (s.Len() - l + 1)
		q := append([]float64(nil), s.Values[start:start+l]...)
		if i%2 == 1 {
			for j := range q {
				q[j] = q[j]*0.9 + 0.03
			}
		}
		queries = append(queries, q)
	}
	return &ablationFixture{data: d, lengths: lengths, queries: queries}
}

func (f *ablationFixture) engine(b *testing.B, opts query.Options) *shard.Engine {
	b.Helper()
	eng, err := shard.Build(f.data, core.BuildConfig{
		ST: 0.2, Lengths: f.lengths, Seed: 1,
		Normalize: core.NormalizeNone, Query: opts,
	}, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func (f *ablationFixture) run(b *testing.B, eng *shard.Engine, mode query.MatchMode) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engBestMatch(eng, f.queries[i%len(f.queries)], mode); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLowerBounds isolates the LB_Kim → LB_Keogh cascade.
func BenchmarkAblationLowerBounds(b *testing.B) {
	f := newAblationFixture(b)
	b.Run("cascade-on", func(b *testing.B) {
		f.run(b, f.engine(b, query.Options{}), query.MatchExact)
	})
	b.Run("cascade-off", func(b *testing.B) {
		f.run(b, f.engine(b, query.Options{DisableLowerBounds: true}), query.MatchExact)
	})
}

// BenchmarkAblationEarlyStop isolates the Sec. 5.3 any-length stop rule.
func BenchmarkAblationEarlyStop(b *testing.B) {
	f := newAblationFixture(b)
	b.Run("early-stop", func(b *testing.B) {
		f.run(b, f.engine(b, query.Options{}), query.MatchAny)
	})
	b.Run("all-lengths", func(b *testing.B) {
		f.run(b, f.engine(b, query.Options{DisableEarlyStop: true}), query.MatchAny)
	})
}

// BenchmarkAblationPatience isolates the bounded in-group pivot walk.
func BenchmarkAblationPatience(b *testing.B) {
	f := newAblationFixture(b)
	b.Run("patience-32", func(b *testing.B) {
		f.run(b, f.engine(b, query.Options{Patience: 32}), query.MatchExact)
	})
	b.Run("patience-8", func(b *testing.B) {
		f.run(b, f.engine(b, query.Options{Patience: 8}), query.MatchExact)
	})
	b.Run("exhaustive", func(b *testing.B) {
		f.run(b, f.engine(b, query.Options{Patience: -1}), query.MatchExact)
	})
}

// BenchmarkAblationCandidateLimit isolates the fixed member-verification cap.
func BenchmarkAblationCandidateLimit(b *testing.B) {
	f := newAblationFixture(b)
	for _, limit := range []int{1, 8, 64} {
		limit := limit
		b.Run(benchName("limit", limit), func(b *testing.B) {
			f.run(b, f.engine(b, query.Options{CandidateLimit: limit}), query.MatchExact)
		})
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "-0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{digits[v%10]}, buf...)
		v /= 10
	}
	return prefix + "-" + string(buf)
}

// BenchmarkAblationBuildWorkers isolates construction parallelism.
func BenchmarkAblationBuildWorkers(b *testing.B) {
	sp := dataset.ECG.Scaled(0.15)
	d := sp.Generate(3)
	if err := d.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
		workers := workers
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := shard.Build(d, core.BuildConfig{
					ST: 0.2, Lengths: []int{12, 24, 48, 72, 96},
					Seed: 1, Workers: workers, Normalize: core.NormalizeNone,
				}, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDBARepresentatives contrasts ONEX's point-wise-average
// representatives with DTW-barycenter (DBA) representatives — the design
// debate of Sec. 7 vs Petitjean et al. [21]. Reported metrics: the mean
// member-DTW of each representative strategy and the refinement cost.
func BenchmarkAblationDBARepresentatives(b *testing.B) {
	d := dataset.ECG.Scaled(0.15).Generate(3)
	if err := d.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	gr, err := grouping.Build(d, grouping.Config{ST: 0.25, Lengths: []int{24, 48}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	meanDTW := func(res *grouping.Result) float64 {
		var sum float64
		var n int
		for _, l := range res.Lengths {
			for _, g := range res.ByLength[l].Groups {
				if g.Count() < 2 {
					continue
				}
				seqs := make([][]float64, g.Count())
				for mi, m := range g.Members {
					seqs[mi] = grouping.MemberValues(d, g, m)
				}
				sum += grouping.MeanDTWToCenter(g.Rep, seqs)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	b.Run("pointwise-average", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = meanDTW(gr)
		}
		b.ReportMetric(v, "meanDTW")
	})
	b.Run("dba-refined", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			refined, err := grouping.RefineRepresentativesDBA(d, gr, 5)
			if err != nil {
				b.Fatal(err)
			}
			v = meanDTW(refined)
		}
		b.ReportMetric(v, "meanDTW")
	})
}

// BenchmarkExtensionElasticDistances compares the per-pair cost of the
// elastic distances the paper's related work weighs (Sec. 7): DTW vs LCSS
// vs ERP, plus plain ED as the floor.
func BenchmarkExtensionElasticDistances(b *testing.B) {
	d := dataset.ECG.Scaled(0.1).Generate(9)
	if err := d.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	x := d.Series[0].Values
	y := d.Series[1].Values
	var w dist.Workspace
	b.Run("ED", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.ED(x, y)
		}
	})
	b.Run("DTW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.DTW(x, y)
		}
	})
	b.Run("LCSS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.LCSSDistance(x, y, 0.1, -1)
		}
	})
	b.Run("ERP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.ERP(x, y, 0)
		}
	})
}

// BenchmarkAblationExtendVsRebuild quantifies incremental maintenance: the
// cost of adding 5 series to an existing base vs rebuilding from scratch.
func BenchmarkAblationExtendVsRebuild(b *testing.B) {
	sp := dataset.ItalyPower
	full := sp.Generate(5)
	if err := full.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	from := full.N() - 5
	partial := &ts.Dataset{Name: full.Name}
	for _, s := range full.Series[:from] {
		partial.Append(s.Label, s.Values)
	}
	cfg := core.BuildConfig{ST: 0.2, Seed: 1, Normalize: core.NormalizeNone}
	baseEng, err := shard.Build(partial, cfg, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	newSeries := full.Series[from:]

	b.Run("extend-5-series", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseEng.Extend(newSeries); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild-from-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := shard.Build(full, cfg, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// engBestMatch asks the engine one Q1 query.
func engBestMatch(e *shard.Engine, q []float64, mode query.MatchMode) (query.Match, error) {
	r := e.Exec(context.Background(), query.Request{Family: query.FamilyMatch, Query: q, Mode: mode})
	if r.Err != nil {
		return query.Match{}, r.Err
	}
	return r.Matches[0], nil
}
