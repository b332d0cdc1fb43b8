// Ablation benchmarks for the design choices DESIGN.md calls out that stay
// choices: construction parallelism, representative strategy, distance cost
// and incremental maintenance. The Sec. 5.3 query optimizations always run,
// so they have no ablation here.
package onex

import (
	"fmt"
	"testing"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/shard"
	"onex/internal/ts"
)

// BenchmarkAblationBuildWorkers isolates construction parallelism.
func BenchmarkAblationBuildWorkers(b *testing.B) {
	sp := dataset.ECG.Scaled(0.15)
	d := sp.Generate(3)
	if err := d.NormalizeMinMax(); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := shard.Build(d, core.BuildConfig{
					ST: 0.2, Lengths: []int{12, 24, 48, 72, 96},
					Seed: 1, Parallelism: workers, Normalize: core.NormalizeNone,
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
// paper's two distances: DTW, the elastic one, against plain ED, the floor.
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
