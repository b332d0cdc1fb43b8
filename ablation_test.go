// Ablation benchmarks for the design choices DESIGN.md calls out that stay
// choices: construction parallelism, distance cost and incremental
// maintenance. The Sec. 5.3 query optimizations always run, and
// representatives are always the paper's point-wise averages, so neither
// has an ablation here.
package onex

import (
	"fmt"
	"testing"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/dist"
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
