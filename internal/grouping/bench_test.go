package grouping

import (
	"sync"
	"testing"

	"onex/internal/dataset"
	"onex/internal/ts"
)

// The benchmarks time the callers of the Algorithm 1 loop, and the
// SP-Space critical values over its groups, on the two shapes the
// repository's benchmark uses: noisy (TwoPattern, 80 × 128, many small
// groups) and smooth (ECG, 400 × 96, few large groups), each indexed at 8
// lengths spread over [8, series length] at ST 0.2, on one worker. The
// build runs on both shapes: noisy builds are dominated by the
// representative loop, and smooth ones are what most of the repository's
// workloads build. They are the A/B instrument for changes to that loop,
// e.g.:
//
//	go test -run '^$' -bench . -count 6 ./internal/grouping
const benchST = 0.2

// benchSink and benchFloat keep each timed call's result alive.
var (
	benchSink  *Result
	benchFloat float64
)

// benchShape is one generated, min-max normalized dataset and its lengths.
type benchShape struct {
	once    sync.Once
	spec    dataset.Spec
	n       int
	d       *ts.Dataset
	lengths []int
	base    *Result
}

var (
	noisyShape  = &benchShape{spec: dataset.TwoPattern, n: 80}
	smoothShape = &benchShape{spec: dataset.ECG, n: 400}
)

func (s *benchShape) config() Config {
	return Config{ST: benchST, Lengths: s.lengths, Seed: 1, Workers: 1}
}

// get generates the shape's dataset and builds its base once per process.
func (s *benchShape) get(b *testing.B) *benchShape {
	b.Helper()
	s.once.Do(func() {
		spec := s.spec
		spec.N = s.n
		s.d = spec.Generate(1)
		if err := s.d.NormalizeMinMax(); err != nil {
			panic(err)
		}
		const lo, count = 8, 8
		for i := 0; i < count; i++ {
			s.lengths = append(s.lengths, lo+i*(spec.Length-lo)/(count-1))
		}
		var err error
		if s.base, err = Build(s.d, s.config()); err != nil {
			panic(err)
		}
	})
	return s
}

func benchmarkBuild(b *testing.B, s *benchShape) {
	s = s.get(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Build(s.d, s.config())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

// BenchmarkBuild builds the noisy base: hundreds of groups per length.
func BenchmarkBuild(b *testing.B) { benchmarkBuild(b, noisyShape) }

// BenchmarkBuildSmooth builds the smooth base: few groups per length.
func BenchmarkBuildSmooth(b *testing.B) { benchmarkBuild(b, smoothShape) }

// benchmarkAppendPoints appends 2 points to one series of a shape's base.
// The grown dataset is a copy-on-write clone, so the shared fixture stays
// as built; AppendPoints leaves its inputs untouched, so every iteration
// does the same work.
func benchmarkAppendPoints(b *testing.B, s *benchShape) {
	s = s.get(b)
	d := s.d.CloneShared()
	oldLens := make([]int, d.N())
	for i, ser := range d.Series {
		oldLens[i] = ser.Len()
	}
	if err := d.AppendPoints(0, d.Series[0].Values[:2]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := AppendPoints(d, s.base, oldLens, s.config())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

// BenchmarkAppendPoints appends to the smooth base: few groups, each
// touched one large.
func BenchmarkAppendPoints(b *testing.B) { benchmarkAppendPoints(b, smoothShape) }

// BenchmarkAppendPointsNoisy appends to the noisy base: many small groups.
func BenchmarkAppendPointsNoisy(b *testing.B) { benchmarkAppendPoints(b, noisyShape) }

// BenchmarkExtend adds 4 series to the smooth base, each the reverse of an
// existing series, so they are new windows of the same shape.
func BenchmarkExtend(b *testing.B) {
	s := smoothShape.get(b)
	d := s.d.CloneShared()
	from := d.N()
	for _, ser := range d.Series[:4] {
		v := make([]float64, ser.Len())
		for j, x := range ser.Values {
			v[len(v)-1-j] = x
		}
		d.Append("", v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := Extend(d, s.base, from, s.config())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func benchmarkAdapt(b *testing.B, s *benchShape, stPrime float64) {
	s = s.get(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Adapt(s.d, s.base, stPrime)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

// BenchmarkAdaptSplit adapts the noisy base to ST × 0.5.
func BenchmarkAdaptSplit(b *testing.B) { benchmarkAdapt(b, noisyShape, benchST*0.5) }

// BenchmarkAdaptMerge adapts the smooth base to ST × 2. (The noisy base
// holds hundreds of groups per length, and its merge cascade takes minutes.)
func BenchmarkAdaptMerge(b *testing.B) { benchmarkAdapt(b, smoothShape, benchST*2) }

// BenchmarkMergeThresholdsNoisy computes the SP-Space critical values of
// every length of the noisy base, as the first threshold recommendation
// after a build or write does.
func BenchmarkMergeThresholdsNoisy(b *testing.B) {
	s := noisyShape.get(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range s.lengths {
			half, final := MergeThresholdsFor(s.base.ByLength[l].Groups, l, s.base.ST)
			benchFloat += half + final
		}
	}
}
