package shard

import (
	"context"
	"math/rand"
	"testing"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/query"
)

// benchmarkKNNFirstLength times exact-length k-NN (k = 10) on a one-shard
// base at one worker, indexed at 8 lengths spread over [8, series length] at
// ST 0.2, over 40 queries: windows of the base, lengths in turn, with small
// noise added. An exact-length k-NN searches one length, the one its heap
// fills at, so the time is that of a k-NN's first length: the top-k scan,
// the verification of its groups, and the scan and verification of the
// rest. Compare a change against a parent build with, e.g.:
//
//	go test -run '^$' -bench KNNFirstLength -count 6 ./internal/shard
func benchmarkKNNFirstLength(b *testing.B, spec dataset.Spec, n int) {
	spec.N = n
	d := spec.Generate(1)
	var lengths []int
	for i := range 8 {
		lengths = append(lengths, 8+i*(spec.Length-8)/7)
	}
	e, err := Build(d, core.BuildConfig{ST: 0.2, Lengths: lengths, Seed: 1, Parallelism: 1}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	queries := make([][]float64, 40)
	for i := range queries {
		l := lengths[i%len(lengths)]
		s := e.data.Series[r.Intn(e.data.N())]
		start := r.Intn(s.Len() - l + 1)
		q := append([]float64(nil), s.Values[start:start+l]...)
		for j := range q {
			q[j] += float64(0.05 * r.NormFloat64())
		}
		queries[i] = q
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bestK(e, ctx, queries[i%len(queries)], query.MatchExact, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNFirstLengthNoisy is the noisy shape: TwoPattern, 80 × 128,
// many small groups, where the representative scan is most of a k-NN.
func BenchmarkKNNFirstLengthNoisy(b *testing.B) { benchmarkKNNFirstLength(b, dataset.TwoPattern, 80) }

// BenchmarkKNNFirstLengthSmooth is the smooth shape: ECG, 400 × 96, few
// large groups, where member verification is most of a k-NN.
func BenchmarkKNNFirstLengthSmooth(b *testing.B) { benchmarkKNNFirstLength(b, dataset.ECG, 400) }
