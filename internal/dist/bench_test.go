package dist

import (
	"math"
	"math/rand"
	"testing"
)

func benchPair(n int) (q, c []float64) {
	r := rand.New(rand.NewSource(int64(n)))
	return randSeries(r, n), randSeries(r, n)
}

func BenchmarkED128(b *testing.B) {
	q, c := benchPair(128)
	for i := 0; i < b.N; i++ {
		ED(q, c)
	}
}

func BenchmarkDTW128(b *testing.B) {
	q, c := benchPair(128)
	var w Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.DTW(q, c)
	}
}

func BenchmarkDTWEarlyAbandon128(b *testing.B) {
	q, c := benchPair(128)
	var w Workspace
	cutoff := w.DTW(q, c) * 0.5 // typical pruned verification
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.DTWEarlyAbandon(q, c, cutoff)
	}
}

func BenchmarkLBKeogh128(b *testing.B) {
	q, c := benchPair(128)
	u, l := Envelope(c, len(c), nil, nil)
	order := QueryOrder(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LBKeoghOrdered(q, u, l, order, math.Inf(1))
	}
}

func BenchmarkEnvelope1024(b *testing.B) {
	r := rand.New(rand.NewSource(1024))
	x := randSeries(r, 1024)
	var u, l []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, l = Envelope(x, 16, u, l)
	}
}
