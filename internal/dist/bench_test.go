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

// smoothPair draws a smooth random walk with a slow oscillation and a copy
// of it with small noise added: a near-twin pair.
func smoothPair(n int) (q, c []float64) {
	r := rand.New(rand.NewSource(int64(n)))
	q, c = make([]float64, n), make([]float64, n)
	x := 0.0
	for i := range q {
		x += float64(0.1 * r.NormFloat64())
		q[i] = math.Sin(float64(i)/8) + x
		c[i] = q[i] + float64(0.05*r.NormFloat64())
	}
	return q, c
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

// BenchmarkDTWEarlyAbandonSmooth96 is the member refine's regime: a smooth
// near-twin pair, as the members of one group are, at half its distance, so
// the kernel abandons after a few narrow rows.
func BenchmarkDTWEarlyAbandonSmooth96(b *testing.B) {
	q, c := smoothPair(96)
	var w Workspace
	cutoff := w.DTW(q, c) * 0.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.DTWEarlyAbandon(q, c, cutoff)
	}
}

// rangePair draws the regime of a range query's member DTWs on smooth data:
// a slow random walk under a period-24 oscillation and a copy that agrees
// with it (noise 0.01) in its head and tail and diverges (noise 0.06) over
// points 40–71 of 96.
func rangePair() (q, c []float64) {
	r := rand.New(rand.NewSource(96))
	q, c = make([]float64, 96), make([]float64, 96)
	x := 0.0
	for i := range q {
		x += float64(0.05 * r.NormFloat64())
		q[i] = float64(0.5*math.Sin(2*math.Pi*float64(i)/24)) + x
		c[i] = q[i] + float64(0.01*r.NormFloat64())
		if i >= 40 && i < 72 {
			c[i] += float64(0.06 * r.NormFloat64())
		}
	}
	return q, c
}

// BenchmarkDTWEarlyAbandonRange96 is a range query over the members of one
// smooth group: rangePair (distance ≈ 0.32) at the raw cutoff of a
// normalized radius of 0.0015, 0.0015·2·96 ≈ 0.29. The kernel keeps a
// narrow window along the agreeing head, widens it where the pair diverges,
// and abandons at row 71, after 572 of the matrix's 9,216 cells.
func BenchmarkDTWEarlyAbandonRange96(b *testing.B) {
	q, c := rangePair()
	var w Workspace
	cutoff := 0.0015 * NormalizedDTWDivisor(96, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.DTWEarlyAbandon(q, c, cutoff)
	}
}

// BenchmarkDTWEarlyAbandonExact128 is a k-NN survivor: the cutoff equals the
// distance, so the kernel finishes a near-full matrix.
func BenchmarkDTWEarlyAbandonExact128(b *testing.B) {
	q, c := benchPair(128)
	var w Workspace
	cutoff := w.DTW(q, c)
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
