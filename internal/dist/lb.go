package dist

import (
	"math"
	"sort"
)

// Envelope returns the warping envelope of x for band half-width r:
// upper[i] = max(x[i−r…i+r]), lower[i] = min(x[i−r…i+r]) with the window
// clamped to the sequence (Keogh & Ratanamahatana). A radius ≥ len(x)−1
// yields the full-radius envelope that is admissible for unconstrained
// DTW. The upper/lower arguments are reused as output buffers when their
// capacity suffices, so hot loops can recompute envelopes without
// allocating; pass nil to allocate fresh slices. Runs in O(n) via
// monotonic deques.
func Envelope(x []float64, r int, upper, lower []float64) ([]float64, []float64) {
	n := len(x)
	upper = ensureLen(upper, n)
	lower = ensureLen(lower, n)
	if n == 0 {
		return upper, lower
	}
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	slidingExtremes(x, r, upper, func(a, b float64) bool { return a >= b })
	slidingExtremes(x, r, lower, func(a, b float64) bool { return a <= b })
	return upper, lower
}

// slidingExtremes fills out[i] with the extreme of x[i−r…i+r] under the
// dominance order dom (dom(a,b) true when a may evict b from the deque).
func slidingExtremes(x []float64, r int, out []float64, dom func(a, b float64) bool) {
	n := len(x)
	deque := make([]int, 0, n)
	next := 0
	for i := 0; i < n; i++ {
		hi := i + r
		if hi > n-1 {
			hi = n - 1
		}
		for ; next <= hi; next++ {
			for len(deque) > 0 && dom(x[next], x[deque[len(deque)-1]]) {
				deque = deque[:len(deque)-1]
			}
			deque = append(deque, next)
		}
		for deque[0] < i-r {
			deque = deque[1:]
		}
		out[i] = x[deque[0]]
	}
}

func ensureLen(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// QueryOrder returns the indices of q sorted by decreasing absolute value —
// the UCR-suite visit order for early-abandoning lower bounds: the largest
// |q[i]| are the likeliest to fall outside an envelope, so visiting them
// first accumulates the bound (and triggers the abandon) soonest.
func QueryOrder(q []float64) []int {
	order := make([]int, len(q))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return math.Abs(q[order[a]]) > math.Abs(q[order[b]])
	})
	return order
}

// LBKim is the O(1) first/last lower bound (the UCR suite's LB_KimFL):
// √((q₀−c₀)² + (qₙ−cₘ)²). Every warping path aligns the two heads and the
// two tails, so the bound is admissible for DTW at any band — including
// between sequences of different lengths, which is why the query processor
// can apply it to every representative of every length.
func LBKim(q, c []float64) float64 {
	n, m := len(q), len(c)
	if n == 0 || m == 0 {
		return 0
	}
	head := q[0] - c[0]
	if n == 1 && m == 1 {
		// The single-cell path pays (q₀−c₀)² exactly once.
		return math.Abs(head)
	}
	tail := q[n-1] - c[m-1]
	return math.Sqrt(float64(head*head) + float64(tail*tail))
}

// LBKeoghOrdered is the Keogh lower bound of DTW between q and a candidate
// whose envelope is (upper, lower): the root of the summed squared
// excursions of q outside the envelope. It is admissible for DTW at band w
// whenever the envelope radius is ≥ w (full radius ⇒ unconstrained DTW) and
// requires len(q) == len(upper) == len(lower). Indices are visited in the
// given order (use QueryOrder(q)) so the largest excursions accumulate first;
// the running sum abandons past cutoff², returning +Inf, and a finite result
// is the exact bound.
func LBKeoghOrdered(q, upper, lower []float64, order []int, cutoff float64) float64 {
	checkSameLength(len(q), len(upper))
	checkSameLength(len(q), len(lower))
	cutoffSq := cutoff * cutoff
	var sum float64
	for _, i := range order {
		v := q[i]
		if v > upper[i] {
			d := v - upper[i]
			sum += float64(d * d)
		} else if v < lower[i] {
			d := lower[i] - v
			sum += float64(d * d)
		}
		if sum > cutoffSq {
			return math.Inf(1)
		}
	}
	return math.Sqrt(sum)
}
