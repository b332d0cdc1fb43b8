package query

import (
	"math"
	"sort"
)

// topK keeps the k best matches seen, worst at the root.
type topK struct {
	k       int
	matches []Match // max-heap by Dist
}

func newTopK(k int) *topK { return &topK{k: k} }

// kth returns the current k-th best normalized distance (+Inf until k
// matches accumulated) — the pruning cutoff.
func (t *topK) kth() float64 {
	if len(t.matches) < t.k {
		return math.Inf(1)
	}
	return t.matches[0].Dist
}

func (t *topK) push(m Match) {
	// Reject duplicates of the same subsequence (can arrive via adapted
	// views or repeated mining).
	for _, ex := range t.matches {
		if ex.SeriesID == m.SeriesID && ex.Start == m.Start && ex.Length == m.Length {
			return
		}
	}
	t.matches = keepK(t.matches, t.k, m, byDist)
}

func byDist(a, b Match) bool { return a.Dist < b.Dist }

// keepK offers v to h, a max-heap under less holding the at most k least
// values offered so far, and returns the heap: v is appended while h holds
// fewer than k, replaces the root when less than it, and is dropped
// otherwise — so of equal values the first offered stays.
func keepK[T any](h []T, k int, v T, less func(a, b T) bool) []T {
	if len(h) < k {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if k == 0 || !less(v, h[0]) {
		return h
	}
	h[0] = v
	for i := 0; ; {
		l, r, worst := 2*i+1, 2*i+2, i
		if l < len(h) && less(h[worst], h[l]) {
			worst = l
		}
		if r < len(h) && less(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return h
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sorted returns the collected matches best-first.
func (t *topK) sorted() []Match {
	out := append([]Match(nil), t.matches...)
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out
}
