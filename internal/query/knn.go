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
	if len(t.matches) < t.k {
		t.matches = append(t.matches, m)
		t.up(len(t.matches) - 1)
		return
	}
	if m.Dist >= t.matches[0].Dist {
		return
	}
	t.matches[0] = m
	t.down(0)
}

func (t *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.matches[parent].Dist >= t.matches[i].Dist {
			break
		}
		t.matches[parent], t.matches[i] = t.matches[i], t.matches[parent]
		i = parent
	}
}

func (t *topK) down(i int) {
	n := len(t.matches)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.matches[l].Dist > t.matches[largest].Dist {
			largest = l
		}
		if r < n && t.matches[r].Dist > t.matches[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		t.matches[i], t.matches[largest] = t.matches[largest], t.matches[i]
		i = largest
	}
}

// sorted returns the collected matches best-first.
func (t *topK) sorted() []Match {
	out := append([]Match(nil), t.matches...)
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out
}
