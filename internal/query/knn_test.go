package query

import (
	"context"
	"math"
	"sort"
	"testing"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// bruteKNN is the exhaustive reference: all subsequences of the given
// lengths ranked by normalized DTW.
func bruteKNN(p *engine, q []float64, lengths []int, k int) []Match {
	var all []Match
	var w dist.Workspace
	d := p.data
	for _, l := range lengths {
		div := dist.NormalizedDTWDivisor(len(q), l)
		for _, s := range d.Series {
			for j := 0; j+l <= s.Len(); j++ {
				raw := w.DTW(q, s.Values[j:j+l])
				all = append(all, Match{SeriesID: s.ID, Start: j, Length: l, Dist: raw / div, RawDTW: raw})
			}
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Dist < all[b].Dist })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestBestKMatchesValidation(t *testing.T) {
	p := italyProcessor(t, []int{6})
	if _, err := p.BestKMatches(make([]float64, 6), MatchExact, -1); err == nil {
		t.Error("k=-1: want error")
	}
	if _, err := p.BestKMatches(nil, MatchExact, 3); err == nil {
		t.Error("empty query: want error")
	}
	if _, err := p.BestKMatches(make([]float64, 7), MatchExact, 3); err == nil {
		t.Error("unindexed length: want error")
	}
	if _, err := p.BestKMatches(make([]float64, 6), MatchMode(9), 3); err == nil {
		t.Error("bad mode: want error")
	}
}

func TestBestKMatchesOrderingAndUniqueness(t *testing.T) {
	p := italyProcessor(t, []int{8})
	d := p.data
	q := append([]float64(nil), d.Series[1].Values[4:12]...)
	ms, err := p.BestKMatches(q, MatchExact, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("got %d matches, want 5", len(ms))
	}
	seen := map[[3]int]bool{}
	for i, m := range ms {
		if i > 0 && ms[i-1].Dist > m.Dist+1e-12 {
			t.Fatalf("matches not sorted at %d: %v > %v", i, ms[i-1].Dist, m.Dist)
		}
		key := [3]int{m.SeriesID, m.Start, m.Length}
		if seen[key] {
			t.Fatalf("duplicate match %v", key)
		}
		seen[key] = true
		// Distances must be reproducible from the locations.
		v := d.Series[m.SeriesID].Values[m.Start : m.Start+m.Length]
		if got := dist.NormalizedDTW(q, v); math.Abs(got-m.Dist) > 1e-9 {
			t.Fatalf("match %d distance %v != recomputed %v", i, m.Dist, got)
		}
	}
}

// TestBestKMatchesSmallK: k ≤ 1 is the best-match search itself (the same
// bits, so a request answers alike whichever form carries it); from k = 2
// the heap explores at least the 1-NN group, so its top can only be equal
// or better.
func TestBestKMatchesSmallK(t *testing.T) {
	p := italyProcessor(t, []int{8})
	d := p.data
	q := append([]float64(nil), d.Series[2].Values[3:11]...)
	q[0] += 0.05
	single, err := p.BestMatch(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1} {
		ks, err := p.BestKMatches(q, MatchExact, k)
		if err != nil || len(ks) != 1 || ks[0] != single {
			t.Errorf("k=%d: %+v, err %v; want exactly the best match %+v", k, ks, err, single)
		}
	}
	ks, err := p.BestKMatches(q, MatchExact, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ks[0].Dist > single.Dist+1e-9 {
		t.Errorf("k=2 top %v worse than BestMatch %v", ks[0].Dist, single.Dist)
	}
}

func TestBestKMatchesNearBruteForce(t *testing.T) {
	p := italyProcessor(t, []int{8})
	d := p.data
	q := append([]float64(nil), d.Series[0].Values[2:10]...)
	for i := range q {
		q[i] += float64(0.02 * float64(i%3))
	}
	const k = 5
	got, err := p.BestKMatches(q, MatchExact, k)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(p, q, []int{8}, k)
	// ONEX k-NN is approximate (group-pruned); its k-th distance must stay
	// within a small additive budget of the true k-th distance.
	if got[len(got)-1].Dist > want[len(want)-1].Dist+0.05 {
		t.Errorf("approximate k-th dist %v far above exact %v",
			got[len(got)-1].Dist, want[len(want)-1].Dist)
	}
	// And the top-1 must never be better than the true top-1.
	if got[0].Dist < want[0].Dist-1e-9 {
		t.Errorf("impossible: approx %v better than exact %v", got[0].Dist, want[0].Dist)
	}
}

func TestBestKMatchesAnyLength(t *testing.T) {
	p := italyProcessor(t, []int{5, 8, 11})
	d := p.data
	q := append([]float64(nil), d.Series[3].Values[1:9]...)
	ms, err := p.BestKMatches(q, MatchAny, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 7 {
		t.Fatalf("got %d matches", len(ms))
	}
	lengths := map[int]bool{}
	for _, m := range ms {
		lengths[m.Length] = true
	}
	if len(lengths) < 2 {
		t.Logf("note: all %d matches share one length (allowed)", len(ms))
	}
}

func TestBestKMatchesKLargerThanCandidates(t *testing.T) {
	p := italyProcessor(t, []int{8})
	q := append([]float64(nil), p.data.Series[0].Values[0:8]...)
	ms, err := p.BestKMatches(q, MatchExact, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range p.grouped.ByLength[8].Groups {
		total += g.Count()
	}
	if len(ms) > total {
		t.Fatalf("returned %d matches from %d candidates", len(ms), total)
	}
	if len(ms) == 0 {
		t.Fatal("no matches")
	}
}

func TestTopKHeap(t *testing.T) {
	h := newTopK(3)
	if !math.IsInf(h.kth(), 1) {
		t.Error("empty heap kth should be +Inf")
	}
	dists := []float64{0.5, 0.2, 0.9, 0.1, 0.7, 0.3}
	for i, d := range dists {
		h.push(Match{SeriesID: i, Length: 1, Dist: d})
	}
	out := h.sorted()
	if len(out) != 3 {
		t.Fatalf("kept %d, want 3", len(out))
	}
	want := []float64{0.1, 0.2, 0.3}
	for i := range want {
		if out[i].Dist != want[i] {
			t.Fatalf("sorted() = %v, want dists %v", out, want)
		}
	}
	if h.kth() != 0.3 {
		t.Errorf("kth = %v, want 0.3", h.kth())
	}
	// Duplicate locations are rejected.
	h.push(Match{SeriesID: 3, Length: 1, Dist: 0.05}) // same loc as the 0.1 entry? SeriesID 3, Start 0, Length 1 — yes
	out = h.sorted()
	if len(out) != 3 || out[0].Dist != 0.1 {
		t.Errorf("duplicate slipped in: %v", out)
	}
}

// TestScanFixedKeepsRepAtCutoff: the representative scan prunes strictly,
// at K = 0 and K > 0 alike, like the
// plain walk's cut (distance > cutoff), so a representative whose LB_Kim
// equals the cutoff is computed and kept. For q = (0,0) and rep = (1,1) the
// diagonal path is optimal: LB_Kim = DTW = √2 bit for bit.
func TestScanFixedKeepsRepAtCutoff(t *testing.T) {
	d := ts.NewDataset("tie", [][]float64{{1, 1}})
	gr := &grouping.Result{
		ST:      1,
		Lengths: []int{2},
		ByLength: map[int]*grouping.LengthGroups{2: {Length: 2, Groups: []*grouping.Group{
			{Length: 2, Rep: []float64{1, 1}, Members: []grouping.Member{{}}},
		}}},
		TotalSubseq: 1,
	}
	ls, err := NewWholeShard(d, gr)
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0, 0}
	cutoff := math.Sqrt2
	if lb, raw := dist.LBKim(q, gr.ByLength[2].Groups[0].Rep), dist.DTW(q, gr.ByLength[2].Groups[0].Rep); lb != cutoff || raw != cutoff {
		t.Fatalf("fixture: LB_Kim %v, DTW %v, want both √2", lb, raw)
	}
	for _, k := range []int{0, 1} {
		resp, err := ls.Scan(context.Background(), ScanRequest{
			Length: 2, Query: q, K: k, CutoffBits: math.Float64bits(cutoff), Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Hits) != 1 || resp.Hits[0].GroupID != 0 || resp.Hits[0].Dist != cutoff {
			t.Errorf("Scan k=%d at cutoff √2 = %+v, want group 0 at √2", k, resp.Hits)
		}
	}
}
