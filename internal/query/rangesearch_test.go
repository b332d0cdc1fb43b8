package query

import (
	"math"
	"testing"

	"onex/internal/dataset"
	"onex/internal/dist"
)

// bruteRange is the exhaustive reference range search.
func bruteRange(p *engine, q []float64, length int, radius float64) map[[2]int]float64 {
	out := map[[2]int]float64{}
	var w dist.Workspace
	div := dist.NormalizedDTWDivisor(len(q), length)
	for _, s := range p.Base().Dataset.Series {
		for j := 0; j+length <= s.Len(); j++ {
			if d := w.DTW(q, s.Values[j:j+length]) / div; d <= radius {
				out[[2]int{s.ID, j}] = d
			}
		}
	}
	return out
}

func TestRangeSearchValidation(t *testing.T) {
	p := italyProcessor(t, []int{8})
	q := make([]float64, 8)
	if _, err := p.RangeSearch(nil, 8, 0.1); err == nil {
		t.Error("empty query: want error")
	}
	if _, err := p.RangeSearch(q, 9, 0.1); err == nil {
		t.Error("unindexed length: want error")
	}
	if _, err := p.RangeSearch(q, 8, -1); err == nil {
		t.Error("negative radius: want error")
	}
	if _, err := p.RangeSearch(q, 8, math.NaN()); err == nil {
		t.Error("NaN radius: want error")
	}
}

func TestRangeSearchSoundness(t *testing.T) {
	// Every verified (non-guaranteed) result must truly lie within the
	// radius; every guaranteed result must lie within max(radius, ST).
	p := italyProcessor(t, []int{8})
	d := p.Base().Dataset
	q := append([]float64(nil), d.Series[2].Values[4:12]...)
	for _, radius := range []float64{0.005, 0.02, 0.3} {
		res, err := p.RangeSearch(q, 8, radius)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			v := d.Series[r.SeriesID].Values[r.Start : r.Start+8]
			actual := dist.NormalizedDTW(q, v)
			bound := radius
			if r.Guaranteed {
				bound = math.Max(radius, p.Base().ST)
			}
			if actual > bound+1e-9 {
				t.Fatalf("radius %v: result %v at actual distance %v exceeds bound %v (guaranteed=%v)",
					radius, r.Match, actual, bound, r.Guaranteed)
			}
		}
	}
}

func TestRangeSearchCompleteness(t *testing.T) {
	// No subsequence within the radius may be missed (the pruning bound
	// must be admissible). Guaranteed results count as found.
	p := italyProcessor(t, []int{8})
	d := p.Base().Dataset
	q := append([]float64(nil), d.Series[0].Values[1:9]...)
	for i := range q {
		q[i] += 0.01 * float64(i%2)
	}
	for _, radius := range []float64{0.001, 0.01, 0.05} {
		want := bruteRange(p, q, 8, radius)
		res, err := p.RangeSearch(q, 8, radius)
		if err != nil {
			t.Fatal(err)
		}
		got := map[[2]int]bool{}
		for _, r := range res {
			got[[2]int{r.SeriesID, r.Start}] = true
		}
		for loc := range want {
			if !got[loc] {
				t.Fatalf("radius %v: missed subsequence %v at distance %v",
					radius, loc, want[loc])
			}
		}
	}
}

func TestRangeSearchWholesaleAdmission(t *testing.T) {
	// With radius ≥ ST and an in-dataset query, some group should be
	// admitted via Lemma 2 without member verification.
	p := italyProcessor(t, []int{8})
	d := p.Base().Dataset
	q := append([]float64(nil), d.Series[3].Values[2:10]...)
	res, err := p.RangeSearch(q, 8, p.Base().ST)
	if err != nil {
		t.Fatal(err)
	}
	guaranteed := 0
	for _, r := range res {
		if r.Guaranteed {
			guaranteed++
			if r.Dist != p.Base().ST {
				t.Errorf("guaranteed result carries Dist %v, want the ST bound %v", r.Dist, p.Base().ST)
			}
		}
	}
	if guaranteed == 0 {
		t.Error("no wholesale admissions for an in-dataset query at radius=ST")
	}
}

func TestRangeSearchZeroRadius(t *testing.T) {
	// Radius 0 returns exactly the identical subsequences.
	p := italyProcessor(t, []int{8})
	d := p.Base().Dataset
	q := append([]float64(nil), d.Series[1].Values[5:13]...)
	res, err := p.RangeSearch(q, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	foundSelf := false
	for _, r := range res {
		if r.SeriesID == 1 && r.Start == 5 {
			foundSelf = true
		}
		if r.Dist > 1e-9 {
			t.Errorf("radius-0 result at distance %v", r.Dist)
		}
	}
	if !foundSelf {
		t.Error("radius-0 search missed the query's own occurrence")
	}
}

func TestRangeSearchFarQueryEmpty(t *testing.T) {
	p := italyProcessor(t, []int{8})
	q := make([]float64, 8)
	for i := range q {
		q[i] = 50 // far outside the normalized [0,1] data
	}
	res, err := p.RangeSearch(q, 8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("far query returned %d results", len(res))
	}
}

func TestRangeSearchPruningSavesWork(t *testing.T) {
	// Statistical check that the representative-level prune actually
	// triggers: a tight radius should touch far fewer members than exist.
	d := dataset.ECG.Scaled(0.15).Generate(6)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	p := buildProcessor(t, d, 0.2, []int{24}, Options{})
	q := append([]float64(nil), d.Series[0].Values[10:34]...)
	res, err := p.RangeSearch(q, 24, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range p.Base().Entry(24).Groups {
		total += g.Count()
	}
	if len(res) >= total {
		t.Errorf("tight radius returned %d of %d members", len(res), total)
	}
}
