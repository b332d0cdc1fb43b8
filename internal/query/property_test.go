package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// quickProcessor builds a processor over random data for property tests.
func quickProcessor(seed int64, st float64, lengths []int) (*engine, *ts.Dataset, error) {
	r := rand.New(rand.NewSource(seed))
	d := &ts.Dataset{Name: "prop"}
	for i := 0; i < 5; i++ {
		v := make([]float64, 16)
		for j := range v {
			v[j] = r.Float64()
		}
		d.Append("", v)
	}
	gr, err := grouping.Build(d, grouping.Config{ST: st, Lengths: lengths, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	p, err := newEngine(d, gr, 0)
	if err != nil {
		return nil, nil, err
	}
	return p, d, nil
}

// TestPropertyBestMatchDistanceReproducible: the reported distance always
// equals the normalized DTW between the query and the reported location,
// and is never below the exhaustive minimum.
func TestPropertyBestMatchDistanceReproducible(t *testing.T) {
	f := func(seed int64, qSeed int64) bool {
		p, d, err := quickProcessor(seed, 0.3, []int{6})
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(qSeed))
		q := make([]float64, 6)
		for i := range q {
			q[i] = r.Float64()
		}
		m, err := p.BestMatch(q, MatchExact)
		if err != nil {
			return false
		}
		v := d.Series[m.SeriesID].Values[m.Start : m.Start+6]
		if math.Abs(dist.NormalizedDTW(q, v)-m.Dist) > 1e-9 {
			return false
		}
		// Exhaustive lower bound.
		var w dist.Workspace
		div := dist.NormalizedDTWDivisor(6, 6)
		best := math.Inf(1)
		for _, s := range d.Series {
			for j := 0; j+6 <= s.Len(); j++ {
				if nd := w.DTW(q, s.Values[j:j+6]) / div; nd < best {
					best = nd
				}
			}
		}
		return m.Dist >= best-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyKNNOrderingAndBound: for random queries, BestKMatches returns
// sorted unique results whose first entry is never better than the
// exhaustive best (it is a heuristic, not magic) and never worse than the
// plain BestMatch answer.
func TestPropertyKNNConsistency(t *testing.T) {
	f := func(seed, qSeed int64) bool {
		p, _, err := quickProcessor(seed, 0.3, []int{6})
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(qSeed))
		q := make([]float64, 6)
		for i := range q {
			q[i] = r.Float64()
		}
		ms, err := p.BestKMatches(q, MatchExact, 4)
		if err != nil || len(ms) == 0 {
			return false
		}
		for i := 1; i < len(ms); i++ {
			if ms[i-1].Dist > ms[i].Dist+1e-12 {
				return false
			}
		}
		single, err := p.BestMatch(q, MatchExact)
		if err != nil {
			return false
		}
		return ms[0].Dist <= single.Dist+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAdaptMemberConservation: adapting to any positive ST′ must
// conserve the multiset of indexed subsequences.
func TestPropertyAdaptMemberConservation(t *testing.T) {
	f := func(seed int64, stRaw uint8) bool {
		p, _, err := quickProcessor(seed, 0.3, []int{5})
		if err != nil {
			return false
		}
		stPrime := 0.05 + float64(stRaw%50)/25 // (0.05, 2.05)
		ap, err := p.AdaptThreshold(stPrime)
		if err != nil {
			return false
		}
		count := func(pp *engine) int {
			total := 0
			for _, g := range pp.grouped.ByLength[5].Groups {
				total += g.Count()
			}
			return total
		}
		return count(ap) == count(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRangeSearchNeverMisses compares RangeSearch against the
// exhaustive scan on random queries and radii.
func TestPropertyRangeSearchNeverMisses(t *testing.T) {
	f := func(seed, qSeed int64, radRaw uint8) bool {
		p, d, err := quickProcessor(seed, 0.3, []int{6})
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(qSeed))
		q := make([]float64, 6)
		for i := range q {
			q[i] = r.Float64()
		}
		radius := float64(radRaw%40) / 100 // [0, 0.39]
		res, err := p.RangeSearch(q, 6, radius)
		if err != nil {
			return false
		}
		got := map[[2]int]bool{}
		for _, m := range res {
			got[[2]int{m.SeriesID, m.Start}] = true
		}
		var w dist.Workspace
		div := dist.NormalizedDTWDivisor(6, 6)
		for _, s := range d.Series {
			for j := 0; j+6 <= s.Len(); j++ {
				if w.DTW(q, s.Values[j:j+6])/div <= radius && !got[[2]int{s.ID, j}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
