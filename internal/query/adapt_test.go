package query

import (
	"math"
	"testing"

	"onex/internal/dataset"
	"onex/internal/grouping"
)

func adaptFixture(t *testing.T) *engine {
	t.Helper()
	d := dataset.ItalyPower.Scaled(0.4).Generate(6)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	return buildProcessor(t, d, 0.2, []int{5, 9})
}

// memberCount sums members across all groups of a length.
func memberCount(p *engine, length int) int {
	total := 0
	for _, g := range p.grouped.ByLength[length].Groups {
		total += g.Count()
	}
	return total
}

func TestAdaptValidation(t *testing.T) {
	p := adaptFixture(t)
	for _, st := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := p.AdaptThreshold(st); err == nil {
			t.Errorf("AdaptThreshold(%v): want error", st)
		}
	}
}

func TestAdaptSameThresholdReusesGroups(t *testing.T) {
	p := adaptFixture(t)
	ap, err := p.AdaptThreshold(p.grouped.ST)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range p.grouped.Lengths {
		if got, want := len(ap.grouped.ByLength[l].Groups), len(p.grouped.ByLength[l].Groups); got != want {
			t.Errorf("length %d: %d groups after identity adapt, want %d", l, got, want)
		}
	}
}

func TestAdaptSmallerThresholdSplits(t *testing.T) {
	p := adaptFixture(t)
	ap, err := p.AdaptThreshold(p.grouped.ST / 2)
	if err != nil {
		t.Fatal(err)
	}
	if ap.grouped.ST != p.grouped.ST/2 {
		t.Errorf("adapted ST = %v", ap.grouped.ST)
	}
	for _, l := range p.grouped.Lengths {
		before := len(p.grouped.ByLength[l].Groups)
		after := len(ap.grouped.ByLength[l].Groups)
		if after < before {
			t.Errorf("length %d: splitting reduced groups %d → %d", l, before, after)
		}
		if memberCount(ap, l) != memberCount(p, l) {
			t.Errorf("length %d: members lost in split: %d vs %d",
				l, memberCount(ap, l), memberCount(p, l))
		}
	}
}

func TestAdaptLargerThresholdMerges(t *testing.T) {
	p := adaptFixture(t)
	ap, err := p.AdaptThreshold(p.grouped.ST * 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range p.grouped.Lengths {
		before := len(p.grouped.ByLength[l].Groups)
		after := len(ap.grouped.ByLength[l].Groups)
		if after > before {
			t.Errorf("length %d: merging increased groups %d → %d", l, before, after)
		}
		if memberCount(ap, l) != memberCount(p, l) {
			t.Errorf("length %d: members lost in merge: %d vs %d",
				l, memberCount(ap, l), memberCount(p, l))
		}
	}
}

func TestAdaptHugeThresholdMergesToOneGroup(t *testing.T) {
	p := adaptFixture(t)
	ap, err := p.AdaptThreshold(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ap.grouped.Lengths {
		if got := len(ap.grouped.ByLength[l].Groups); got != 1 {
			t.Errorf("length %d: %d groups after huge-ST adapt, want 1", l, got)
		}
	}
}

func TestAdaptSplitRadiusRespected(t *testing.T) {
	// After splitting at ST′, member distances to the new representatives
	// should cluster within ST′/2 (allowing centroid-drift stragglers).
	p := adaptFixture(t)
	stPrime := p.grouped.ST / 2
	ap, err := p.AdaptThreshold(stPrime)
	if err != nil {
		t.Fatal(err)
	}
	within, total := 0, 0
	for _, l := range ap.grouped.Lengths {
		for _, g := range ap.grouped.ByLength[l].Groups {
			for _, m := range g.Members {
				total++
				if m.EDToRep <= float64(stPrime/2)+1e-9 {
					within++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no members")
	}
	if frac := float64(within) / float64(total); frac < 0.9 {
		t.Errorf("only %.1f%% of members within ST'/2 after split", 100*frac)
	}
}

func TestAdaptedProcessorAnswersQueries(t *testing.T) {
	p := adaptFixture(t)
	d := p.data
	q := append([]float64(nil), d.Series[0].Values[1:10]...)
	for _, stPrime := range []float64{0.1, 0.2, 0.5} {
		ap, err := p.AdaptThreshold(stPrime)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ap.BestMatch(q, MatchExact)
		if err != nil {
			t.Fatalf("ST'=%v: %v", stPrime, err)
		}
		if !m.Found() {
			t.Fatalf("ST'=%v: no match", stPrime)
		}
		// Reported distance must stay reproducible on the adapted view.
		v := d.Series[m.SeriesID].Values[m.Start : m.Start+m.Length]
		if len(v) != 9 {
			t.Fatalf("ST'=%v: match length %d", stPrime, m.Length)
		}
	}
}

func TestAdaptedMembersSorted(t *testing.T) {
	p := adaptFixture(t)
	for _, stPrime := range []float64{0.1, 0.8} {
		ap, err := p.AdaptThreshold(stPrime)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ap.grouped.Lengths {
			for _, g := range ap.grouped.ByLength[l].Groups {
				for i := 1; i < g.Count(); i++ {
					if g.Members[i-1].EDToRep > g.Members[i].EDToRep {
						t.Fatalf("ST'=%v length %d group %d: members unsorted", stPrime, l, g.ID)
					}
				}
			}
		}
	}
}

func TestAdaptMergedRepIsWeightedAverage(t *testing.T) {
	p := adaptFixture(t)
	ap, err := p.AdaptThreshold(1000) // everything merges
	if err != nil {
		t.Fatal(err)
	}
	d := p.data
	for _, l := range ap.grouped.Lengths {
		g := ap.grouped.ByLength[l].Groups[0]
		avg := make([]float64, l)
		for _, m := range g.Members {
			for i, v := range d.Series[m.SeriesIdx].Values[m.Start : m.Start+l] {
				avg[i] += v
			}
		}
		for i := range avg {
			avg[i] /= float64(g.Count())
			if math.Abs(avg[i]-g.Rep[i]) > 1e-9 {
				t.Fatalf("length %d: merged rep[%d]=%v, want point-wise average %v",
					l, i, g.Rep[i], avg[i])
			}
		}
	}
	var _ = grouping.Member{}
}
