package query

import (
	"testing"

	"onex/internal/ts"
)

// repeatingDataset has one series with an exactly repeating motif so
// seasonal queries have a guaranteed recurring pattern.
func repeatingDataset() *ts.Dataset {
	motif := []float64{0, 1, 0, -1}
	var s []float64
	for i := 0; i < 4; i++ {
		s = append(s, motif...)
	}
	ramp := make([]float64, len(s))
	for i := range ramp {
		ramp[i] = float64(i) / float64(len(ramp)) // non-recurring contrast series
	}
	return ts.NewDataset("seasonal", [][]float64{s, ramp})
}

func TestSeasonalSampleFindsRecurringMotif(t *testing.T) {
	d := repeatingDataset()
	p := buildProcessor(t, d, 0.3, []int{4})
	groups, err := p.SeasonalSample(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no recurring groups found for the motif series")
	}
	// The motif recurs 4 times at stride 4; at least one group must hold
	// several of those occurrences, all from series 0.
	found := false
	for _, g := range groups {
		if len(g.Members) >= 3 {
			found = true
		}
		for _, m := range g.Members {
			if m.SeriesIdx != 0 {
				t.Errorf("SeasonalSample(0) returned member of series %d", m.SeriesIdx)
			}
		}
		if g.Length != 4 {
			t.Errorf("group length %d, want 4", g.Length)
		}
		if len(g.Rep) != 4 {
			t.Errorf("rep length %d, want 4", len(g.Rep))
		}
	}
	if !found {
		t.Error("no group captured ≥3 motif occurrences")
	}
}

func TestSeasonalSampleErrors(t *testing.T) {
	p := buildProcessor(t, repeatingDataset(), 0.3, []int{4})
	if _, err := p.SeasonalSample(0, 5); err == nil {
		t.Error("unindexed length: want error")
	}
	// A negative series id is the data-driven form, not an error.
	all, err := p.SeasonalAll(4)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.SeasonalSample(-7, 4); err != nil || len(got) != len(all) {
		t.Errorf("negative series: %d groups, err %v; want the %d dataset-wide groups", len(got), err, len(all))
	}
	if _, err := p.SeasonalSample(99, 4); err == nil {
		t.Error("out-of-range series: want error")
	}
}

func TestSeasonalAll(t *testing.T) {
	p := buildProcessor(t, repeatingDataset(), 0.3, []int{4})
	groups, err := p.SeasonalAll(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no groups with ≥2 members")
	}
	for _, g := range groups {
		if len(g.Members) < 2 {
			t.Errorf("group %d has %d members, want ≥2", g.GroupID, len(g.Members))
		}
	}
	if _, err := p.SeasonalAll(5); err == nil {
		t.Error("unindexed length: want error")
	}
}

func TestSeasonalSampleNonRecurringSeries(t *testing.T) {
	// The ramp series never repeats a window (strictly increasing values,
	// each window differs) — with a tight threshold it has no recurring
	// groups.
	d := repeatingDataset()
	p := buildProcessor(t, d, 0.01, []int{4})
	groups, err := p.SeasonalSample(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Errorf("ramp series reported %d recurring groups at tight ST", len(groups))
	}
}
