package query

import (
	"testing"

	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/grouping"
)

// TestPatienceBoundsGroupMining: on a loose threshold's few huge groups the
// bounded walk tests fewer members than the group holds, and an exhaustive
// minimum over the chosen group is equal or better, but not by much.
func TestPatienceBoundsGroupMining(t *testing.T) {
	d := dataset.ECG.Scaled(0.15).Generate(3)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	// Loose threshold → few, huge groups: the case the patience cut exists
	// for.
	p := buildProcessor(t, d, 0.6, []int{32})

	q := append([]float64(nil), d.Series[1].Values[10:42]...)
	for i := range q {
		q[i] = float64(q[i]*0.9) + 0.05 // out-of-dataset style query
	}
	m, tr, err := p.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	g := p.grouped.ByLength[32].Groups[m.GroupID]
	exhaustive := m.Dist
	for _, mem := range g.Members {
		exhaustive = min(exhaustive, dist.NormalizedDTW(q, grouping.MemberValues(p.data, g, mem)))
	}
	if tr.MembersTested >= g.Count() {
		t.Errorf("patience did not reduce work: tested %d of %d members", tr.MembersTested, g.Count())
	}
	// Exhaustive verification can only be equal or better.
	if exhaustive > m.Dist+1e-12 {
		t.Errorf("exhaustive %v worse than bounded %v", exhaustive, m.Dist)
	}
	// The bounded walk's pivot ordering keeps it close to exhaustive.
	if m.Dist > exhaustive+0.05 {
		t.Errorf("bounded walk much worse: %v vs %v", m.Dist, exhaustive)
	}
}

func TestPatienceDefaultApplied(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.3).Generate(2)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	// The walk stops after patience non-improving members instead of
	// verifying the whole group: construct a large single group (huge ST)
	// and verify the member walk stops.
	p := buildProcessor(t, d, 5, []int{8})
	total := 0
	for _, g := range p.grouped.ByLength[8].Groups {
		total += g.Count()
	}
	if total < patience*3 {
		t.Skipf("group too small (%d) to exercise the cut", total)
	}
	q := make([]float64, 8)
	for i := range q {
		q[i] = 2 + float64(i) // far from all data → nothing improves
	}
	_, tr, err := p.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MembersTested > 3*patience {
		t.Errorf("patience not applied: tested %d members of %d", tr.MembersTested, total)
	}
}
