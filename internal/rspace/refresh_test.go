package rspace

import (
	"reflect"
	"testing"

	"onex/internal/dataset"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// refreshFixture builds a base, grows the dataset (points on two series plus
// one whole new series) and returns everything needed to compare Refresh
// against a from-scratch New.
func refreshFixture(t *testing.T) (d *ts.Dataset, prevBase *Base, gr *grouping.Result, delta *grouping.Delta) {
	t.Helper()
	d = dataset.ItalyPower.Scaled(0.4).Generate(23)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	prev, err := grouping.Build(d, grouping.Config{ST: 0.2, Lengths: []int{6, 10}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prevBase, err = New(d, prev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oldLens := make([]int, d.N())
	for i, s := range d.Series {
		oldLens[i] = s.Len()
	}
	for i, n := range []int{9, 4} {
		src := d.Series[i].Values
		for j := 0; j < n; j++ {
			d.Series[i].AppendPoints(src[j%len(src)] * 0.8)
		}
	}
	gr, delta, err = grouping.AppendPoints(d, prev, oldLens, grouping.Config{ST: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d, prevBase, gr, delta
}

func TestRefreshMatchesNewBitForBit(t *testing.T) {
	d, prevBase, gr, delta := refreshFixture(t)
	fresh, err := New(d, gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := Refresh(d, gr, Options{}, prevBase, delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshed.Entries) != len(fresh.Entries) {
		t.Fatalf("entry count %d vs %d", len(refreshed.Entries), len(fresh.Entries))
	}
	for l, fe := range fresh.Entries {
		re := refreshed.Entries[l]
		if re == nil {
			t.Fatalf("length %d missing from refreshed base", l)
		}
		if !reflect.DeepEqual(fe.TopK, re.TopK) {
			t.Errorf("length %d: TopK neighbor lists differ", l)
		}
		if !reflect.DeepEqual(fe.Envelopes, re.Envelopes) {
			t.Errorf("length %d: envelopes differ", l)
		}
		if fe.STHalf != re.STHalf || fe.STFinal != re.STFinal {
			t.Errorf("length %d: thresholds (%v,%v) vs (%v,%v)", l, re.STHalf, re.STFinal, fe.STHalf, fe.STFinal)
		}
	}
	if refreshed.GlobalSTHalf != fresh.GlobalSTHalf || refreshed.GlobalSTFinal != fresh.GlobalSTFinal {
		t.Errorf("global thresholds differ: (%v,%v) vs (%v,%v)",
			refreshed.GlobalSTHalf, refreshed.GlobalSTFinal, fresh.GlobalSTHalf, fresh.GlobalSTFinal)
	}
	if refreshed.TotalSubseq != fresh.TotalSubseq {
		t.Errorf("TotalSubseq %d vs %d", refreshed.TotalSubseq, fresh.TotalSubseq)
	}
}

func TestRefreshFallsBackWithoutPrev(t *testing.T) {
	d, _, gr, delta := refreshFixture(t)
	b, err := Refresh(d, gr, Options{}, nil, delta)
	if err != nil || b == nil {
		t.Fatalf("nil prev fallback: %v", err)
	}
	fresh, err := New(d, gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Entries[6].TopK, fresh.Entries[6].TopK) {
		t.Error("fallback base differs from New")
	}
}
