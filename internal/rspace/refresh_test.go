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

// TestRefreshMatchesNewBitForBit: Refresh after a maintenance step is New
// over the grown grouping, whatever prev and delta hold.
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
	if !reflect.DeepEqual(refreshed, fresh) {
		t.Error("refreshed base differs from New over the same grouping")
	}
	if got, want := refreshed.SizeBytes(), gr.SizeBytes(); got != want {
		t.Errorf("refreshed SizeBytes = %d, grown grouping says %d", got, want)
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
	if !reflect.DeepEqual(b, fresh) {
		t.Error("fallback base differs from New")
	}
}
