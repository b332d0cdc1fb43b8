package rspace

import (
	"testing"

	"onex/internal/dataset"
	"onex/internal/grouping"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Error("want error for nil inputs")
	}
}

// TestSizeBytesMatchesGrouping: the facade reports the grouping's index size.
func TestSizeBytesMatchesGrouping(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.5).Generate(4)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	gr, err := grouping.Build(d, grouping.Config{ST: 0.2, Lengths: []int{5, 8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.SizeBytes(), gr.SizeBytes(); got != want || got <= 0 {
		t.Errorf("SizeBytes = %d, grouping says %d", got, want)
	}
}
