package ts

import (
	"math"
	"testing"
)

func TestSeriesSub(t *testing.T) {
	s := &Series{ID: 3, Values: []float64{1, 2, 3, 4, 5}}
	ss := s.Sub(1, 3)
	got := ss.Values()
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Sub(1,3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sub(1,3)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if ss.End() != 4 {
		t.Errorf("End() = %d, want 4", ss.End())
	}
	if ss.String() != "(X3)^3_1" {
		t.Errorf("String() = %q, want %q", ss.String(), "(X3)^3_1")
	}
}

func TestSeriesSubPanicsOutOfRange(t *testing.T) {
	s := &Series{Values: []float64{1, 2, 3}}
	cases := []struct {
		name          string
		start, length int
	}{
		{"negative start", -1, 2},
		{"zero length", 0, 0},
		{"negative length", 1, -1},
		{"past end", 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Sub(%d,%d) did not panic", c.start, c.length)
				}
			}()
			s.Sub(c.start, c.length)
		})
	}
}

func TestCheckRange(t *testing.T) {
	s := &Series{Values: make([]float64, 10)}
	cases := []struct {
		start, length int
		want          bool
	}{
		{0, 10, true},
		{9, 1, true},
		{0, 1, true},
		{0, 11, false},
		{10, 1, false},
		{-1, 1, false},
		{0, 0, false},
	}
	for _, c := range cases {
		if got := s.CheckRange(c.start, c.length); got != c.want {
			t.Errorf("CheckRange(%d,%d) = %v, want %v", c.start, c.length, got, c.want)
		}
	}
}

func TestDatasetAppendAssignsIDs(t *testing.T) {
	d := &Dataset{Name: "t"}
	a := d.Append("c1", []float64{1})
	b := d.Append("c2", []float64{2, 3})
	if a.ID != 0 || b.ID != 1 {
		t.Errorf("IDs = %d,%d, want 0,1", a.ID, b.ID)
	}
	if d.N() != 2 {
		t.Errorf("N() = %d, want 2", d.N())
	}
}

func TestDatasetMinMaxLen(t *testing.T) {
	d := NewDataset("t", [][]float64{{1, 2, 3}, {1}, {1, 2}})
	if d.MaxLen() != 3 {
		t.Errorf("MaxLen = %d, want 3", d.MaxLen())
	}
	empty := &Dataset{}
	if empty.MaxLen() != 0 {
		t.Errorf("empty dataset MaxLen = %d, want 0", empty.MaxLen())
	}
}

func TestSubseqCountMatchesPaperFormula(t *testing.T) {
	// The paper counts N·n(n−1)/2 subsequences (lengths 2..n). Table 4's
	// Wafer row: 1000 series × 152·151/2 = 11,476,000.
	rows := make([][]float64, 1000)
	for i := range rows {
		rows[i] = make([]float64, 152)
	}
	d := NewDataset("Wafer", rows)
	if got := d.SubseqCount(nil); got != 11476000 {
		t.Errorf("SubseqCount(nil) = %d, want 11476000", got)
	}
}

func TestSubseqCountExplicitLengths(t *testing.T) {
	d := NewDataset("t", [][]float64{make([]float64, 10), make([]float64, 5)})
	// Length 6: first series has 5 positions, second has none.
	if got := d.SubseqCount([]int{6}); got != 5 {
		t.Errorf("SubseqCount([6]) = %d, want 5", got)
	}
	// Lengths 2 and 3: (9+8) + (4+3) = 24.
	if got := d.SubseqCount([]int{2, 3}); got != 24 {
		t.Errorf("SubseqCount([2,3]) = %d, want 24", got)
	}
	// Out-of-range lengths contribute nothing.
	if got := d.SubseqCount([]int{0, -2, 100}); got != 0 {
		t.Errorf("SubseqCount(bad) = %d, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		d       *Dataset
		wantErr bool
	}{
		{"ok", NewDataset("t", [][]float64{{1, 2}}), false},
		{"empty dataset", &Dataset{}, true},
		{"empty series", NewDataset("t", [][]float64{{}}), true},
		{"NaN", NewDataset("t", [][]float64{{1, math.NaN()}}), true},
		{"+Inf", NewDataset("t", [][]float64{{math.Inf(1)}}), true},
		{"-Inf", NewDataset("t", [][]float64{{math.Inf(-1), 0}}), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.d.Validate()
			if (err != nil) != c.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, c.wantErr)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := NewDataset("t", [][]float64{{1, 2, 3}})
	c := d.Clone()
	c.Series[0].Values[0] = 99
	if d.Series[0].Values[0] != 1 {
		t.Error("Clone shares value storage with original")
	}
	if c.Name != d.Name || c.N() != d.N() {
		t.Error("Clone lost metadata")
	}
}
