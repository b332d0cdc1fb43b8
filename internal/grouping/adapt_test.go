package grouping

import (
	"math"
	"reflect"
	"testing"
)

func TestAdaptRejectsBadInput(t *testing.T) {
	d, res := smoothData(t)
	if _, err := Adapt(nil, res, 0.1); err == nil {
		t.Error("nil dataset: want error")
	}
	if _, err := Adapt(d, nil, 0.1); err == nil {
		t.Error("nil previous result: want error")
	}
	for _, st := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Adapt(d, res, st); err == nil {
			t.Errorf("Adapt(%v): want error", st)
		}
	}
}

// TestAdaptLeavesPreviousUntouched: splitting and merging work on copies,
// so the grouping a base is serving stays as it was.
func TestAdaptLeavesPreviousUntouched(t *testing.T) {
	d, res := smoothData(t)
	_, before := smoothData(t)
	for _, stPrime := range []float64{goldenST / 2, goldenST * 2} {
		if _, err := Adapt(d, res, stPrime); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, before) {
			t.Fatalf("Adapt(%v) modified its input", stPrime)
		}
	}
}
