package onex

import (
	"math"
	"testing"
)

func TestBestKMatchesPublic(t *testing.T) {
	b := buildFixture(t, Options{})
	q := make([]float64, 16)
	for i := range q {
		q[i] = math.Sin(2 * math.Pi * float64(i) / 16)
	}
	ms, err := b.BestKMatches(q, MatchExact, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("got %d matches", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Distance > ms[i].Distance+1e-12 {
			t.Fatalf("matches unsorted at %d", i)
		}
	}
	best, err := b.BestMatch(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Distance > best.Distance+1e-9 {
		t.Errorf("k-NN top (%v) worse than BestMatch (%v)", ms[0].Distance, best.Distance)
	}
	if _, err := b.BestKMatches(q, MatchExact, -1); err == nil {
		t.Error("k=-1: want error")
	}
	// k ≤ 1 is BestMatch itself.
	if one, err := b.BestKMatches(q, MatchExact, 0); err != nil || len(one) != 1 || !sameMatch(one[0], best) {
		t.Errorf("k=0: %+v, err %v; want exactly the best match %+v", one, err, best)
	}
}

func TestExtendPublic(t *testing.T) {
	b := buildFixture(t, Options{})
	before := b.Stats()

	// Add two fresh series: one sine-like (joins existing groups), one
	// novel square wave (founds new groups).
	sine := make([]float64, 48)
	square := make([]float64, 48)
	for i := range sine {
		sine[i] = math.Sin(2*math.Pi*float64(i)/16 + 0.4)
		if (i/8)%2 == 0 {
			square[i] = 1
		} else {
			square[i] = -1
		}
	}
	ext, err := b.Extend([]Series{
		{Label: "sine-new", Values: sine},
		{Label: "square", Values: square},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := ext.Stats()
	if after.Subsequences <= before.Subsequences {
		t.Errorf("subsequences did not grow: %d → %d", before.Subsequences, after.Subsequences)
	}
	if after.Representatives < before.Representatives {
		t.Errorf("representatives shrank: %d → %d", before.Representatives, after.Representatives)
	}

	// The original base still answers; the extended base can find the
	// novel square shape, which the original cannot have.
	q := square[:16]
	// Normalize the query into the base's space like the data was: the
	// fixture data spans sines in [-1,1] plus a ramp, so rely on MatchAny
	// distances instead of exact values.
	mExt, err := ext.BestMatch(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	mOld, err := b.BestMatch(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if mExt.Distance > mOld.Distance+1e-9 {
		t.Errorf("extended base (%v) worse than original (%v) for the added shape",
			mExt.Distance, mOld.Distance)
	}
	if mExt.SeriesID < 0 || mExt.SeriesID >= after.Representatives+1000 {
		t.Errorf("suspicious match series %d", mExt.SeriesID)
	}

	// Errors.
	if _, err := b.Extend(nil); err == nil {
		t.Error("empty extend: want error")
	}
	if _, err := b.Extend([]Series{{Values: nil}}); err == nil {
		t.Error("empty series: want error")
	}
	// Adapted bases refuse extension.
	adapted, err := b.WithThreshold(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adapted.Extend([]Series{{Values: sine}}); err == nil {
		t.Error("extending adapted base: want error")
	}
}

func TestExtendSeriesIDsContinue(t *testing.T) {
	b := buildFixture(t, Options{})
	n := 7 // fixture has 6 sines + 1 ramp
	v := make([]float64, 48)
	for i := range v {
		v[i] = math.Sin(float64(i) / 3)
	}
	ext, err := b.Extend([]Series{{Label: "new", Values: v}})
	if err != nil {
		t.Fatal(err)
	}
	// A pattern occurring only in the new series must report SeriesID n.
	ps, err := ext.Seasonal(n, 16)
	if err != nil {
		t.Fatalf("Seasonal on new series id %d: %v", n, err)
	}
	for _, p := range ps {
		for _, o := range p.Occurrences {
			if o.SeriesID != n {
				t.Errorf("occurrence in series %d, want %d", o.SeriesID, n)
			}
		}
	}
}
