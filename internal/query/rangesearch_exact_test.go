package query

import (
	"math"
	"testing"

	"onex/internal/dist"
	"onex/internal/ts"
)

func TestRangeSearchExactMatchesBruteForceOnGuaranteedPath(t *testing.T) {
	// radius ≥ ST forces wholesale Lemma 2 admissions; exact mode must
	// still return precisely the brute-force result set with true DTW
	// distances — the Dist=ST upper-bound shortcut must not leak through.
	p := italyProcessor(t, []int{8})
	d := p.data
	for qi, q := range [][]float64{
		append([]float64(nil), d.Series[3].Values[2:10]...),
		append([]float64(nil), d.Series[0].Values[0:8]...),
	} {
		radius := p.grouped.ST
		want := bruteRange(p, q, 8, radius)
		res, err := p.RangeSearchExact(q, 8, radius)
		if err != nil {
			t.Fatal(err)
		}
		guaranteed := 0
		got := map[[2]int]float64{}
		for _, r := range res {
			got[[2]int{r.SeriesID, r.Start}] = r.Dist
			if r.Guaranteed {
				guaranteed++
			}
			v := d.Series[r.SeriesID].Values[r.Start : r.Start+8]
			if actual := dist.NormalizedDTW(q, v); math.Abs(actual-r.Dist) > 1e-12 {
				t.Fatalf("query %d: reported Dist %v but true DTW is %v (guaranteed=%v)",
					qi, r.Dist, actual, r.Guaranteed)
			}
		}
		if guaranteed == 0 {
			t.Errorf("query %d: no wholesale admissions at radius=ST — the guaranteed path is untested", qi)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, brute force found %d", qi, len(got), len(want))
		}
		for loc, wd := range want {
			gd, ok := got[loc]
			if !ok {
				t.Fatalf("query %d: missing %v (distance %v)", qi, loc, wd)
			}
			if math.Abs(gd-wd) > 1e-12 {
				t.Fatalf("query %d: %v distance %v, want %v", qi, loc, gd, wd)
			}
		}
	}
}

func TestRangeSearchExactEqualsPlainOutsideGuarantee(t *testing.T) {
	// Below ST no wholesale admission happens, so both modes verify every
	// candidate and must agree exactly.
	p := italyProcessor(t, []int{8})
	d := p.data
	q := append([]float64(nil), d.Series[1].Values[4:12]...)
	radius := p.grouped.ST / 2
	plain, err := p.RangeSearch(q, 8, radius)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := p.RangeSearchExact(q, 8, radius)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(exact) {
		t.Fatalf("%d plain vs %d exact results", len(plain), len(exact))
	}
	for i := range plain {
		if plain[i] != exact[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, plain[i], exact[i])
		}
	}
}

func TestConstantQuerySemantics(t *testing.T) {
	// Zero-variance inputs are legal end to end: a constant query passes
	// validation, and every reported distance is finite and exact. The base
	// holds flat plateaus (constant subsequences) to hit the constant-vs-
	// constant case too.
	d := &ts.Dataset{Name: "plateaus"}
	for s := 0; s < 4; s++ {
		v := make([]float64, 40)
		for i := range v {
			switch {
			case i/10%2 == 0:
				v[i] = float64(s) * 0.25 // flat plateau
			default:
				v[i] = math.Sin(float64(i)/3 + float64(s))
			}
		}
		d.Append("", v)
	}
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	p := buildProcessor(t, d, 0.2, []int{8})
	flat := make([]float64, 8)
	for i := range flat {
		flat[i] = 0.5
	}
	m, err := p.BestMatch(flat, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.Dist) || math.IsInf(m.Dist, 0) {
		t.Fatalf("constant query produced non-finite distance %v", m.Dist)
	}
	v := p.data.Series[m.SeriesID].Values[m.Start : m.Start+8]
	if want := dist.NormalizedDTW(flat, v); math.Abs(m.Dist-want) > 1e-12 {
		t.Errorf("constant query Dist %v, want %v", m.Dist, want)
	}
	rs, err := p.RangeSearchExact(flat, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if math.IsNaN(r.Dist) || math.IsInf(r.Dist, 0) {
			t.Fatalf("constant range query produced non-finite distance %v", r.Dist)
		}
	}
	if _, err := p.BestKMatches(flat, MatchAny, 3); err != nil {
		t.Fatal(err)
	}
}
