package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// bruteRange is the exhaustive reference range search.
func bruteRange(p *engine, q []float64, length int, radius float64) map[[2]int]float64 {
	out := map[[2]int]float64{}
	var w dist.Workspace
	div := dist.NormalizedDTWDivisor(len(q), length)
	for _, s := range p.data.Series {
		for j := 0; j+length <= s.Len(); j++ {
			if d := w.DTW(q, s.Values[j:j+length]) / div; d <= radius {
				out[[2]int{s.ID, j}] = d
			}
		}
	}
	return out
}

func TestRangeSearchValidation(t *testing.T) {
	p := italyProcessor(t, []int{8})
	q := make([]float64, 8)
	if _, err := p.RangeSearch(nil, 8, 0.1); err == nil {
		t.Error("empty query: want error")
	}
	if _, err := p.RangeSearch(q, 9, 0.1); err == nil {
		t.Error("unindexed length: want error")
	}
	if _, err := p.RangeSearch(q, 8, -1); err == nil {
		t.Error("negative radius: want error")
	}
	if _, err := p.RangeSearch(q, 8, math.NaN()); err == nil {
		t.Error("NaN radius: want error")
	}
}

func TestRangeSearchSoundness(t *testing.T) {
	// Every verified (non-guaranteed) result must truly lie within the
	// radius; every guaranteed result must lie within max(radius, ST).
	p := italyProcessor(t, []int{8})
	d := p.data
	q := append([]float64(nil), d.Series[2].Values[4:12]...)
	for _, radius := range []float64{0.005, 0.02, 0.3} {
		res, err := p.RangeSearch(q, 8, radius)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			v := d.Series[r.SeriesID].Values[r.Start : r.Start+8]
			actual := dist.NormalizedDTW(q, v)
			bound := radius
			if r.Guaranteed {
				bound = math.Max(radius, p.grouped.ST)
			}
			if actual > bound+1e-9 {
				t.Fatalf("radius %v: result %v at actual distance %v exceeds bound %v (guaranteed=%v)",
					radius, r.Match, actual, bound, r.Guaranteed)
			}
		}
	}
}

func TestRangeSearchCompleteness(t *testing.T) {
	// No subsequence within the radius may be missed (the pruning bound
	// must be admissible). Guaranteed results count as found.
	p := italyProcessor(t, []int{8})
	d := p.data
	q := append([]float64(nil), d.Series[0].Values[1:9]...)
	for i := range q {
		q[i] += float64(0.01 * float64(i%2))
	}
	for _, radius := range []float64{0.001, 0.01, 0.05} {
		want := bruteRange(p, q, 8, radius)
		res, err := p.RangeSearch(q, 8, radius)
		if err != nil {
			t.Fatal(err)
		}
		got := map[[2]int]bool{}
		for _, r := range res {
			got[[2]int{r.SeriesID, r.Start}] = true
		}
		for loc := range want {
			if !got[loc] {
				t.Fatalf("radius %v: missed subsequence %v at distance %v",
					radius, loc, want[loc])
			}
		}
	}
}

func TestRangeSearchWholesaleAdmission(t *testing.T) {
	// With radius ≥ ST and an in-dataset query, some group should be
	// admitted via Lemma 2 without member verification.
	p := italyProcessor(t, []int{8})
	d := p.data
	q := append([]float64(nil), d.Series[3].Values[2:10]...)
	res, err := p.RangeSearch(q, 8, p.grouped.ST)
	if err != nil {
		t.Fatal(err)
	}
	guaranteed := 0
	for _, r := range res {
		if r.Guaranteed {
			guaranteed++
			if r.Dist != p.grouped.ST {
				t.Errorf("guaranteed result carries Dist %v, want the ST bound %v", r.Dist, p.grouped.ST)
			}
		}
	}
	if guaranteed == 0 {
		t.Error("no wholesale admissions for an in-dataset query at radius=ST")
	}
}

func TestRangeSearchZeroRadius(t *testing.T) {
	// Radius 0 returns exactly the identical subsequences.
	p := italyProcessor(t, []int{8})
	d := p.data
	q := append([]float64(nil), d.Series[1].Values[5:13]...)
	res, err := p.RangeSearch(q, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	foundSelf := false
	for _, r := range res {
		if r.SeriesID == 1 && r.Start == 5 {
			foundSelf = true
		}
		if r.Dist > 1e-9 {
			t.Errorf("radius-0 result at distance %v", r.Dist)
		}
	}
	if !foundSelf {
		t.Error("radius-0 search missed the query's own occurrence")
	}
}

// TestRangeSearchFarQueryEmpty: a range no representative can reach is
// empty and runs no DTW — every representative falls to a lower bound.
func TestRangeSearchFarQueryEmpty(t *testing.T) {
	p := italyProcessor(t, []int{8})
	q := make([]float64, 8)
	for i := range q {
		q[i] = 50 // far outside the normalized [0,1] data
	}
	r, tr := p.ExecTraced(Request{Family: FamilyRange, Query: q, Length: 8, Radius: 0.01})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Ranges) != 0 {
		t.Errorf("far query returned %d results", len(r.Ranges))
	}
	groups := len(p.grouped.ByLength[8].Groups)
	if tr.DTWComputed != 0 || tr.PrunedByKim != tr.RepsExamined || tr.RepsExamined != groups {
		t.Errorf("far query work %+v over %d groups: want every representative examined and pruned by LB_Kim, no DTW", tr, groups)
	}
}

func TestRangeSearchPruningSavesWork(t *testing.T) {
	// Statistical check that the representative-level prune actually
	// triggers: a tight radius should touch far fewer members than exist.
	d := dataset.ECG.Scaled(0.15).Generate(6)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	p := buildProcessor(t, d, 0.2, []int{24})
	q := append([]float64(nil), d.Series[0].Values[10:34]...)
	res, err := p.RangeSearch(q, 24, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range p.grouped.ByLength[24].Groups {
		total += g.Count()
	}
	if len(res) >= total {
		t.Errorf("tight radius returned %d of %d members", len(res), total)
	}
}

// radiusFixture builds the at-the-radius base from seed: four random walks
// of 48 unit steps, indexed as drawn (no normalization) at length 24 — so
// the normalized-DTW divisor is 48, not a power of two — and ST 0.5. The
// query q is series 0's window v at a drawn start with only its two
// endpoints moved, so DTW(q, v) = LB_Kim(q, v) (the diagonal path). With
// twin, series 1 also carries v plus noise far below ST/2, so v shares its
// group. The base is returned behind engines at 1 and 4 workers.
func radiusFixture(t testing.TB, seed int64, twin bool) (engines []*engine, q, v []float64) {
	t.Helper()
	const n, length = 48, 24
	r := rand.New(rand.NewSource(seed))
	d := &ts.Dataset{Name: fmt.Sprintf("radius-%d", seed)}
	for range 4 {
		s := make([]float64, n)
		x := r.NormFloat64()
		for j := range s {
			x += r.NormFloat64()
			s[j] = x
		}
		d.Append("", s)
	}
	start := r.Intn(n - length + 1)
	v = d.Series[0].Values[start : start+length]
	if twin {
		at := r.Intn(n - length + 1)
		for j, x := range v {
			d.Series[1].Values[at+j] = x + float64(r.NormFloat64()*0.01)
		}
	}
	q = append([]float64(nil), v...)
	q[0] += float64(r.NormFloat64() * 0.5)
	q[length-1] += float64(r.NormFloat64() * 0.5)

	gr, err := grouping.Build(d, grouping.Config{ST: 0.5, Lengths: []int{length}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		e, err := newEngine(d, gr, workers)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	return engines, q, v
}

// checkRangeAgainstBrute requires RangeSearch and RangeSearchExact to return
// exactly bruteRange's windows, each verified result at brute force's
// distance bit for bit. radius must be below ST (no wholesale admission).
func checkRangeAgainstBrute(t *testing.T, e *engine, q []float64, length int, radius float64) {
	t.Helper()
	want := bruteRange(e, q, length, radius)
	for _, exact := range []bool{false, true} {
		r := e.Exec(context.Background(), Request{Family: FamilyRange, Query: q, Length: length, Radius: radius, Exact: exact})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		got := map[[2]int]float64{}
		for _, m := range r.Ranges {
			got[[2]int{m.SeriesID, m.Start}] = m.Dist
		}
		if len(got) != len(want) || len(r.Ranges) != len(want) {
			t.Fatalf("exact=%v radius=%v: %d results (%d distinct), brute force finds %d: %v vs %v",
				exact, radius, len(r.Ranges), len(got), len(want), got, want)
		}
		for loc, wd := range want {
			if gd, ok := got[loc]; !ok || gd != wd {
				t.Fatalf("exact=%v radius=%v: window %v at %v (found %v), brute force %v", exact, radius, loc, gd, ok, wd)
			}
		}
	}
}

// Seeds of radiusFixture whose query sits exactly on its radius with
// fl(radius·48) < d: v alone in its group, and v beside its twin.
const (
	radiusSeedAlone int64 = 16
	radiusSeedTwin  int64 = 53
)

// TestRangeAdmitsWindowsAtTheRadius: a window whose normalized DTW is
// exactly the radius is in the answer, however the radius and the divisor
// round. Range accepts d/divisor ≤ radius, which admits d = DTW(q, v) when
// radius = fl(d/48) even though fl(radius·48) < d; a prune that starts from
// radius·divisor, rather than from the acceptance cutoff, drops v — (a) at
// the representative when v is alone in its group, (b) at the member's
// LB_Kim when v shares a group with a noisy twin.
func TestRangeAdmitsWindowsAtTheRadius(t *testing.T) {
	for _, c := range []struct {
		name string
		seed int64
		twin bool
	}{
		{"alone in its group", radiusSeedAlone, false},
		{"beside a twin", radiusSeedTwin, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			engines, q, v := radiusFixture(t, c.seed, c.twin)
			var w dist.Workspace
			d := w.DTW(q, v)
			if d != dist.LBKim(q, v) {
				t.Fatalf("DTW %v ≠ LB_Kim %v: the endpoints construction broke", d, dist.LBKim(q, v))
			}
			divisor := dist.NormalizedDTWDivisor(len(q), len(v))
			radius := d / divisor
			if radius*divisor >= d {
				t.Fatalf("seed %d: fl(radius·%v) = %v is not below d = %v; pick a seed where it is", c.seed, divisor, radius*divisor, d)
			}
			members := 0 // in v's group; v is a window of series 0's values
			for _, g := range engines[0].grouped.ByLength[len(v)].Groups {
				for _, m := range g.Members {
					if m.SeriesIdx == 0 && &grouping.MemberValues(engines[0].data, g, m)[0] == &v[0] {
						members = g.Count()
					}
				}
			}
			if alone := members == 1; alone == c.twin {
				t.Fatalf("seed %d: v's group holds %d members; want twin=%v", c.seed, members, c.twin)
			}
			for _, e := range engines {
				checkRangeAgainstBrute(t, e, q, len(v), radius)
			}
		})
	}
}

// FuzzRangeMatchesBrute holds RangeSearch and RangeSearchExact to the brute
// force at 1 and 4 workers, on a random-walk base drawn from seed (see
// radiusFixture), queried with a perturbed window at radius = that window's
// own normalized distance (boundary) or at a radius below ST drawn from
// frac. The seeds include TestRangeAdmitsWindowsAtTheRadius's two cases.
func FuzzRangeMatchesBrute(f *testing.F) {
	f.Add(radiusSeedAlone, false, true, 0.0)
	f.Add(radiusSeedTwin, true, true, 0.0)
	f.Add(int64(1), false, false, 0.02)
	f.Add(int64(2), true, false, 0.3)
	f.Fuzz(func(t *testing.T, seed int64, twin, boundary bool, frac float64) {
		engines, q, v := radiusFixture(t, seed, twin)
		st := engines[0].grouped.ST
		var radius float64
		if boundary {
			var w dist.Workspace
			radius = w.DTW(q, v) / dist.NormalizedDTWDivisor(len(q), len(v))
		} else if !math.IsNaN(frac) && !math.IsInf(frac, 0) {
			radius = math.Mod(math.Abs(frac), st)
		}
		if radius >= st {
			t.Skip("radius at or past ST: wholesale admission reports the ST bound")
		}
		for _, e := range engines {
			checkRangeAgainstBrute(t, e, q, len(v), radius)
		}
	})
}
