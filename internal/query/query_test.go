package query

import (
	"math"
	"testing"

	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/rspace"
	"onex/internal/ts"
)

func buildProcessor(t *testing.T, d *ts.Dataset, st float64, lengths []int, opts Options) *engine {
	t.Helper()
	gr, err := grouping.Build(d, grouping.Config{ST: st, Lengths: lengths, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rspace.New(d, gr, rspace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := newEngine(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func italyProcessor(t *testing.T, lengths []int) *engine {
	t.Helper()
	d := dataset.ItalyPower.Scaled(0.5).Generate(8)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	return buildProcessor(t, d, 0.2, lengths, Options{})
}

// bruteBest scans every subsequence of the given length for the true best
// normalized DTW — the accuracy ground truth.
func bruteBest(d *ts.Dataset, q []float64, length int) (best float64) {
	best = math.Inf(1)
	var w dist.Workspace
	div := dist.NormalizedDTWDivisor(len(q), length)
	for _, s := range d.Series {
		for j := 0; j+length <= s.Len(); j++ {
			raw := w.DTW(q, s.Values[j:j+length])
			if nd := raw / div; nd < best {
				best = nd
			}
		}
	}
	return best
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil base: want error")
	}
	d := ts.NewDataset("t", [][]float64{{1, 2, 3, 4}})
	gr, _ := grouping.Build(d, grouping.Config{ST: 0.5, Lengths: []int{2}, Seed: 1})
	b, _ := rspace.New(d, gr, rspace.Options{})
	if _, err := newEngine(b, Options{CandidateLimit: -1}); err == nil {
		t.Error("negative candidate limit: want error")
	}
}

func TestBestMatchValidatesQuery(t *testing.T) {
	p := italyProcessor(t, []int{6})
	if _, err := p.BestMatch(nil, MatchExact); err == nil {
		t.Error("empty query: want error")
	}
	if _, err := p.BestMatch([]float64{1, math.NaN()}, MatchExact); err == nil {
		t.Error("NaN query: want error")
	}
	if _, err := p.BestMatch([]float64{1, 2, 3}, MatchMode(42)); err == nil {
		t.Error("bad mode: want error")
	}
}

func TestBestMatchExactUnindexedLength(t *testing.T) {
	p := italyProcessor(t, []int{6})
	if _, err := p.BestMatch(make([]float64, 7), MatchExact); err == nil {
		t.Error("unindexed length: want error")
	}
}

func TestBestMatchExactFindsInDatasetQuery(t *testing.T) {
	p := italyProcessor(t, []int{8})
	d := p.Base().Dataset
	// Promote an existing subsequence to query (the Sec. 6.2.1 "in the
	// dataset" methodology): the true best distance is 0.
	q := append([]float64(nil), d.Series[2].Values[5:13]...)
	m, err := p.BestMatch(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Found() {
		t.Fatal("no match found")
	}
	if m.Length != 8 {
		t.Errorf("match length %d, want 8", m.Length)
	}
	// ONEX is approximate, but an identical subsequence lives in some
	// group; the returned match must be very close to perfect.
	exact := bruteBest(d, q, 8)
	if exact > 1e-9 {
		t.Fatalf("ground truth should be 0, got %v", exact)
	}
	if m.Dist > 0.05 {
		t.Errorf("match dist %v too far from exact 0", m.Dist)
	}
	// The reported location must reproduce the reported distance.
	v := d.Series[m.SeriesID].Values[m.Start : m.Start+m.Length]
	recomputed := dist.NormalizedDTW(q, v)
	if math.Abs(recomputed-m.Dist) > 1e-9 {
		t.Errorf("reported dist %v != recomputed %v", m.Dist, recomputed)
	}
}

func TestBestMatchExactCloseToBruteForce(t *testing.T) {
	p := italyProcessor(t, []int{6, 10})
	d := p.Base().Dataset
	// Out-of-dataset queries: perturbed subsequences.
	for qi, src := range [][2]int{{0, 3}, {3, 7}, {7, 0}} {
		q := append([]float64(nil), d.Series[src[0]].Values[src[1]:src[1]+10]...)
		for i := range q {
			q[i] += 0.03 * math.Sin(float64(i+qi))
		}
		m, err := p.BestMatch(q, MatchExact)
		if err != nil {
			t.Fatal(err)
		}
		exact := bruteBest(d, q, 10)
		if m.Dist < exact-1e-9 {
			t.Fatalf("query %d: ONEX dist %v below exact %v (impossible)", qi, m.Dist, exact)
		}
		if m.Dist > exact+0.05 {
			t.Errorf("query %d: ONEX dist %v much worse than exact %v", qi, m.Dist, exact)
		}
	}
}

func TestBestMatchAny(t *testing.T) {
	p := italyProcessor(t, []int{5, 8, 11})
	d := p.Base().Dataset
	q := append([]float64(nil), d.Series[1].Values[2:10]...) // length 8
	m, tr, err := p.BestMatchTraced(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Found() {
		t.Fatal("no match")
	}
	if tr.LengthsVisited == 0 || tr.RepsExamined == 0 || tr.DTWComputed == 0 {
		t.Errorf("trace not populated: %+v", tr)
	}
	// An in-dataset query of an indexed length should stop early
	// (its own length has a rep within ST/2 almost surely).
	if m.Dist > 0.05 {
		t.Errorf("any-match dist %v unexpectedly large", m.Dist)
	}
}

func TestBestMatchAnyQueryLengthNotIndexed(t *testing.T) {
	p := italyProcessor(t, []int{5, 11})
	q := make([]float64, 8) // length 8 not indexed; search falls to 5 and 11
	for i := range q {
		q[i] = 0.5
	}
	m, err := p.BestMatch(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if m.Length != 5 && m.Length != 11 {
		t.Errorf("match length %d, want 5 or 11", m.Length)
	}
}

func TestDisableEarlyStopVisitsAllLengths(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.3).Generate(8)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	lengths := []int{5, 8, 11}
	pStop := buildProcessor(t, d, 0.2, lengths, Options{})
	pAll := buildProcessor(t, d, 0.2, lengths, Options{DisableEarlyStop: true})
	q := append([]float64(nil), d.Series[0].Values[0:8]...)
	_, trStop, err := pStop.BestMatchTraced(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	_, trAll, err := pAll.BestMatchTraced(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if trAll.LengthsVisited != len(lengths) {
		t.Errorf("exhaustive visited %d lengths, want %d", trAll.LengthsVisited, len(lengths))
	}
	if trStop.LengthsVisited > trAll.LengthsVisited {
		t.Errorf("early stop visited more lengths (%d) than exhaustive (%d)",
			trStop.LengthsVisited, trAll.LengthsVisited)
	}
}

func TestLengthOrder(t *testing.T) {
	p := italyProcessor(t, []int{4, 6, 8, 10, 12})
	got := p.lengthOrder(8)
	want := []int{8, 6, 4, 10, 12}
	if len(got) != len(want) {
		t.Fatalf("lengthOrder(8) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lengthOrder(8) = %v, want %v", got, want)
		}
	}
	// Unindexed query length: own length omitted.
	got = p.lengthOrder(7)
	want = []int{6, 4, 8, 10, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lengthOrder(7) = %v, want %v", got, want)
		}
	}
}

func TestCandidateLimit(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.5).Generate(8)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	pAll := buildProcessor(t, d, 0.2, []int{8}, Options{})
	pOne := buildProcessor(t, d, 0.2, []int{8}, Options{CandidateLimit: 1})
	q := append([]float64(nil), d.Series[4].Values[3:11]...)
	mAll, trAll, err := pAll.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	mOne, trOne, err := pOne.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if trOne.MembersTested != 1 {
		t.Errorf("limit 1 tested %d members", trOne.MembersTested)
	}
	if trAll.MembersTested < trOne.MembersTested {
		t.Errorf("unlimited tested fewer members (%d) than limited (%d)",
			trAll.MembersTested, trOne.MembersTested)
	}
	if mAll.Dist > mOne.Dist+1e-12 {
		t.Errorf("testing more members worsened the match: %v vs %v", mAll.Dist, mOne.Dist)
	}
}

func TestLowerBoundAblation(t *testing.T) {
	// Disabling the LB cascade must not change the answer, only the work.
	d := dataset.ECG.Scaled(0.1).Generate(2)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	pLB := buildProcessor(t, d, 0.2, []int{24}, Options{})
	pNo := buildProcessor(t, d, 0.2, []int{24}, Options{DisableLowerBounds: true})
	q := append([]float64(nil), d.Series[1].Values[10:34]...)
	mLB, trLB, err := pLB.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	mNo, trNo, err := pNo.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mLB.Dist-mNo.Dist) > 1e-9 {
		t.Errorf("LB cascade changed the answer: %v vs %v", mLB.Dist, mNo.Dist)
	}
	if trNo.PrunedByKim != 0 || trNo.PrunedByKeogh != 0 {
		t.Errorf("disabled cascade still pruned: %+v", trNo)
	}
	if trLB.PrunedByKim+trLB.PrunedByKeogh == 0 {
		t.Log("note: cascade pruned nothing on this workload (allowed, but unusual)")
	}
}

func TestTraceConsistency(t *testing.T) {
	p := italyProcessor(t, []int{8})
	q := append([]float64(nil), p.Base().Dataset.Series[0].Values[0:8]...)
	_, tr, err := p.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PrunedByKim+tr.PrunedByKeogh > tr.RepsExamined {
		t.Errorf("pruned more reps than examined: %+v", tr)
	}
	if tr.MembersTested == 0 {
		t.Errorf("no members tested: %+v", tr)
	}
}
