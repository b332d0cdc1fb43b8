package query

import (
	"math"
	"testing"

	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/ts"
)

func buildProcessor(t *testing.T, d *ts.Dataset, st float64, lengths []int) *engine {
	t.Helper()
	gr, err := grouping.Build(d, grouping.Config{ST: st, Lengths: lengths, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := newEngine(d, gr, 0)
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
	return buildProcessor(t, d, 0.2, lengths)
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
	if _, err := NewWholeShard(nil, nil); err == nil {
		t.Error("nil dataset and grouping: want error")
	}
	if _, err := NewScatter(nil, nil, 0, nil); err == nil {
		t.Error("nil global dataset and grouping: want error")
	}
}

// infoShard reports a forged layout slice over a real shard.
type infoShard struct {
	*LocalShard
	info ShardInfo
}

func (s infoShard) Info() ShardInfo { return s.info }

// TestNewScatterChecksPartition: the shards' series must partition the
// dataset's ids — each in range, held once, none missing.
func TestNewScatterChecksPartition(t *testing.T) {
	p := italyProcessor(t, []int{8})
	whole := p.transports[0].(*LocalShard)
	info := whole.Info()
	n := len(info.Series)
	for name, series := range map[string][]int{
		"outside": append(info.Series[:n-1:n-1], n),
		"twice":   append(info.Series[:n-1:n-1], 0),
		"missing": info.Series[:n-1],
	} {
		forged := info
		forged.Series = series
		if _, err := NewScatter(p.data, p.grouped, 1, []ShardTransport{infoShard{whole, forged}}); err == nil {
			t.Errorf("%s: NewScatter accepted series that do not partition the dataset", name)
		}
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
	d := p.data
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
	d := p.data
	// Out-of-dataset queries: perturbed subsequences.
	for qi, src := range [][2]int{{0, 3}, {3, 7}, {7, 0}} {
		q := append([]float64(nil), d.Series[src[0]].Values[src[1]:src[1]+10]...)
		for i := range q {
			q[i] += float64(0.03 * math.Sin(float64(i+qi)))
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
	d := p.data
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

// TestEarlyStopFires: the query's own length is searched first, and a
// representative of it within ST/2 ends the Match=Any search there.
func TestEarlyStopFires(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.3).Generate(8)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	lengths := []int{5, 8, 11}
	p := buildProcessor(t, d, 0.2, lengths)
	q := append([]float64(nil), d.Series[0].Values[0:8]...)
	nearest := math.Inf(1)
	for _, g := range p.grouped.ByLength[8].Groups {
		nearest = math.Min(nearest, dist.NormalizedDTW(q, g.Rep))
	}
	if nearest > 0.2/2 {
		t.Fatalf("fixture has no representative within ST/2 (nearest %v)", nearest)
	}
	_, tr, err := p.BestMatchTraced(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LengthsVisited >= len(lengths) {
		t.Errorf("visited %d of %d lengths despite a representative within ST/2", tr.LengthsVisited, len(lengths))
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

// plainWalk is the reference of one group's Sec. 5.3 pivot walk with no
// pruning at all: every member in pivot order gets a full dist.DTW, until
// patience consecutive members fail to improve. It returns the best member
// and its raw distance.
func plainWalk(d *ts.Dataset, q []float64, g *grouping.Group, repNorm float64) (grouping.Member, float64) {
	var w dist.Workspace
	walk := newPivotWalk(g.Members, repNorm)
	var best grouping.Member
	bestRaw := math.Inf(1)
	for since := 0; since < patience; {
		idx := walk.next()
		if idx < 0 {
			break
		}
		m := g.Members[idx]
		if raw := w.DTW(q, d.Series[m.SeriesIdx].Values[m.Start:m.Start+g.Length]); raw < bestRaw {
			best, bestRaw, since = m, raw, 0
		} else {
			since++
		}
	}
	return best, bestRaw
}

// TestLowerBoundAblation: the LB_Kim → DTW cascade and the early
// abandoning are admissible. The engine mines the representative that plain
// DTW ranks first (ties to the smallest id) and returns the member an
// unpruned walk from it finds.
func TestLowerBoundAblation(t *testing.T) {
	d := dataset.ECG.Scaled(0.1).Generate(2)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	const L = 24
	p := buildProcessor(t, d, 0.2, []int{L})
	divisor := dist.NormalizedDTWDivisor(L, L)
	var w dist.Workspace
	for qi, src := range [][2]int{{1, 10}, {0, 40}, {2, 5}, {3, 70}} {
		q := append([]float64(nil), d.Series[src[0]].Values[src[1]:src[1]+L]...)
		if qi%2 == 1 {
			for i := range q {
				q[i] = float64(q[i]*0.9) + 0.03
			}
		}
		m, tr, err := p.BestMatchTraced(q, MatchExact)
		if err != nil {
			t.Fatal(err)
		}
		groups := p.grouped.ByLength[L].Groups
		argmin, minRaw := -1, math.Inf(1)
		for k, g := range groups {
			if raw := w.DTW(q, g.Rep); raw < minRaw {
				argmin, minRaw = k, raw
			}
		}
		if m.GroupID != argmin {
			t.Fatalf("query %d: engine mined group %d, plain DTW ranks group %d first", qi, m.GroupID, argmin)
		}
		want, wantRaw := plainWalk(d, q, groups[argmin], minRaw/divisor)
		if m.SeriesID != want.SeriesIdx || m.Start != want.Start || m.RawDTW != wantRaw {
			t.Fatalf("query %d: engine matched (%d,%d) at %v, the unpruned walk (%d,%d) at %v",
				qi, m.SeriesID, m.Start, m.RawDTW, want.SeriesIdx, want.Start, wantRaw)
		}
		if tr.PrunedByKim == 0 {
			t.Logf("query %d: the cascade pruned nothing (allowed, but unusual)", qi)
		}
	}
}

func TestTraceConsistency(t *testing.T) {
	p := italyProcessor(t, []int{8})
	q := append([]float64(nil), p.data.Series[0].Values[0:8]...)
	_, tr, err := p.BestMatchTraced(q, MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PrunedByKim > tr.RepsExamined {
		t.Errorf("pruned more reps than examined: %+v", tr)
	}
	if tr.MembersTested == 0 {
		t.Errorf("no members tested: %+v", tr)
	}
}
