package rspace

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/ts"
)

func buildBase(t *testing.T, st float64, lengths []int) *Base {
	t.Helper()
	d := dataset.ItalyPower.Scaled(0.5).Generate(4)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	gr, err := grouping.Build(d, grouping.Config{ST: st, Lengths: lengths, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Error("want error for nil inputs")
	}
}

func TestEntryLookup(t *testing.T) {
	b := buildBase(t, 0.2, []int{5, 9})
	if e := b.Entry(5); e == nil || e.Length != 5 {
		t.Error("Entry(5) missing")
	}
	if e := b.Entry(6); e != nil {
		t.Error("Entry(6) should be nil")
	}
}

// denseRows recomputes the full Dc matrix of an entry from its groups —
// the reference the sparse resident layout is checked against in tests.
func denseRows(e *LengthEntry) [][]float64 {
	g := len(e.Groups)
	invSqrtL := 1 / math.Sqrt(float64(e.Length))
	dc := make([][]float64, g)
	for k := range dc {
		dc[k] = make([]float64, g)
	}
	for k := 0; k < g; k++ {
		for l := k + 1; l < g; l++ {
			d := dist.ED(e.Groups[k].Rep, e.Groups[l].Rep) * invSqrtL
			dc[k][l] = d
			dc[l][k] = d
		}
	}
	return dc
}

func TestDcTopKProperties(t *testing.T) {
	b := buildBase(t, 0.2, []int{6})
	e := b.Entry(6)
	g := len(e.Groups)
	dc := denseRows(e)
	want := DefaultTopK
	if want > g-1 {
		want = g - 1
	}
	for k := 0; k < g; k++ {
		nbs := e.TopK[k]
		if len(nbs) != want {
			t.Fatalf("row %d: %d neighbors, want %d", k, len(nbs), want)
		}
		for i, nb := range nbs {
			if nb.To == k {
				t.Errorf("row %d keeps its own diagonal", k)
			}
			if nb.D <= 0 {
				t.Errorf("row %d neighbor %d: D = %v, want > 0 for distinct reps", k, nb.To, nb.D)
			}
			if nb.D != dc[k][nb.To] {
				t.Errorf("row %d neighbor %d: D = %v, dense says %v", k, nb.To, nb.D, dc[k][nb.To])
			}
			ref := dist.NormalizedED(e.Groups[k].Rep, e.Groups[nb.To].Rep)
			if math.Abs(nb.D-ref) > 1e-12 {
				t.Errorf("row %d neighbor %d: D = %v, want %v", k, nb.To, nb.D, ref)
			}
			if i > 0 {
				prev := nbs[i-1]
				if nb.D < prev.D || (nb.D == prev.D && nb.To < prev.To) {
					t.Errorf("row %d not sorted by (D, To) at %d", k, i)
				}
			}
		}
		// The retained entries really are the k smallest of the row: no
		// dropped peer may beat the worst kept one (ties resolve by index).
		if len(nbs) > 0 && len(nbs) < g-1 {
			kept := make(map[int]bool, len(nbs))
			for _, nb := range nbs {
				kept[nb.To] = true
			}
			worst := nbs[len(nbs)-1]
			for l := 0; l < g; l++ {
				if l == k || kept[l] {
					continue
				}
				if dc[k][l] < worst.D || (dc[k][l] == worst.D && l < worst.To) {
					t.Errorf("row %d dropped %d (d=%v) but kept %d (d=%v)", k, l, dc[k][l], worst.To, worst.D)
				}
			}
		}
	}
}

func TestDcAtSymmetricLookup(t *testing.T) {
	b := buildBase(t, 0.2, []int{6})
	e := b.Entry(6)
	g := len(e.Groups)
	dc := denseRows(e)
	hits := 0
	for k := 0; k < g; k++ {
		for l := 0; l < g; l++ {
			if l == k {
				continue
			}
			if d, ok := e.dcAt(k, l); ok {
				hits++
				if d != dc[k][l] {
					t.Errorf("dcAt(%d,%d) = %v, dense says %v", k, l, d, dc[k][l])
				}
				if d2, ok2 := e.dcAt(l, k); !ok2 || d2 != d {
					t.Errorf("dcAt(%d,%d) asymmetric: %v/%v vs %v", l, k, d2, ok2, d)
				}
			}
		}
	}
	if hits == 0 && g > 1 {
		t.Error("dcAt never hits despite retained neighbor lists")
	}
}

func TestDistinctRepsAreFartherThanST(t *testing.T) {
	// Construction guarantee: a subsequence farther than ST/2 from every
	// representative founds a new group, so by induction any two reps
	// *started* at distance > ST/2; with drift they may move, but typical
	// pairs remain separated — verify the median inter-rep distance exceeds
	// the grouping radius (sanity of the Dc scale).
	b := buildBase(t, 0.3, []int{8})
	e := b.Entry(8)
	if len(e.Groups) < 2 {
		t.Skip("need ≥2 groups")
	}
	dc := denseRows(e)
	var ds []float64
	for k := 0; k < len(e.Groups); k++ {
		for l := k + 1; l < len(e.Groups); l++ {
			ds = append(ds, dc[k][l])
		}
	}
	above := 0
	for _, d := range ds {
		if d > 0.15 { // ST/2
			above++
		}
	}
	if frac := float64(above) / float64(len(ds)); frac < 0.5 {
		t.Errorf("only %.0f%% of inter-rep distances exceed ST/2", frac*100)
	}
}

func TestEnvelopesContainRep(t *testing.T) {
	b := buildBase(t, 0.2, []int{6})
	e := b.Entry(6)
	for k, grp := range e.Groups {
		env := e.Envelopes[k]
		if len(env.Upper) != grp.Length || len(env.Lower) != grp.Length {
			t.Fatalf("envelope %d wrong length", k)
		}
		for i := range grp.Rep {
			if env.Lower[i] > grp.Rep[i] || grp.Rep[i] > env.Upper[i] {
				t.Fatalf("envelope %d does not contain rep at %d", k, i)
			}
		}
	}
}

func TestFullRadiusEnvelopeAdmissibleForDTW(t *testing.T) {
	// LB_Keogh with the default full-radius envelopes must lower-bound the
	// unconstrained DTW used online (Sec. 5.3 cascade correctness).
	b := buildBase(t, 0.2, []int{10})
	e := b.Entry(10)
	q := b.Dataset.Series[0].Values[:10]
	var w dist.Workspace
	for k, grp := range e.Groups {
		lb := dist.LBKeogh(q, e.Envelopes[k].Upper, e.Envelopes[k].Lower, math.Inf(1))
		d := w.DTW(q, grp.Rep)
		if lb > d+1e-9 {
			t.Fatalf("group %d: LBKeogh %v > DTW %v", k, lb, d)
		}
	}
}

func TestMergeThresholds(t *testing.T) {
	// Hand-crafted Dc: 4 groups in a line at distances 1,2,4.
	// Kruskal order: (0,1)=1, (1,2)=2, (2,3)=4.
	// components: 4 →(1)→ 3 →(2)→ 2 →(4)→ 1.
	// halfTarget = 2 → STHalf = ST+2; STFinal = ST+4.
	dc := [][]float64{
		{0, 1, 3, 7},
		{1, 0, 2, 6},
		{3, 2, 0, 4},
		{7, 6, 4, 0},
	}
	half, final := mergeThresholds(len(dc), func(k, l int) float64 { return dc[k][l] }, 0.5)
	if math.Abs(half-2.5) > 1e-12 {
		t.Errorf("STHalf = %v, want 2.5", half)
	}
	if math.Abs(final-4.5) > 1e-12 {
		t.Errorf("STFinal = %v, want 4.5", final)
	}
}

func TestMergeThresholdsDegenerate(t *testing.T) {
	never := func(k, l int) float64 { panic("oracle must not be called") }
	if h, f := mergeThresholds(0, never, 0.3); h != 0.3 || f != 0.3 {
		t.Errorf("empty: %v,%v want 0.3,0.3", h, f)
	}
	if h, f := mergeThresholds(1, never, 0.3); h != 0.3 || f != 0.3 {
		t.Errorf("single group: %v,%v want 0.3,0.3", h, f)
	}
	// Two groups: half target is 1, reached by the single merge; both
	// thresholds coincide.
	dc := [][]float64{{0, 2}, {2, 0}}
	h, f := mergeThresholds(len(dc), func(k, l int) float64 { return dc[k][l] }, 0.1)
	if math.Abs(h-2.1) > 1e-12 || math.Abs(f-2.1) > 1e-12 {
		t.Errorf("two groups: %v,%v want 2.1,2.1", h, f)
	}
}

// TestMergeThresholdsMatchKruskal pins the Prim/MST-multiset implementation
// to the direct merge simulation the package used before the sparse layout:
// sort ALL g(g−1)/2 edges, union-find merge, record the edge weights at
// which the component count first reaches ⌈g/2⌉ and 1. Run over seeded
// random symmetric matrices, including heavy ties.
func TestMergeThresholdsMatchKruskal(t *testing.T) {
	kruskal := func(dc [][]float64, st float64) (float64, float64) {
		g := len(dc)
		if g <= 1 {
			return st, st
		}
		type edge struct {
			k, l int
			d    float64
		}
		var edges []edge
		for k := 0; k < g; k++ {
			for l := k + 1; l < g; l++ {
				edges = append(edges, edge{k, l, dc[k][l]})
			}
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].d < edges[b].d })
		parent := make([]int, g)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		components, halfTarget := g, (g+1)/2
		stHalf, stFinal := st, st
		haveHalf := false
		for _, ed := range edges {
			rk, rl := find(ed.k), find(ed.l)
			if rk == rl {
				continue
			}
			parent[rk] = rl
			components--
			if !haveHalf && components <= halfTarget {
				stHalf = st + ed.d
				haveHalf = true
			}
			if components == 1 {
				stFinal = st + ed.d
				break
			}
		}
		return stHalf, stFinal
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		g := 2 + rng.Intn(12)
		dc := make([][]float64, g)
		for k := range dc {
			dc[k] = make([]float64, g)
		}
		for k := 0; k < g; k++ {
			for l := k + 1; l < g; l++ {
				var d float64
				if rng.Intn(3) == 0 {
					d = float64(1 + rng.Intn(3)) // force tied weights
				} else {
					d = rng.Float64() * 10
				}
				dc[k][l], dc[l][k] = d, d
			}
		}
		wantH, wantF := kruskal(dc, 0.2)
		gotH, gotF := mergeThresholds(g, func(k, l int) float64 { return dc[k][l] }, 0.2)
		if gotH != wantH || gotF != wantF {
			t.Fatalf("trial %d (g=%d): got (%v,%v), kruskal (%v,%v)", trial, g, gotH, gotF, wantH, wantF)
		}
	}
}

func TestMergeThresholdsForMatchesBase(t *testing.T) {
	b := buildBase(t, 0.2, []int{6, 9})
	for _, l := range b.Lengths {
		e := b.Entry(l)
		half, final := MergeThresholdsFor(e.Groups, l, b.ST)
		if half != e.STHalf || final != e.STFinal {
			t.Errorf("length %d: MergeThresholdsFor (%v,%v) != entry (%v,%v)",
				l, half, final, e.STHalf, e.STFinal)
		}
	}
}

func TestSTHalfNeverExceedsSTFinal(t *testing.T) {
	b := buildBase(t, 0.2, nil)
	for _, l := range b.Lengths {
		e := b.Entry(l)
		if e.STHalf > e.STFinal {
			t.Errorf("length %d: STHalf %v > STFinal %v", l, e.STHalf, e.STFinal)
		}
		if e.STHalf < b.ST-1e-12 {
			t.Errorf("length %d: STHalf %v below build ST %v", l, e.STHalf, b.ST)
		}
	}
	if b.GlobalSTHalf > b.GlobalSTFinal {
		t.Errorf("global STHalf %v > STFinal %v", b.GlobalSTHalf, b.GlobalSTFinal)
	}
}

func TestGlobalThresholdsAreMaxima(t *testing.T) {
	b := buildBase(t, 0.2, []int{4, 8, 12})
	var wantHalf, wantFinal float64
	for _, l := range b.Lengths {
		e := b.Entry(l)
		wantHalf = math.Max(wantHalf, e.STHalf)
		wantFinal = math.Max(wantFinal, e.STFinal)
	}
	if b.GlobalSTHalf != wantHalf || b.GlobalSTFinal != wantFinal {
		t.Errorf("global = %v,%v want %v,%v", b.GlobalSTHalf, b.GlobalSTFinal, wantHalf, wantFinal)
	}
}

func TestDegreeAndRecommend(t *testing.T) {
	b := buildBase(t, 0.2, []int{6})
	if d := b.DegreeOf(0); d != Strict {
		t.Errorf("DegreeOf(0) = %v, want S", d)
	}
	if d := b.DegreeOf(b.GlobalSTFinal + 1); d != Loose {
		t.Errorf("DegreeOf(huge) = %v, want L", d)
	}
	lo, hi, err := b.Recommend(Strict, -1)
	if err != nil || lo != 0 || hi != b.GlobalSTHalf {
		t.Errorf("Recommend(S) = %v,%v,%v", lo, hi, err)
	}
	lo, hi, err = b.Recommend(Medium, 6)
	e := b.Entry(6)
	if err != nil || lo != e.STHalf || hi != e.STFinal {
		t.Errorf("Recommend(M,6) = %v,%v,%v", lo, hi, err)
	}
	lo, hi, err = b.Recommend(Loose, -1)
	if err != nil || lo != b.GlobalSTFinal || !math.IsInf(hi, 1) {
		t.Errorf("Recommend(L) = %v,%v,%v", lo, hi, err)
	}
	if _, _, err := b.Recommend(Strict, 999); err == nil {
		t.Error("Recommend on unindexed length should fail")
	}
	if _, _, err := b.Recommend(Degree(42), -1); err == nil {
		t.Error("Recommend with bogus degree should fail")
	}
}

func TestDegreeString(t *testing.T) {
	if Strict.String() != "S" || Medium.String() != "M" || Loose.String() != "L" || Degree(9).String() != "?" {
		t.Error("Degree.String mismatch")
	}
}

func TestSizeBytesPositiveAndMonotone(t *testing.T) {
	small := buildBase(t, 0.2, []int{5})
	big := buildBase(t, 0.2, []int{5, 6, 7, 8})
	if small.SizeBytes() <= 0 {
		t.Error("SizeBytes <= 0")
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Errorf("more lengths should grow the index: %d vs %d", big.SizeBytes(), small.SizeBytes())
	}
}

// TestSizeBytesTracksRepresentation walks the actual resident structures and
// asserts the accounting matches them exactly — in particular that the Dc
// term is the retained neighbor lists, not the old hard-coded g² matrix.
func TestSizeBytesTracksRepresentation(t *testing.T) {
	b := buildBase(t, 0.2, []int{5, 8})
	const word = 8
	var want int64
	for _, e := range b.Entries {
		g := int64(len(e.Groups))
		want += g * word // group id vector
		want += 2 * word // thresholds
		for _, nbs := range e.TopK {
			want += int64(len(nbs)) * 2 * word
		}
		for k, grp := range e.Groups {
			want += int64(grp.Count()) * 3 * word
			want += int64(len(grp.Rep)) * word
			want += int64(len(e.Envelopes[k].Upper)+len(e.Envelopes[k].Lower)) * word
		}
	}
	if got := b.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, representation walk says %d", got, want)
	}
}

// TestSizeBytesSubQuadratic pins the memory-diet claim: at a narrow TopK the
// Dc term must be O(g·k), so the per-entry index size minus the LSI terms
// must stay far below the dense g² float cost once g ≫ k.
func TestSizeBytesSubQuadratic(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.5).Generate(4)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	gr, err := grouping.Build(d, grouping.Config{ST: 0.05, Lengths: []int{6}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, gr, Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := b.Entry(6)
	g := len(e.Groups)
	if g < 8 {
		t.Skipf("want many groups, got %d", g)
	}
	var dcBytes int64
	for _, nbs := range e.TopK {
		dcBytes += int64(len(nbs)) * 16
	}
	if maxWant := int64(g) * 2 * 16; dcBytes > maxWant {
		t.Errorf("sparse Dc bytes %d exceed O(g·k) bound %d (g=%d)", dcBytes, maxWant, g)
	}
	if dense := int64(g) * int64(g) * 8; dcBytes >= dense {
		t.Errorf("sparse Dc bytes %d not below dense %d (g=%d)", dcBytes, dense, g)
	}
}

func TestTotalGroupsMatchesGrouping(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.3).Generate(4)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	gr, err := grouping.Build(d, grouping.Config{ST: 0.2, Lengths: []int{4, 6}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalGroups() != gr.TotalGroups() {
		t.Errorf("TotalGroups %d != grouping %d", b.TotalGroups(), gr.TotalGroups())
	}
	if b.TotalSubseq != gr.TotalSubseq {
		t.Errorf("TotalSubseq %d != grouping %d", b.TotalSubseq, gr.TotalSubseq)
	}
}

func TestMemberValuesWindow(t *testing.T) {
	d := ts.NewDataset("t", [][]float64{{0, 1, 2, 3, 4}})
	gr, err := grouping.Build(d, grouping.Config{ST: 10, Lengths: []int{3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, gr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := b.Entry(3).Groups[0]
	for _, m := range g.Members {
		v := b.MemberValues(g, m)
		if len(v) != 3 || v[0] != float64(m.Start) {
			t.Errorf("MemberValues(%+v) = %v", m, v)
		}
	}
}
