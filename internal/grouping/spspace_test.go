package grouping

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/ts"
)

// buildIndexed builds the grouping the SP-Space and index-size tests read.
func buildIndexed(t *testing.T, st float64, lengths []int) *Result {
	t.Helper()
	d := dataset.ItalyPower.Scaled(0.5).Generate(4)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	gr, err := Build(d, Config{ST: st, Lengths: lengths, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

// denseRows computes the full Dc matrix (Def. 10) of one length's groups,
// with the expression MergeThresholdsFor evaluates on demand.
func denseRows(groups []*Group, length int) [][]float64 {
	g := len(groups)
	invSqrtL := 1 / math.Sqrt(float64(length))
	dc := make([][]float64, g)
	for k := range dc {
		dc[k] = make([]float64, g)
	}
	for k := 0; k < g; k++ {
		for l := k + 1; l < g; l++ {
			d := dist.ED(groups[k].Rep, groups[l].Rep) * invSqrtL
			dc[k][l] = d
			dc[l][k] = d
		}
	}
	return dc
}

func TestDistinctRepsAreFartherThanST(t *testing.T) {
	// Construction guarantee: a subsequence farther than ST/2 from every
	// representative founds a new group, so by induction any two reps
	// *started* at distance > ST/2; with drift they may move, but typical
	// pairs remain separated — verify the median inter-rep distance exceeds
	// the grouping radius (sanity of the Dc scale).
	groups := buildIndexed(t, 0.3, []int{8}).ByLength[8].Groups
	if len(groups) < 2 {
		t.Skip("need ≥2 groups")
	}
	dc := denseRows(groups, 8)
	var ds []float64
	for k := 0; k < len(groups); k++ {
		for l := k + 1; l < len(groups); l++ {
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

func TestMergeThresholds(t *testing.T) {
	// Hand-crafted Dc: 4 groups in a line at distances 1,2,4.
	// Kruskal order: (0,1)=1, (1,2)=2, (2,3)=4.
	// components: 4 →(1)→ 3 →(2)→ 2 →(4)→ 1.
	// halfTarget = 2 → half = ST+2; final = ST+4.
	dc := [][]float64{
		{0, 1, 3, 7},
		{1, 0, 2, 6},
		{3, 2, 0, 4},
		{7, 6, 4, 0},
	}
	half, final := mergeThresholds(len(dc), func(k, l int) float64 { return dc[k][l] }, 0.5)
	if math.Abs(half-2.5) > 1e-12 {
		t.Errorf("half = %v, want 2.5", half)
	}
	if math.Abs(final-4.5) > 1e-12 {
		t.Errorf("final = %v, want 4.5", final)
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

// mergeSimulation runs the Sec. 4.2 merge process literally: sort all
// g(g−1)/2 pairs by Dc, merge them with union-find, and record ST + Dc where
// the group count first reaches ⌈g/2⌉ and where it reaches 1.
func mergeSimulation(dc [][]float64, st float64) (half, final float64) {
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
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	components, halfTarget := g, (g+1)/2
	half = st
	haveHalf := false
	for _, ed := range edges {
		rk, rl := find(ed.k), find(ed.l)
		if rk == rl {
			continue
		}
		parent[rk] = rl
		components--
		if !haveHalf && components <= halfTarget {
			half, haveHalf = st+ed.d, true
		}
		if components == 1 {
			return half, st + ed.d
		}
	}
	return half, st
}

// TestMergeThresholdsMatchKruskal pins the Prim/MST-multiset implementation
// to the direct merge simulation over seeded random symmetric matrices,
// including heavy ties.
func TestMergeThresholdsMatchKruskal(t *testing.T) {
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
		wantH, wantF := mergeSimulation(dc, 0.2)
		gotH, gotF := mergeThresholds(g, func(k, l int) float64 { return dc[k][l] }, 0.2)
		if gotH != wantH || gotF != wantF {
			t.Fatalf("trial %d (g=%d): got (%v,%v), kruskal (%v,%v)", trial, g, gotH, gotF, wantH, wantF)
		}
	}
}

// TestMergeThresholdsForMatchesMergeSimulation is the independent oracle for
// the SP-Space thresholds every engine layout serves: over random group
// sets — g ∈ {1, 2, 3} and larger, representatives on a coarse lattice so
// distances tie exactly, duplicated representatives at distance 0 — the
// on-demand Prim pass equals the literal merge simulation bit for bit.
func TestMergeThresholdsForMatchesMergeSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		g := 1 + trial%3
		if trial >= 30 {
			g = 1 + rng.Intn(24)
		}
		length := 1 + rng.Intn(12)
		groups := make([]*Group, g)
		for k := range groups {
			rep := make([]float64, length)
			switch {
			case k > 0 && rng.Intn(5) == 0: // duplicate an earlier rep
				copy(rep, groups[rng.Intn(k)].Rep)
			case trial%2 == 0: // lattice: many exactly tied distances
				for i := range rep {
					rep[i] = float64(rng.Intn(3)) / 2
				}
			default:
				for i := range rep {
					rep[i] = rng.Float64()
				}
			}
			groups[k] = &Group{Length: length, ID: k, Rep: rep}
		}
		st := 0.05 + float64(rng.Float64()/2)
		wantH, wantF := mergeSimulation(denseRows(groups, length), st)
		gotH, gotF := MergeThresholdsFor(groups, length, st)
		if math.Float64bits(gotH) != math.Float64bits(wantH) || math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Fatalf("trial %d (g=%d L=%d): MergeThresholdsFor (%v,%v), simulation (%v,%v)",
				trial, g, length, gotH, gotF, wantH, wantF)
		}
	}
}

// TestHalfThresholdNeverExceedsFinal: per length, ST ≤ half ≤ final.
func TestHalfThresholdNeverExceedsFinal(t *testing.T) {
	gr := buildIndexed(t, 0.2, nil)
	for _, l := range gr.Lengths {
		half, final := MergeThresholdsFor(gr.ByLength[l].Groups, l, gr.ST)
		if half > final {
			t.Errorf("length %d: half %v > final %v", l, half, final)
		}
		if half < gr.ST {
			t.Errorf("length %d: half %v below build ST %v", l, half, gr.ST)
		}
	}
}

func TestSizeBytesPositiveAndMonotone(t *testing.T) {
	small := buildIndexed(t, 0.2, []int{5})
	big := buildIndexed(t, 0.2, []int{5, 6, 7, 8})
	if small.SizeBytes() <= 0 {
		t.Error("SizeBytes <= 0")
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Errorf("more lengths should grow the index: %d vs %d", big.SizeBytes(), small.SizeBytes())
	}
}

// TestSizeBytesTracksRepresentation walks the actual resident structures and
// asserts the accounting matches them exactly.
func TestSizeBytesTracksRepresentation(t *testing.T) {
	gr := buildIndexed(t, 0.2, []int{5, 8})
	const word = 8
	var want int64
	for _, lg := range gr.ByLength {
		want += int64(len(lg.Groups)) * word // ids
		for _, grp := range lg.Groups {
			want += int64(len(grp.Members)) * 3 * word
			want += int64(len(grp.Rep)) * word
		}
	}
	if got := gr.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, representation walk says %d", got, want)
	}
}

// TestSizeBytesSubQuadratic pins the memory claim: beyond the LSI (members
// and representatives) a length costs one word per group, so no term grows
// with g² — far below the dense Dc matrix once g is large.
func TestSizeBytesSubQuadratic(t *testing.T) {
	gr := buildIndexed(t, 0.05, []int{6})
	groups := gr.ByLength[6].Groups
	g := int64(len(groups))
	if g < 8 {
		t.Skipf("want many groups, got %d", g)
	}
	gti := gr.SizeBytes()
	for _, grp := range groups {
		gti -= int64(grp.Count())*24 + int64(len(grp.Rep))*8
	}
	if gti != 8*g {
		t.Errorf("per-group index bytes %d, want %d (g=%d)", gti, 8*g, g)
	}
	if dense := g * g * 8; gti >= dense {
		t.Errorf("index bytes %d not below dense Dc %d (g=%d)", gti, dense, g)
	}
}

// TestTotalGroupsMatchesGrouping: the totals Stats reports are the groups
// and members the Result holds.
func TestTotalGroupsMatchesGrouping(t *testing.T) {
	gr := buildIndexed(t, 0.2, []int{4, 6})
	groups, members := 0, int64(0)
	for _, l := range gr.Lengths {
		for _, grp := range gr.ByLength[l].Groups {
			groups++
			members += int64(grp.Count())
		}
	}
	if gr.TotalGroups() != groups {
		t.Errorf("TotalGroups %d != %d groups held", gr.TotalGroups(), groups)
	}
	if gr.TotalSubseq != members {
		t.Errorf("TotalSubseq %d != %d members held", gr.TotalSubseq, members)
	}
}

func TestMemberValuesWindow(t *testing.T) {
	d := ts.NewDataset("t", [][]float64{{0, 1, 2, 3, 4}})
	gr, err := Build(d, Config{ST: 10, Lengths: []int{3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := gr.ByLength[3].Groups[0]
	for _, m := range g.Members {
		v := MemberValues(d, g, m)
		if len(v) != 3 || v[0] != float64(m.Start) {
			t.Errorf("MemberValues(%+v) = %v", m, v)
		}
	}
}
