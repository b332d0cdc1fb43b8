package rspace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"onex/internal/dataset"
	"onex/internal/grouping"
	"onex/internal/ts"
)

func buildBaseK(t *testing.T, st float64, lengths []int, topK int) *Base {
	t.Helper()
	d := dataset.ItalyPower.Scaled(0.5).Generate(4)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	gr, err := grouping.Build(d, grouping.Config{ST: st, Lengths: lengths, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, gr, Options{TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTopKInvariantDerivedState is the rspace half of the exactness
// argument: every quantity the query processor reads — row sums, visit
// orders, merge thresholds, envelopes — must be bit-identical at every
// TopK setting, because all of them derive from the transient dense matrix
// before the top-k cut happens.
func TestTopKInvariantDerivedState(t *testing.T) {
	lengths := []int{5, 8}
	ref := buildBaseK(t, 0.2, lengths, -1) // dense-equivalent retention
	for _, k := range []int{0, 1, 2, DefaultTopK, 1 << 20} {
		b := buildBaseK(t, 0.2, lengths, k)
		if b.GlobalSTHalf != ref.GlobalSTHalf || b.GlobalSTFinal != ref.GlobalSTFinal {
			t.Errorf("TopK=%d: global thresholds differ", k)
		}
		for _, l := range lengths {
			be, re := b.Entry(l), ref.Entry(l)
			if be.STHalf != re.STHalf || be.STFinal != re.STFinal {
				t.Errorf("TopK=%d length %d: thresholds differ", k, l)
			}
			if !reflect.DeepEqual(be.Envelopes, re.Envelopes) {
				t.Errorf("TopK=%d length %d: envelopes differ", k, l)
			}
		}
	}
}

func TestTopKEdgeWidths(t *testing.T) {
	lengths := []int{6}
	// k far beyond g: full rows, identical to the dense-equivalent layout.
	wide := buildBaseK(t, 0.2, lengths, 1<<20)
	dense := buildBaseK(t, 0.2, lengths, -1)
	if !reflect.DeepEqual(wide.Entry(6).TopK, dense.Entry(6).TopK) {
		t.Error("k ≥ g does not match the dense-equivalent retention")
	}
	g := len(dense.Entry(6).Groups)
	for k, nbs := range dense.Entry(6).TopK {
		if len(nbs) != g-1 {
			t.Fatalf("dense-equivalent row %d has %d neighbors, want %d", k, len(nbs), g-1)
		}
	}
	// k = 1: exactly one (the nearest) neighbor per row.
	one := buildBaseK(t, 0.2, lengths, 1)
	for k, nbs := range one.Entry(6).TopK {
		if g > 1 && len(nbs) != 1 {
			t.Fatalf("TopK=1 row %d has %d neighbors", k, len(nbs))
		}
		if len(nbs) > 0 && nbs[0] != dense.Entry(6).TopK[k][0] {
			t.Fatalf("TopK=1 row %d nearest %+v != dense nearest %+v", k, nbs[0], dense.Entry(6).TopK[k][0])
		}
	}
}

// TestTopKSingleGroup covers g = 1: no neighbors to retain, thresholds
// degenerate to ST, and the entry still serves queries' scan state.
func TestTopKSingleGroup(t *testing.T) {
	d := ts.NewDataset("one", [][]float64{{0, 1, 2, 3}})
	gr, err := grouping.Build(d, grouping.Config{ST: 10, Lengths: []int{3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, gr, Options{TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := b.Entry(3)
	if len(e.Groups) != 1 {
		t.Skipf("want a single group, got %d", len(e.Groups))
	}
	if len(e.TopK) != 1 || len(e.TopK[0]) != 0 {
		t.Errorf("single group should retain no neighbors: %+v", e.TopK)
	}
	if e.STHalf != b.ST || e.STFinal != b.ST {
		t.Errorf("degenerate thresholds (%v,%v), want (%v,%v)", e.STHalf, e.STFinal, b.ST, b.ST)
	}
}

// TestTopKTieBreakDeterministic hand-crafts representatives with exactly
// tied Dc values and checks the retained list prefers the lower group
// index — the documented deterministic tie-break.
func TestTopKTieBreakDeterministic(t *testing.T) {
	lg := &grouping.LengthGroups{
		Length: 2,
		Groups: []*grouping.Group{
			{Length: 2, ID: 0, Rep: []float64{0, 0}, Members: []grouping.Member{{}}},
			{Length: 2, ID: 1, Rep: []float64{1, 1}, Members: []grouping.Member{{}}},
			{Length: 2, ID: 2, Rep: []float64{-1, -1}, Members: []grouping.Member{{}}},
			{Length: 2, ID: 3, Rep: []float64{3, 3}, Members: []grouping.Member{{}}},
		},
	}
	// From rep 0: d(0,1) == d(0,2) exactly (symmetric points), d(0,3) larger.
	e := newLengthEntry(lg, 0.1, 2, 1)
	if len(e.TopK[0]) != 1 || e.TopK[0][0].To != 1 {
		t.Fatalf("tied nearest should resolve to the lower index: %+v", e.TopK[0])
	}
	e2 := newLengthEntry(lg, 0.1, 2, 2)
	if len(e2.TopK[0]) != 2 || e2.TopK[0][0].To != 1 || e2.TopK[0][1].To != 2 {
		t.Fatalf("tied pair should list ascending indices: %+v", e2.TopK[0])
	}
	if e2.TopK[0][0].D != e2.TopK[0][1].D {
		t.Fatalf("crafted tie is not a tie: %+v", e2.TopK[0])
	}
	// The tie must also not disturb the derived state across widths.
	if e.STHalf != e2.STHalf || e.STFinal != e2.STFinal {
		t.Error("thresholds depend on retention width under ties")
	}
}

// TestRefreshSparseMatchesNew mirrors TestRefreshMatchesNewBitForBit at
// narrow retention widths: even when the previous entry's lists cover only
// a fraction of the clean pairs, Refresh must reproduce New bit for bit
// (the uncovered pairs recompute the identical EDs).
func TestRefreshSparseMatchesNew(t *testing.T) {
	for _, topK := range []int{1, 2, -1} {
		opts := Options{TopK: topK}
		d := dataset.ItalyPower.Scaled(0.4).Generate(23)
		if err := d.NormalizeMinMax(); err != nil {
			t.Fatal(err)
		}
		prev, err := grouping.Build(d, grouping.Config{ST: 0.2, Lengths: []int{6, 10}, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		prevBase, err := New(d, prev, opts)
		if err != nil {
			t.Fatal(err)
		}
		oldLens := make([]int, d.N())
		for i, s := range d.Series {
			oldLens[i] = s.Len()
		}
		for i, n := range []int{9, 4} {
			src := d.Series[i].Values
			for j := 0; j < n; j++ {
				d.Series[i].AppendPoints(src[j%len(src)] * 0.8)
			}
		}
		gr, delta, err := grouping.AppendPoints(d, prev, oldLens, grouping.Config{ST: 0.2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(d, gr, opts)
		if err != nil {
			t.Fatal(err)
		}
		refreshed, err := Refresh(d, gr, opts, prevBase, delta)
		if err != nil {
			t.Fatal(err)
		}
		for l, fe := range fresh.Entries {
			re := refreshed.Entries[l]
			if !reflect.DeepEqual(fe.TopK, re.TopK) {
				t.Errorf("TopK=%d length %d: neighbor lists differ", topK, l)
			}
			if fe.STHalf != re.STHalf || fe.STFinal != re.STFinal {
				t.Errorf("TopK=%d length %d: thresholds differ", topK, l)
			}
		}
	}
}

// FuzzSparseRefresh drives the sparse representation through arbitrary
// retention widths and ragged append streams: after every maintained step
// the refreshed base must be bit-identical to a fresh derivation at the
// same width, and its derived scan state must match the dense-equivalent
// layout (the exactness claim, fuzzed).
func FuzzSparseRefresh(f *testing.F) {
	f.Add(int64(1), int8(0), []byte{3, 0, 7})
	f.Add(int64(2), int8(1), []byte{1, 1, 1, 1})
	f.Add(int64(3), int8(-1), []byte{9, 250, 4})
	f.Add(int64(4), int8(5), []byte{})
	f.Add(int64(5), int8(127), []byte{128, 2, 64, 33})

	f.Fuzz(func(t *testing.T, seed int64, topK int8, ops []byte) {
		if len(ops) > 12 {
			ops = ops[:12]
		}
		opts := Options{TopK: int(topK)}
		r := rand.New(rand.NewSource(seed))
		d := ts.NewDataset("fz", nil)
		nSeries := 3 + int(seed%3+3)%3
		for s := 0; s < nSeries; s++ {
			v := make([]float64, 10+r.Intn(6))
			x := r.Float64()
			for j := range v {
				x += r.NormFloat64() * 0.3
				v[j] = x
			}
			d.Append("s", v)
		}
		lengths := []int{4, 7}
		cfg := grouping.Config{ST: 0.5, Lengths: lengths, Seed: seed}
		gr, err := grouping.Build(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, err := New(d, gr, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			oldLens := make([]int, d.N())
			for j, s := range d.Series {
				oldLens[j] = s.Len()
			}
			sid := int(op) % d.N()
			pts := make([]float64, 1+int(op)%4) // ragged batches
			x := r.Float64()
			for j := range pts {
				x += r.NormFloat64() * 0.2
				pts[j] = x
			}
			if err := d.AppendPoints(sid, pts); err != nil {
				t.Fatalf("op %d append: %v", i, err)
			}
			next, delta, err := grouping.AppendPoints(d, gr, oldLens, grouping.Config{ST: 0.5, Seed: seed})
			if err != nil {
				t.Fatalf("op %d grouping: %v", i, err)
			}
			refreshed, err := Refresh(d, next, opts, base, delta)
			if err != nil {
				t.Fatalf("op %d refresh: %v", i, err)
			}
			fresh, err := New(d, next, opts)
			if err != nil {
				t.Fatalf("op %d fresh: %v", i, err)
			}
			dense, err := New(d, next, Options{TopK: -1})
			if err != nil {
				t.Fatalf("op %d dense: %v", i, err)
			}
			for _, l := range lengths {
				fe, re, de := fresh.Entry(l), refreshed.Entry(l), dense.Entry(l)
				if !reflect.DeepEqual(fe.TopK, re.TopK) ||
					fe.STHalf != re.STHalf || fe.STFinal != re.STFinal {
					t.Fatalf("op %d length %d: refresh diverges from fresh derivation", i, l)
				}
				if fe.STHalf != de.STHalf || fe.STFinal != de.STFinal {
					t.Fatalf("op %d length %d: sparse derived state diverges from dense", i, l)
				}
				for k, nbs := range fe.TopK {
					for _, nb := range nbs {
						if math.IsNaN(nb.D) || nb.D < 0 || nb.To < 0 || nb.To >= len(fe.Groups) || nb.To == k {
							t.Fatalf("op %d length %d: malformed neighbor %+v in row %d", i, l, nb, k)
						}
					}
				}
			}
			gr, base = next, refreshed
		}
	})
}
