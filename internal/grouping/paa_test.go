package grouping

import (
	"math"
	"math/rand"
	"testing"

	"onex/internal/dist"
)

// parentNearest is nearest as it was before the PAA filter, frozen: every
// group's squared ED in id order under the running cutoff. nearest must
// return its index and the bits of its squared ED on every input.
func parentNearest(groups []*Group, values []float64, radiusSq float64) (int, float64) {
	bestSq := math.Inf(1)
	bestIdx := -1
	for gi, g := range groups {
		if sq := dist.SquaredEDEarlyAbandon(values, g.Rep, min(radiusSq, bestSq)); sq < bestSq {
			bestSq, bestIdx = sq, gi
		}
	}
	if bestSq > radiusSq {
		return -1, bestSq
	}
	return bestIdx, bestSq
}

// tableFor is the PAA table assign would hold for groups[base:].
func tableFor(groups []*Group, length, base int) *paaTable {
	t := newPAATable(length, base)
	for gi := base; gi < len(groups); gi++ {
		t.set(gi, groups[gi].Rep)
	}
	return t
}

// nearestCase is one adversarial input of nearest: a query window and
// representatives around it, at scale·pattern + offset.
type nearestCase struct {
	groups   []*Group
	values   []float64
	radiusSq float64
	base     int
}

// newNearestCase draws representatives of six kinds: fresh windows,
// duplicates of an earlier representative (exact ties), the query itself
// (a tie at 0), the query shifted by a tiny constant per PAA segment (where
// the bound is nearly the ED), the query moved by one ulp per point, and the
// query with moderate noise. The radius is one candidate's squared ED,
// one ulp either side of it, or a random one. nanQuery and nanRep plant a
// NaN in the query or in one representative.
func newNearestCase(rng *rand.Rand, length int, scale, offset float64, nanQuery, nanRep bool) nearestCase {
	at := func(p float64) float64 { return float64(scale*p) + offset }
	values := make([]float64, length)
	for i := range values {
		values[i] = at(rng.NormFloat64())
	}
	g := 1 + rng.Intn(40)
	groups := make([]*Group, g)
	for gi := range groups {
		rep := make([]float64, length)
		switch kind := rng.Intn(6); {
		case kind == 1 && gi > 0:
			copy(rep, groups[rng.Intn(gi)].Rep)
		case kind == 2:
			copy(rep, values)
		case kind == 3:
			shift := make([]float64, paaSegs)
			for k := range shift {
				shift[k] = float64(float64(scale*1e-9) * rng.NormFloat64())
			}
			for i, v := range values {
				rep[i] = v + shift[i*paaSegs/length]
			}
		case kind == 4:
			for i, v := range values {
				rep[i] = math.Nextafter(v, math.Copysign(math.Inf(1), rng.NormFloat64()))
			}
		case kind == 5:
			for i, v := range values {
				rep[i] = v + float64(float64(scale*0.05)*rng.NormFloat64())
			}
		default:
			for i := range rep {
				rep[i] = at(rng.NormFloat64())
			}
		}
		groups[gi] = &Group{Length: length, ID: gi, Rep: rep}
	}
	if nanRep {
		groups[rng.Intn(g)].Rep[rng.Intn(length)] = math.NaN()
	}
	if nanQuery {
		values[rng.Intn(length)] = math.NaN()
	}
	sq := dist.SquaredEDEarlyAbandon(values, groups[rng.Intn(g)].Rep, math.Inf(1))
	var radiusSq float64
	switch mode := rng.Intn(4); {
	case math.IsNaN(sq) || mode == 3:
		radiusSq = float64(float64(scale*scale)*float64(length)) * 0.1 * rng.Float64()
	case mode == 1:
		radiusSq = math.Nextafter(sq, 0)
	case mode == 2:
		radiusSq = math.Nextafter(sq, math.Inf(1))
	default:
		radiusSq = sq
	}
	return nearestCase{groups: groups, values: values, radiusSq: radiusSq, base: rng.Intn(g + 1)}
}

// check requires nearest, with a table over groups[base:], to return the
// parent's index and squared-ED bits.
func (c nearestCase) check(t testing.TB, what string) {
	t.Helper()
	length := len(c.values)
	wantIdx, wantSq := parentNearest(c.groups, c.values, c.radiusSq)
	gotIdx, gotSq := nearest(c.groups, c.values, c.radiusSq, tableFor(c.groups, length, c.base))
	if gotIdx != wantIdx || math.Float64bits(gotSq) != math.Float64bits(wantSq) {
		t.Fatalf("%s (L=%d, g=%d, base=%d, radiusSq=%v): nearest (%d, %v), parent (%d, %v)",
			what, length, len(c.groups), c.base, c.radiusSq, gotIdx, gotSq, wantIdx, wantSq)
	}
}

// nearestScales are the (scale, offset) pairs of the bit-identity tests:
// unit data, 10⁶ and 10⁻⁶ scales, and a 10⁶ offset under both.
var nearestScales = [][2]float64{{1, 0}, {1e6, 0}, {1e-6, 0}, {1, 1e6}, {1e-6, 1e6}, {1e6, -1e6}, {1e-6, 1e-6}}

func TestNearestMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Lengths below the filter's floor, at it, not multiples of 8, and long.
	for _, length := range []int{2, 7, 8, paaMinLength - 1, paaMinLength, paaMinLength + 1, 23, 31, 33, 64, 100, 127} {
		for _, so := range nearestScales {
			for trial := 0; trial < 60; trial++ {
				nan := trial % 10
				c := newNearestCase(rng, length, so[0], so[1], nan == 7, nan == 8)
				c.check(t, "random case")
			}
		}
	}
}

// TestNearestFindsNearTwinUnderOffset pins the case a margin that ignores
// magnitude gets wrong: at an offset of 10⁶ the query's near-twin is 10⁻⁹
// away, less than the rounding error of the segment sums, and the radius
// is exactly its squared ED.
func TestNearestFindsNearTwinUnderOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, length := range []int{paaMinLength, 37, 128} {
		values := make([]float64, length)
		far := make([]float64, length)
		twin := make([]float64, length)
		for i := range values {
			values[i] = 1e6 + rng.NormFloat64()
			far[i] = 1e6 + rng.NormFloat64()
			twin[i] = values[i] + 1e-9
		}
		groups := []*Group{{Rep: far}, {Rep: twin}, {Rep: append([]float64(nil), twin...)}}
		radiusSq := dist.SquaredEDEarlyAbandon(values, twin, math.Inf(1))
		c := nearestCase{groups: groups, values: values, radiusSq: radiusSq}
		c.check(t, "near twin")
		if gi, _ := nearest(groups, values, radiusSq, tableFor(groups, length, 0)); gi != 1 {
			t.Fatalf("L=%d: near twin not found (got %d)", length, gi)
		}
	}
}

func FuzzNearest(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(0))
	f.Add(int64(2), uint8(17), uint8(3), uint8(1))
	f.Add(int64(3), uint8(128), uint8(4), uint8(2))
	f.Add(int64(4), uint8(5), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, length, scaleIdx, nan uint8) {
		rng := rand.New(rand.NewSource(seed))
		so := nearestScales[int(scaleIdx)%len(nearestScales)]
		c := newNearestCase(rng, 2+int(length), so[0], so[1], nan%4 == 1, nan%4 == 2)
		c.check(t, "fuzz case")
	})
}

// TestPAABoundAdmissible checks the filter's margin directly: on pairs
// built to make the computed bound exceed the computed squared ED (large
// offsets, ulp-sized or segment-constant differences, subnormal and huge
// values), a row is never skipped at a cutoff equal to the pair's own
// computed squared ED, the cutoff at which SquaredEDEarlyAbandon keeps it.
func TestPAABoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	offsets := []float64{0, 1, -1e6, 1e6, 1e12, 1e150}
	scales := []float64{1, 1e-6, 1e6, 1e-300, 1e-310}
	for _, length := range []int{paaMinLength, 17, 31, 64, 128, 1000} {
		for _, offset := range offsets {
			for _, scale := range scales {
				for kind := 0; kind < 4; kind++ {
					for trial := 0; trial < 20; trial++ {
						x, y := admissiblePair(rng, length, scale, offset, kind)
						s := dist.SquaredEDEarlyAbandon(x, y, math.Inf(1))
						tab := newPAATable(length, 0)
						tab.set(0, y)
						var q paaRow
						mag := tab.summarize(&q, x) + tab.mag
						if thr := tab.cutoff(math.Sqrt(s), mag); tab.next(&q, 0, 1, thr) != 0 {
							t.Fatalf("L=%d offset=%g scale=%g kind=%d: bound above T=%v at the pair's own squared ED %v",
								length, offset, scale, kind, thr, s)
						}
					}
				}
			}
		}
	}
}

// admissiblePair returns x and a y close to it: kind 0 moves each point by
// one ulp, kind 1 shifts each PAA segment by one constant (Cauchy–Schwarz
// is tight), kind 2 adds noise at scale·10⁻⁸, kind 3 draws y afresh.
func admissiblePair(rng *rand.Rand, length int, scale, offset float64, kind int) (x, y []float64) {
	x = make([]float64, length)
	y = make([]float64, length)
	shift := make([]float64, paaSegs)
	for k := range shift {
		shift[k] = float64(float64(scale*1e-8) * rng.NormFloat64())
	}
	for i := range x {
		x[i] = float64(scale*rng.NormFloat64()) + offset
		switch kind {
		case 0:
			y[i] = math.Nextafter(x[i], math.Copysign(math.Inf(1), rng.NormFloat64()))
		case 1:
			y[i] = x[i] + shift[i*paaSegs/length]
		case 2:
			y[i] = x[i] + float64(float64(scale*1e-8)*rng.NormFloat64())
		default:
			y[i] = float64(scale*rng.NormFloat64()) + offset
		}
	}
	return x, y
}

// mergeThresholds is the critical values over an arbitrary edge oracle
// at(k,l): Prim's algorithm in O(g) memory and at most g²/2 oracle calls.
// The SP-Space tests drive it with literal matrices.
func mergeThresholds(g int, at func(k, l int) float64, st float64) (half, final float64) {
	return criticalValues(mstWeights(g, func(k, l int, _ float64) float64 { return at(k, l) }), st)
}

// TestMergeThresholdsForMatchesPlainOracle pins the Prim row's PAA skip and
// early abandon to the plain oracle, dist.ED(rep k, rep l)/√L, bit for bit:
// on the golden data's groups at lengths below, at and above the filter's
// floor, and on the same representatives scaled, offset and duplicated.
func TestMergeThresholdsForMatchesPlainOracle(t *testing.T) {
	d := goldenData()
	res, err := Build(d, Config{ST: goldenST, Lengths: []int{8, paaMinLength, 45, 100}, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Lengths {
		for _, so := range nearestScales {
			var groups []*Group
			for gi, g := range res.ByLength[l].Groups {
				rep := make([]float64, l)
				for i, v := range g.Rep {
					rep[i] = float64(so[0]*v) + so[1]
				}
				groups = append(groups, &Group{Length: l, ID: gi, Rep: rep})
				if gi%7 == 0 {
					groups = append(groups, &Group{Length: l, Rep: append([]float64(nil), rep...)})
				}
			}
			invSqrtL := 1 / math.Sqrt(float64(l))
			st := float64(goldenST * so[0])
			wantH, wantF := mergeThresholds(len(groups), func(k, m int) float64 {
				return dist.ED(groups[k].Rep, groups[m].Rep) * invSqrtL
			}, st)
			gotH, gotF := MergeThresholdsFor(groups, l, st)
			if math.Float64bits(gotH) != math.Float64bits(wantH) || math.Float64bits(gotF) != math.Float64bits(wantF) {
				t.Fatalf("L=%d scale=%g offset=%g: MergeThresholdsFor (%v, %v), plain oracle (%v, %v)",
					l, so[0], so[1], gotH, gotF, wantH, wantF)
			}
		}
	}
}
