package grouping

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"onex/internal/dataset"
	"onex/internal/ts"
)

// The golden digests pin the groupings Build, AppendPoints, Extend and
// Adapt produce on fixed fixtures. The constants were computed before the
// four assignment loops became one, so a refactor of the loop that moves
// one group, member, ID or (where pinned) one float bit fails here.
//
// goldenLengths holds one length with 40·113 = 4,520 positions, so
// chunkCount is 2 and the chunk merge runs, and one with 40·29 = 1,160,
// built in a single chunk.
var goldenLengths = []int{16, 100}

const (
	goldenST   = 0.2
	goldenSeed = 11

	goldenBuild       = 0x84ab93e9ac0f810a
	goldenAppend      = 0x9dc6ee8d9d76a4
	goldenExtend      = 0xbbf6f4c19f230502
	goldenSplit       = 0x5e6e7eda87dff257
	goldenSmoothSplit = 0xea136a4584c5f718
	goldenSmoothMerge = 0xd3e9747d9ec72a02
)

// goldenData is a noisy 40 × 128 TwoPattern dataset, min-max normalized.
func goldenData() *ts.Dataset {
	spec := dataset.TwoPattern
	spec.N = 40
	d := spec.Generate(5)
	if err := d.NormalizeMinMax(); err != nil {
		panic(err)
	}
	return d
}

// smoothData is a 40 × 96 ECG dataset, min-max normalized, built at
// lengths 12 and 60 into 21 and 45 groups: few enough that the merge
// cascade's repeated all-pairs pass stays fast.
func smoothData(t *testing.T) (*ts.Dataset, *Result) {
	t.Helper()
	spec := dataset.ECG
	spec.N = 40
	d := spec.Generate(5)
	if err := d.NormalizeMinMax(); err != nil {
		t.Fatal(err)
	}
	res, err := Build(d, Config{ST: goldenST, Lengths: []int{12, 60}, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// digester folds integers and float bits into an FNV-1a hash.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{fnv.New64a()} }

func (g *digester) int(v int) { g.uint(uint64(int64(v))) }

func (g *digester) float(v float64) { g.uint(math.Float64bits(v)) }

func (g *digester) uint(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	g.h.Write(b[:])
}

// result digests every length's groups in order: ID, member (series,
// start) order and, when bits is set, Rep and EDToRep bits and the counts.
func (g *digester) result(r *Result, bits bool) {
	g.int(len(r.Lengths))
	for _, l := range r.Lengths {
		lg := r.ByLength[l]
		g.int(l)
		g.int(len(lg.Groups))
		for _, gr := range lg.Groups {
			g.int(gr.ID)
			g.int(gr.Length)
			g.int(len(gr.Members))
			for _, m := range gr.Members {
				g.int(m.SeriesIdx)
				g.int(m.Start)
				if bits {
					g.float(m.EDToRep)
				}
			}
			if bits {
				for _, v := range gr.Rep {
					g.float(v)
				}
			}
		}
	}
	if bits {
		g.uint(math.Float64bits(r.ST))
		g.int(int(r.TotalSubseq))
		g.int(int(r.IncrementalMembers))
	}
}

// delta digests a maintenance Delta, lengths ascending.
func (g *digester) delta(dl *Delta) {
	lengths := make([]int, 0, len(dl.PrevGroups))
	for l := range dl.PrevGroups {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	for _, l := range lengths {
		g.int(l)
		g.int(dl.PrevGroups[l])
		g.int(len(dl.Touched[l]))
		for _, gi := range dl.Touched[l] {
			g.int(gi)
		}
	}
}

func goldenBuildOf(t *testing.T, d *ts.Dataset, workers int) *Result {
	t.Helper()
	res, err := Build(d, Config{ST: goldenST, Lengths: goldenLengths, Seed: goldenSeed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkDigest(t *testing.T, what string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s digest = %#x, want %#x", what, got, want)
	}
}

func TestGoldenBuild(t *testing.T) {
	d := goldenData()
	if n := 40 * (128 - goldenLengths[0] + 1); chunkCount(n) < 2 {
		t.Fatalf("fixture has %d positions at length %d: one chunk, the merge never runs", n, goldenLengths[0])
	}
	for _, workers := range []int{1, 4} {
		g := newDigester()
		g.result(goldenBuildOf(t, d, workers), true)
		checkDigest(t, "Build", g.h.Sum64(), goldenBuild)
	}
}

// goldenGrow appends 5 points to series 0 and 2 to series 3 of the golden
// dataset and returns the lengths they had before.
func goldenGrow(d *ts.Dataset) []int {
	oldLens := make([]int, d.N())
	for i, s := range d.Series {
		oldLens[i] = s.Len()
	}
	for _, grow := range [][2]int{{0, 5}, {3, 2}} {
		i, src := grow[0], d.Series[grow[0]].Values
		for j := 0; j < grow[1]; j++ {
			d.Series[i].AppendPoints(src[(7*j+i)%len(src)])
		}
	}
	return oldLens
}

// goldenExtendFrom is the first series TestGoldenExtend adds; goldenPartial
// is the golden dataset before it.
const goldenExtendFrom = 34

func goldenPartial(full *ts.Dataset) *ts.Dataset {
	partial := &ts.Dataset{Name: full.Name}
	for _, s := range full.Series[:goldenExtendFrom] {
		partial.Append(s.Label, s.Values)
	}
	return partial
}

func TestGoldenAppendPoints(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d := goldenData()
		prev := goldenBuildOf(t, d, 1)
		oldLens := goldenGrow(d)
		next, delta, err := AppendPoints(d, prev, oldLens, Config{ST: goldenST, Seed: goldenSeed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		g := newDigester()
		g.result(next, true)
		g.delta(delta)
		checkDigest(t, "AppendPoints", g.h.Sum64(), goldenAppend)
	}
}

func TestGoldenExtend(t *testing.T) {
	full := goldenData()
	prev := goldenBuildOf(t, goldenPartial(full), 1)
	for _, workers := range []int{1, 4} {
		next, delta, err := Extend(full, prev, goldenExtendFrom, Config{ST: goldenST, Seed: goldenSeed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		g := newDigester()
		g.result(next, true)
		g.delta(delta)
		checkDigest(t, "Extend", g.h.Sum64(), goldenExtend)
	}
}

// TestGoldenAdapt pins Adapt's partitions only: the split and merge
// averages may round differently from Build's, but no subsequence may move.
func TestGoldenAdapt(t *testing.T) {
	noisy := goldenData()
	smooth, smoothBase := smoothData(t)
	for _, c := range []struct {
		what    string
		d       *ts.Dataset
		prev    *Result
		stPrime float64
		want    uint64
	}{
		{"noisy split at ST/2", noisy, goldenBuildOf(t, noisy, 1), goldenST / 2, goldenSplit},
		{"smooth split at ST/2", smooth, smoothBase, goldenST / 2, goldenSmoothSplit},
		{"smooth merge at 2·ST", smooth, smoothBase, goldenST * 2, goldenSmoothMerge},
	} {
		adapted, err := Adapt(c.d, c.prev, c.stPrime)
		if err != nil {
			t.Fatal(err)
		}
		g := newDigester()
		g.result(adapted, false)
		checkDigest(t, c.what, g.h.Sum64(), c.want)
	}
}
