package grouping

import (
	"math/rand"
	"reflect"
	"testing"

	"onex/internal/ts"
)

// chunkedDataset is large enough that at least one length crosses the
// minChunkPositions threshold, forcing the sharded build + merge path.
func chunkedDataset(seed int64) *ts.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := &ts.Dataset{Name: "chunked"}
	for i := 0; i < 48; i++ {
		v := make([]float64, 120)
		phase := r.Float64() * 6
		for j := range v {
			v[j] = 0.5 + 0.3*float64(j%17)/17 + float64(0.1*r.NormFloat64()) + float64(0.2*phase)
		}
		d.Append("", v)
	}
	if err := d.NormalizeMinMax(); err != nil {
		panic(err)
	}
	return d
}

func TestChunkCount(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1},
		{1, 1},
		{minChunkPositions, 1},
		{2*minChunkPositions - 1, 1},
		{2 * minChunkPositions, 2},
		{5 * minChunkPositions, 5},
		{1000 * minChunkPositions, maxChunks},
	}
	for _, c := range cases {
		if got := chunkCount(c.n); got != c.want {
			t.Errorf("chunkCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestBuildIdenticalAcrossWorkerCounts is the core determinism guarantee of
// the sharded build: for a fixed seed the Result must be identical — same
// groups, same member order, same representatives bit for bit — no matter
// how many workers constructed it. The dataset is sized so the within-length
// chunk path is genuinely exercised (48 series × 120 points ⇒ ~5k positions
// per length > 2·minChunkPositions).
func TestBuildIdenticalAcrossWorkerCounts(t *testing.T) {
	d := chunkedDataset(7)
	lengths := []int{8, 16}
	cfg := Config{ST: 0.25, Lengths: lengths, Seed: 42, Workers: 1}
	want, err := Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the chunk path must actually be in play.
	if n := 48 * (120 - 8 + 1); chunkCount(n) < 2 {
		t.Fatalf("test dataset too small to chunk (%d positions)", n)
	}
	for _, workers := range []int{2, 3, 5, 8, 0} {
		cfg.Workers = workers
		got, err := Build(d, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: Result differs from workers=1 build", workers)
		}
	}
}

// TestBuildIdenticalAcrossWorkerCountsSmall covers the unchunked path too:
// small datasets must also be invariant (they run the identical sequential
// loop regardless of workers).
func TestBuildIdenticalAcrossWorkerCountsSmall(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := &ts.Dataset{Name: "small"}
	for i := 0; i < 6; i++ {
		v := make([]float64, 20)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		d.Append("", v)
	}
	cfg := Config{ST: 0.4, Lengths: []int{4, 7}, Seed: 11, Workers: 1}
	want, err := Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		got, err := Build(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: Result differs", workers)
		}
	}
}

// TestChunkedBuildKeepsInvariants re-asserts the Def. 7/8 structural
// invariants on a build that went through the chunk merge: partition (every
// subsequence in exactly one group), representative = point-wise member
// average, LSI sorted.
func TestChunkedBuildKeepsInvariants(t *testing.T) {
	d := chunkedDataset(9)
	res, err := Build(d, Config{ST: 0.3, Lengths: []int{10}, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	lg := res.ByLength[10]
	if len(lg.Groups) == 0 {
		t.Fatal("no groups")
	}
	seen := make(map[position]int)
	for _, g := range lg.Groups {
		if g.Count() == 0 {
			t.Fatal("empty group after merge")
		}
		avg := make([]float64, g.Length)
		for _, m := range g.Members {
			seen[position{m.SeriesIdx, m.Start}]++
			for i, v := range MemberValues(d, g, m) {
				avg[i] += v
			}
		}
		for i := range avg {
			avg[i] /= float64(g.Count())
			if diff := avg[i] - g.Rep[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("group %d rep[%d]=%v, want member average %v", g.ID, i, g.Rep[i], avg[i])
			}
		}
		for i := 1; i < g.Count(); i++ {
			if g.Members[i-1].EDToRep > g.Members[i].EDToRep {
				t.Fatalf("group %d LSI not sorted", g.ID)
			}
		}
	}
	want := 48 * (120 - 10 + 1)
	if len(seen) != want {
		t.Fatalf("%d distinct subsequences grouped, want %d", len(seen), want)
	}
	for pos, n := range seen {
		if n != 1 {
			t.Fatalf("subsequence %+v grouped %d times", pos, n)
		}
	}
	if res.TotalSubseq != int64(want) {
		t.Fatalf("TotalSubseq = %d, want %d", res.TotalSubseq, want)
	}
}
