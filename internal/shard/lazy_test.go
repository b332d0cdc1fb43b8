package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"onex/internal/core"
	"onex/internal/ts"
)

// lazyWalk is a random walk of n points.
func lazyWalk(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	x := r.Float64() * 10
	for j := range v {
		x += r.NormFloat64()
		v[j] = x
	}
	return v
}

// expectNoPasses fails when the SP-Space threshold pass count moved since
// before.
func expectNoPasses(t *testing.T, before int64, what string) {
	t.Helper()
	if got := ThresholdPasses() - before; got != 0 {
		t.Fatalf("%s computed %d threshold cells, want 0", what, got)
	}
}

// TestWritePathsComputeNoThresholds: Build, Save/Load, Append, Extend, a
// drift-triggered rebuild and WithThreshold each allocate their threshold
// cells and fill none, at one shard and at three.
func TestWritePathsComputeNoThresholds(t *testing.T) {
	lengths := []int{8, 12, 16}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			r := rand.New(rand.NewSource(5113))
			cfg := core.BuildConfig{ST: 0.35, Lengths: lengths, Seed: 2, RebuildDrift: -1}
			before := ThresholdPasses()
			e, err := Build(randomDataset(r, 12, 28), cfg, shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			expectNoPasses(t, before, "Build")
			if len(e.sp) != len(lengths) {
				t.Fatalf("%d cells for %d lengths", len(e.sp), len(lengths))
			}

			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf, 0, nil); err != nil {
				t.Fatal(err)
			}
			expectNoPasses(t, before, "Load")

			if e, err = e.Append(0, lazyWalk(r, 4)); err != nil {
				t.Fatal(err)
			}
			expectNoPasses(t, before, "Append")
			if e, err = e.Extend([]*ts.Series{{Label: "x", Values: lazyWalk(r, 30)}}); err != nil {
				t.Fatal(err)
			}
			expectNoPasses(t, before, "Extend")

			eager := cfg
			eager.RebuildDrift = 1e-9 // every append rebuilds
			d, err := Build(randomDataset(r, 12, 28), eager, shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := d.Append(1, lazyWalk(r, 4))
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt.Rebuilds() != 1 {
				t.Fatalf("Rebuilds = %d, want the drift rebuild", rebuilt.Rebuilds())
			}
			expectNoPasses(t, before, "a drift rebuild")

			if shards == 1 {
				if _, err := e.WithThreshold(cfg.ST * 2); err != nil {
					t.Fatal(err)
				}
				expectNoPasses(t, before, "WithThreshold")
			}
		})
	}
}

// TestThresholdCellSharing: a maintenance step shares the cells of the
// lengths it left untouched with the previous engine (their groups are
// value-identical), gives touched lengths fresh cells, and reading one
// length computes that length's cell and no other.
func TestThresholdCellSharing(t *testing.T) {
	lengths := []int{8, 12, 16}
	r := rand.New(rand.NewSource(7207))
	cfg := core.BuildConfig{ST: 0.35, Lengths: lengths, Seed: 5, RebuildDrift: -1}
	e, err := Build(randomDataset(r, 12, 28), cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A 9-point series has windows of length 8 only.
	next, err := e.Extend([]*ts.Series{{Label: "mid", Values: lazyWalk(r, 9)}})
	if err != nil {
		t.Fatal(err)
	}
	if next.sp[8] == e.sp[8] {
		t.Error("length 8 was touched but shares its cell")
	}
	for _, l := range []int{12, 16} {
		if next.sp[l] != e.sp[l] {
			t.Errorf("length %d was untouched but got a fresh cell", l)
		}
	}
	// After an append, whatever is shared must hold value-identical groups.
	grown, err := next.Append(2, lazyWalk(r, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lengths {
		if grown.sp[l] != next.sp[l] {
			continue
		}
		a, b := grown.grouped.ByLength[l].Groups, next.grouped.ByLength[l].Groups
		if len(a) != len(b) {
			t.Fatalf("length %d shares a cell across %d and %d groups", l, len(a), len(b))
		}
		for k := range a {
			if !reflect.DeepEqual(a[k].Rep, b[k].Rep) {
				t.Fatalf("length %d shares a cell across different representatives", l)
			}
		}
	}

	// One read, one cell: 12 is shared by e and next, 8 is not.
	p := ThresholdPasses()
	if _, _, err := next.CriticalValues(12); err != nil {
		t.Fatal(err)
	}
	if got := ThresholdPasses() - p; got != 1 {
		t.Fatalf("reading length 12 computed %d cells, want 1", got)
	}
	if _, _, err := e.CriticalValues(12); err != nil {
		t.Fatal(err)
	}
	if _, _, err := next.CriticalValues(12); err != nil {
		t.Fatal(err)
	}
	if got := ThresholdPasses() - p; got != 1 {
		t.Fatalf("re-reading the shared length 12 computed %d more cells", got-1)
	}
	// The global read fills next's remaining cells, 8 and 16; e then lacks
	// only its own length-8 cell.
	if _, _, err := next.CriticalValues(-1); err != nil {
		t.Fatal(err)
	}
	if got := ThresholdPasses() - p; got != 3 {
		t.Fatalf("global read: %d cells in all, want 3", got)
	}
	if _, _, err := e.CriticalValues(-1); err != nil {
		t.Fatal(err)
	}
	if got := ThresholdPasses() - p; got != 4 {
		t.Fatalf("global read on the parent: %d cells in all, want 4", got)
	}
}

// TestConcurrentFirstReadsShareCells (run it under -race): two maintenance
// generations sharing cells, plus their parent, take their first
// CriticalValues reads from many goroutines at once; every answer is
// bit-identical to a serial from-scratch derivation of its engine.
func TestConcurrentFirstReadsShareCells(t *testing.T) {
	lengths := []int{8, 12, 16}
	r := rand.New(rand.NewSource(9001))
	cfg := core.BuildConfig{ST: 0.35, Lengths: lengths, Seed: 3, RebuildDrift: -1, Parallelism: 2}
	e0, err := Build(randomDataset(r, 12, 28), cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := e0.Extend([]*ts.Series{{Label: "mid", Values: lazyWalk(r, 9)}})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e1.Append(1, lazyWalk(r, 2))
	if err != nil {
		t.Fatal(err)
	}
	if e1.sp[12] != e0.sp[12] || e1.sp[16] != e0.sp[16] {
		t.Fatal("the extension shares no cells: the test has lost its point")
	}
	engines := []*Engine{e0, e1, e2}
	reads := append([]int{-1}, lengths...)
	type answer struct{ half, final uint64 }
	got := make([][]answer, len(engines))
	for i := range got {
		got[i] = make([]answer, len(reads))
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, e := range engines {
			for j, l := range reads {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e.CriticalValues(-1)
					half, final, err := e.CriticalValues(l)
					if err != nil {
						t.Error(err)
						return
					}
					if round == 0 {
						got[i][j] = answer{math.Float64bits(half), math.Float64bits(final)}
					}
				}()
			}
		}
	}
	wg.Wait()
	for i, e := range engines {
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := Load(&buf, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j, l := range reads {
			half, final, err := fresh.CriticalValues(l)
			if err != nil {
				t.Fatal(err)
			}
			if want := (answer{math.Float64bits(half), math.Float64bits(final)}); got[i][j] != want {
				t.Errorf("engine %d length %d: concurrent %v, from scratch %v", i, l, got[i][j], want)
			}
		}
	}
}
