package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"onex/internal/core"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// TestRecommendExactAcrossShards is the regression test for the sharded
// guidance surface. Before the fix, the critical values on a
// sharded layout aggregated the per-shard SP-Spaces (maximum over shards of
// each shard's restricted merge structure) — a different quantity than the
// global grouping's critical values, so the guidance ranges changed with
// the shard count. The fix computes them from the ONE global grouping
// (grouping.MergeThresholdsFor).
//
// The test (a) recomputes the old per-shard aggregation and demands it
// actually differs from the global values on this fixture — proving the
// test would have failed before the fix and guarding its power — and then
// (b) demands the engine's surface is bit-identical to the unsharded one.
func TestRecommendExactAcrossShards(t *testing.T) {
	lengths := []int{8, 12, 16}
	const st = 0.35
	r := rand.New(rand.NewSource(9341))
	d := randomDataset(r, 18, 32)
	cfg := core.BuildConfig{ST: st, Lengths: lengths, Seed: 1}

	one, err := Build(d, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (a) The pre-fix aggregation: per-length maxima over the shards'
	// restricted merge structures. It must differ from the exact global
	// values for at least one (length, shard count) on this fixture, or the
	// fixture has lost its discriminating power.
	aggregateDiverges := false

	for _, shards := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			sharded, err := Build(d, cfg, shards, nil)
			if err != nil {
				t.Fatal(err)
			}

			for _, l := range lengths {
				var aggHalf float64
				for _, p := range sharded.parts {
					// A shard's restricted groups share the global
					// representatives, all the merge structure reads.
					if gids, ok := p.globalIDs[l]; ok {
						groups := make([]*grouping.Group, len(gids))
						for i, gid := range gids {
							groups[i] = sharded.grouped.ByLength[l].Groups[gid]
						}
						half, _ := grouping.MergeThresholdsFor(groups, l, st)
						aggHalf = math.Max(aggHalf, half)
					}
				}
				exactHalf, _, err := one.CriticalValues(l)
				if err != nil {
					t.Fatal(err)
				}
				if aggHalf != exactHalf {
					aggregateDiverges = true
				}
			}

			// (b) The fixed surface is bit-identical to the unsharded engine.
			sh, sf := globalThresholds(t, sharded)
			oh, of := globalThresholds(t, one)
			if sh != oh || sf != of {
				t.Fatalf("critical values diverged: sharded (%v,%v) vs one (%v,%v)", sh, sf, oh, of)
			}
			for _, length := range lengths {
				ah, af, aerr := one.CriticalValues(length)
				bh, bf, berr := sharded.CriticalValues(length)
				if aerr != nil || berr != nil {
					t.Fatalf("CriticalValues(%d) errored: %v / %v", length, aerr, berr)
				}
				if ah != bh || af != bf {
					t.Fatalf("CriticalValues(%d) diverged: (%v,%v) vs (%v,%v)", length, bh, bf, ah, af)
				}
			}
			// Unindexed lengths error on both layouts.
			if _, _, err := sharded.CriticalValues(lengths[0] + 1); err == nil {
				t.Fatal("CriticalValues on an unindexed length should error")
			}
		})
	}
	if !aggregateDiverges {
		t.Fatal("fixture too weak: the per-shard aggregate coincides with the global critical values at every (length, shard count) — the pre-fix bug would not be caught")
	}
}

// TestDegreeOfPopulatedThresholds locks the structural fix for the old
// error-swallowing DegreeOf: the classification (onex.Base.DegreeOf) reads
// the dataset-global critical values, which every assembled engine holds by
// construction, so a sharded engine must report the unsharded one's — in
// particular non-zero ones: against zero thresholds, which the old code
// silently used whenever the discarded lookup failed, every threshold
// classified Loose.
func TestDegreeOfPopulatedThresholds(t *testing.T) {
	lengths := []int{8, 12}
	const st = 0.35
	r := rand.New(rand.NewSource(4519))
	d := randomDataset(r, 14, 30)
	cfg := core.BuildConfig{ST: st, Lengths: lengths, Seed: 2}

	one, err := Build(d, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(d, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	half, final := globalThresholds(t, sharded)
	if half <= 0 || final < half {
		t.Fatalf("critical values not populated: half=%v final=%v", half, final)
	}
	if oh, of := globalThresholds(t, one); oh != half || of != final {
		t.Fatalf("global critical values diverged: one (%v,%v) vs sharded (%v,%v)", oh, of, half, final)
	}
}

// TestRecommendExactAfterMaintenance: after Append and Extend steps, at one
// shard and at three, the critical values of every indexed length and −1
// are bit-identical to a from-scratch derivation over the
// final data and grouping (a Save/Load round trip re-runs assemble without
// a predecessor). The steps include extensions too short to touch some or
// all lengths, so the rule reusing the previous engine's thresholds for
// untouched lengths is exercised on both layouts.
func TestRecommendExactAfterMaintenance(t *testing.T) {
	lengths := []int{8, 12, 16}
	r := rand.New(rand.NewSource(3307))
	d := randomDataset(r, 12, 28)
	cfg := core.BuildConfig{ST: 0.35, Lengths: lengths, Seed: 4, RebuildDrift: -1}
	walk := func(n int) []float64 {
		v := make([]float64, n)
		x := r.Float64() * 10
		for j := range v {
			x += r.NormFloat64()
			v[j] = x
		}
		return v
	}
	for _, shards := range []int{1, 3} {
		e, err := Build(d, cfg, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 5; step++ {
			switch step {
			case 0, 3:
				e, err = e.Append(r.Intn(e.NumSeries()), walk(4))
			case 1: // shorter than every length: nothing touched
				e, err = e.Extend([]*ts.Series{{Label: "short", Values: walk(5)}})
			case 2: // touches length 8 only
				e, err = e.Extend([]*ts.Series{{Label: "mid", Values: walk(9)}})
			default:
				e, err = e.Extend([]*ts.Series{{Label: "long", Values: walk(30)}})
			}
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatal(err)
			}
			fresh, err := Load(&buf, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, length := range append([]int{-1}, lengths...) {
				gh, gf, gerr := e.CriticalValues(length)
				wh, wf, werr := fresh.CriticalValues(length)
				if gerr != nil || werr != nil {
					t.Fatalf("shards %d step %d: CriticalValues(%d) errored: %v / %v", shards, step, length, gerr, werr)
				}
				if math.Float64bits(gh) != math.Float64bits(wh) || math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("shards %d step %d: CriticalValues(%d) = (%v,%v), from scratch (%v,%v)",
						shards, step, length, gh, gf, wh, wf)
				}
			}
		}
	}
}

// TestGlobalThresholdsAreMaxima: the dataset-wide critical values are the
// maxima of the per-length ones, and those are MergeThresholdsFor over the
// global grouping.
func TestGlobalThresholdsAreMaxima(t *testing.T) {
	e, err := build(fixture(t), core.BuildConfig{ST: 0.2, Lengths: []int{4, 8, 12}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var wantHalf, wantFinal float64
	for _, l := range e.Lengths() {
		half, final := grouping.MergeThresholdsFor(e.grouped.ByLength[l].Groups, l, e.ST())
		if h, f, err := e.CriticalValues(l); err != nil || h != half || f != final {
			t.Errorf("length %d: CriticalValues = (%v,%v) %v, want (%v,%v)", l, h, f, err, half, final)
		}
		wantHalf = math.Max(wantHalf, half)
		wantFinal = math.Max(wantFinal, final)
	}
	if half, final := globalThresholds(t, e); half != wantHalf || final != wantFinal {
		t.Errorf("global = %v,%v want %v,%v", half, final, wantHalf, wantFinal)
	}
}

// TestDegreeAndRecommend: the values the S/M/L scale reads
// (onex.Base.RecommendThreshold, DegreeOf) — a length's own, the global
// maxima for −1, and an error for an unindexed length.
func TestDegreeAndRecommend(t *testing.T) {
	e, err := build(fixture(t), core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h6, f6 := grouping.MergeThresholdsFor(e.grouped.ByLength[6].Groups, 6, e.ST())
	if half, final := globalThresholds(t, e); half != h6 || final != f6 || half <= 0 || final < half {
		t.Errorf("CriticalValues(-1) = %v,%v, want the one length's %v,%v", half, final, h6, f6)
	}
	if half, final, err := e.CriticalValues(6); err != nil || half != h6 || final != f6 {
		t.Errorf("CriticalValues(6) = %v,%v,%v", half, final, err)
	}
	if _, _, err := e.CriticalValues(999); err == nil {
		t.Error("CriticalValues on unindexed length should fail")
	}
}

// globalThresholds reads the dataset-global critical values.
func globalThresholds(t testing.TB, e *Engine) (half, final float64) {
	t.Helper()
	half, final, err := e.CriticalValues(-1)
	if err != nil {
		t.Fatal(err)
	}
	return half, final
}
