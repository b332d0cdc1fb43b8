package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"onex/internal/core"
	"onex/internal/grouping"
	"onex/internal/rspace"
	"onex/internal/ts"
)

// TestRecommendExactAcrossShards is the regression test for the sharded
// guidance surface. Before the fix, Recommend/DegreeOf on a
// sharded layout aggregated the per-shard SP-Spaces (maximum over shards of
// each shard's restricted merge structure) — a different quantity than the
// global grouping's critical values, so the guidance ranges changed with
// the shard count. The fix computes them from the ONE global grouping
// (rspace.MergeThresholdsFor).
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
						half, _ := rspace.MergeThresholdsFor(groups, l, st)
						aggHalf = math.Max(aggHalf, half)
					}
				}
				_, exactHalf, err := one.Recommend(rspace.Strict, l)
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
			for _, length := range append([]int{-1}, lengths...) {
				for _, deg := range []rspace.Degree{rspace.Strict, rspace.Medium, rspace.Loose} {
					alo, ahi, aerr := one.Recommend(deg, length)
					blo, bhi, berr := sharded.Recommend(deg, length)
					if aerr != nil || berr != nil {
						t.Fatalf("Recommend(%v,%d) errored: %v / %v", deg, length, aerr, berr)
					}
					if alo != blo || ahi != bhi {
						t.Fatalf("Recommend(%v,%d) diverged: [%v,%v] vs [%v,%v]",
							deg, length, blo, bhi, alo, ahi)
					}
				}
			}
			// Unindexed lengths error on both layouts.
			if _, _, err := sharded.Recommend(rspace.Strict, lengths[0]+1); err == nil {
				t.Fatal("Recommend on an unindexed length should error")
			}
			if _, _, err := sharded.Recommend(rspace.Degree(99), -1); err == nil {
				t.Fatal("Recommend with an unknown degree should error")
			}
		})
	}
	if !aggregateDiverges {
		t.Fatal("fixture too weak: the per-shard aggregate coincides with the global critical values at every (length, shard count) — the pre-fix bug would not be caught")
	}
}

// TestDegreeOfPopulatedThresholds locks the structural fix for the old
// error-swallowing DegreeOf: the classification now reads critical values
// that every assembled engine holds by construction, so a sharded engine
// must classify exactly like the unsharded one — in particular a tiny
// threshold is Strict, which the old code silently turned into a
// classification against zero thresholds (everything Loose) whenever the
// discarded lookup failed.
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
	if got := sharded.DegreeOf(1e-9); got != rspace.Strict {
		t.Fatalf("DegreeOf(1e-9) = %v, want Strict — thresholds unpopulated?", got)
	}
	probes := []float64{0, 1e-9, st / 2, half, half * 1.000001, final, final * 2}
	for _, p := range probes {
		if a, b := one.DegreeOf(p), sharded.DegreeOf(p); a != b {
			t.Fatalf("DegreeOf(%v) diverged: one %v vs sharded %v", p, a, b)
		}
	}
}

// TestRecommendExactAfterMaintenance: after Append and Extend steps, at one
// shard and at three, every recommendation (each degree × every indexed
// length and −1) is bit-identical to a from-scratch derivation over the
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
				for _, deg := range []rspace.Degree{rspace.Strict, rspace.Medium, rspace.Loose} {
					glo, ghi, gerr := e.Recommend(deg, length)
					wlo, whi, werr := fresh.Recommend(deg, length)
					if gerr != nil || werr != nil {
						t.Fatalf("shards %d step %d: Recommend(%v,%d) errored: %v / %v", shards, step, deg, length, gerr, werr)
					}
					if math.Float64bits(glo) != math.Float64bits(wlo) || math.Float64bits(ghi) != math.Float64bits(whi) {
						t.Fatalf("shards %d step %d: Recommend(%v,%d) = [%v,%v], from scratch [%v,%v]",
							shards, step, deg, length, glo, ghi, wlo, whi)
					}
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
		half, final := rspace.MergeThresholdsFor(e.grouped.ByLength[l].Groups, l, e.ST())
		if h, f, err := e.Recommend(rspace.Medium, l); err != nil || h != half || f != final {
			t.Errorf("length %d: Medium = [%v,%v] %v, want [%v,%v]", l, h, f, err, half, final)
		}
		wantHalf = math.Max(wantHalf, half)
		wantFinal = math.Max(wantFinal, final)
	}
	if half, final := globalThresholds(t, e); half != wantHalf || final != wantFinal {
		t.Errorf("global = %v,%v want %v,%v", half, final, wantHalf, wantFinal)
	}
}

func TestDegreeAndRecommend(t *testing.T) {
	e, err := build(fixture(t), core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := e.DegreeOf(0); d != rspace.Strict {
		t.Errorf("DegreeOf(0) = %v, want S", d)
	}
	half, final := globalThresholds(t, e)
	if d := e.DegreeOf(final + 1); d != rspace.Loose {
		t.Errorf("DegreeOf(huge) = %v, want L", d)
	}
	lo, hi, err := e.Recommend(rspace.Strict, -1)
	if err != nil || lo != 0 || hi != half {
		t.Errorf("Recommend(S) = %v,%v,%v", lo, hi, err)
	}
	h6, f6 := rspace.MergeThresholdsFor(e.grouped.ByLength[6].Groups, 6, e.ST())
	lo, hi, err = e.Recommend(rspace.Medium, 6)
	if err != nil || lo != h6 || hi != f6 {
		t.Errorf("Recommend(M,6) = %v,%v,%v", lo, hi, err)
	}
	lo, hi, err = e.Recommend(rspace.Loose, -1)
	if err != nil || lo != final || !math.IsInf(hi, 1) {
		t.Errorf("Recommend(L) = %v,%v,%v", lo, hi, err)
	}
	if _, _, err := e.Recommend(rspace.Strict, 999); err == nil {
		t.Error("Recommend on unindexed length should fail")
	}
	if _, _, err := e.Recommend(rspace.Degree(42), -1); err == nil {
		t.Error("Recommend with bogus degree should fail")
	}
}

// globalThresholds reads the dataset-global critical values: Medium's range
// is [half, final].
func globalThresholds(t testing.TB, e *Engine) (half, final float64) {
	t.Helper()
	half, final, err := e.Recommend(rspace.Medium, -1)
	if err != nil {
		t.Fatal(err)
	}
	return half, final
}
