package hub

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"onex"
	"onex/internal/shard"
)

func sineSeries(phase float64, n int) onex.Series {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(i)/4 + phase)
	}
	return onex.Series{Values: v}
}

func readyDataset(t *testing.T, h *Hub, name string, spec Spec) *Dataset {
	t.Helper()
	ds, err := h.Register(name, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestStaleSnapshotAfterExtendRegression is the register → extend → drop →
// re-register regression: before the fix, materialize preferred the spec's
// original snapshot file over the hub's own (re-saved on every Extend), so
// the re-registered dataset silently reloaded the pre-extend base and lost
// series.
func TestStaleSnapshotAfterExtendRegression(t *testing.T) {
	// An externally-built snapshot, as a pipeline would produce.
	base, err := onex.Build("d", []onex.Series{
		sineSeries(0, 48), sineSeries(0.5, 48), sineSeries(1, 48),
	}, onex.Options{ST: 0.3, Lengths: []int{8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "ext.onex")
	if err := base.SaveFile(snap); err != nil {
		t.Fatal(err)
	}

	// Nested snapshot dir: also exercises the MkdirAll on re-snapshot (the
	// spec-snapshot load path never created the hub's own directory).
	dir := filepath.Join(t.TempDir(), "snaps", "nested")
	h := New(Config{SnapshotDir: dir})
	defer h.Close()
	spec := Spec{Snapshot: snap}
	ds := readyDataset(t, h, "d", spec)

	square := make([]float64, 48)
	for i := range square {
		if (i/8)%2 == 0 {
			square[i] = 1
		} else {
			square[i] = -1
		}
	}
	if err := ds.Extend([]onex.Series{sineSeries(2, 48), {Values: square}}); err != nil {
		t.Fatal(err)
	}
	if info := ds.Info(); info.SnapshotError != "" {
		t.Fatalf("re-snapshot after extend failed: %s", info.SnapshotError)
	}
	if err := h.Drop("d", false); err != nil {
		t.Fatal(err)
	}

	ds2 := readyDataset(t, h, "d", spec)
	b2, _, err := ds2.Base()
	if err != nil {
		t.Fatal(err)
	}
	if b2.NumSeries() != 5 {
		t.Fatalf("re-registered base has %d series, want 5 (stale pre-extend snapshot reloaded)", b2.NumSeries())
	}
	// A query with the extended series' distinctive shape must resolve to it.
	ms, err := ds2.Match(context.Background(), square[:16], onex.MatchExact, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].SeriesID != 4 {
		t.Errorf("square-wave query matched series %d, want the extended series 4", ms[0].SeriesID)
	}
}

// TestSnapshotReflectsAppend is the same staleness bar for the streaming
// path: points appended through the hub must survive Drop + re-register.
func TestSnapshotReflectsAppend(t *testing.T) {
	h := New(Config{SnapshotDir: t.TempDir()})
	defer h.Close()
	spec := Spec{
		Series: []onex.Series{sineSeries(0, 48), sineSeries(0.7, 48)},
		Opts:   onex.Options{ST: 0.3, Lengths: []int{8, 16}},
	}
	ds := readyDataset(t, h, "d", spec)
	genBefore := ds.Generation()
	if err := ds.Append(1, []float64{0.1, 0.2, 0.3, 0.4, 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := ds.Generation(); got != genBefore+1 {
		t.Errorf("generation %d after append, want %d", got, genBefore+1)
	}
	if info := ds.Info(); info.SnapshotError != "" {
		t.Fatalf("re-snapshot after append failed: %s", info.SnapshotError)
	}
	b, _, err := ds.Base()
	if err != nil {
		t.Fatal(err)
	}
	wantLen := b.Stats().Subsequences

	if err := h.Drop("d", false); err != nil {
		t.Fatal(err)
	}
	ds2 := readyDataset(t, h, "d", spec)
	b2, _, err := ds2.Base()
	if err != nil {
		t.Fatal(err)
	}
	if !ds2.Info().FromSnapshot {
		t.Error("re-register rebuilt instead of loading the snapshot")
	}
	if got := b2.Stats().Subsequences; got != wantLen {
		t.Errorf("reloaded base has %d subsequences, want %d (append lost)", got, wantLen)
	}
}

func TestHubAppendValidationAndCache(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	spec := Spec{
		Series: []onex.Series{sineSeries(0, 48), sineSeries(0.7, 48)},
		Opts:   onex.Options{ST: 0.3, Lengths: []int{8}},
	}
	ds := readyDataset(t, h, "d", spec)
	q := sineSeries(0, 48).Values[:8]
	if _, err := ds.Match(context.Background(), q, onex.MatchExact, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Match(context.Background(), q, onex.MatchExact, 1); err != nil {
		t.Fatal(err)
	}
	info := ds.Info()
	if info.CacheHits == 0 {
		t.Fatalf("expected a warm cache before append (hits=%d)", info.CacheHits)
	}
	if err := ds.Append(0, []float64{0.5, 0.6}); err != nil {
		t.Fatal(err)
	}
	// Appending invalidates this dataset's cached results: same query misses.
	misses := ds.Info().CacheMisses
	if _, err := ds.Match(context.Background(), q, onex.MatchExact, 1); err != nil {
		t.Fatal(err)
	}
	if got := ds.Info().CacheMisses; got != misses+1 {
		t.Errorf("expected a cache miss after append (misses %d → %d)", misses, got)
	}
	// Invalid appends surface errors without breaking the dataset.
	if err := ds.Append(99, []float64{1}); err == nil {
		t.Error("append to unknown series: want error")
	}
	if err := ds.Append(0, nil); err == nil {
		t.Error("append with no points: want error")
	}
	if _, err := ds.Match(context.Background(), q, onex.MatchExact, 1); err != nil {
		t.Fatalf("dataset broken after invalid appends: %v", err)
	}
}

// TestMaintenanceComputesNoThresholds: the write path — Append and Extend
// swaps, their snapshot re-writes, and the Info and Stats the HTTP write
// handlers reply with — never computes an SP-Space threshold. The first
// Recommend after the writes does, once per length they touched.
func TestMaintenanceComputesNoThresholds(t *testing.T) {
	h := New(Config{SnapshotDir: t.TempDir()})
	defer h.Close()
	ds := readyDataset(t, h, "d", Spec{
		Series: []onex.Series{sineSeries(0, 48), sineSeries(0.5, 48), sineSeries(1, 48)},
		Opts:   onex.Options{ST: 0.3, Lengths: []int{8, 16}},
	})
	before := shard.ThresholdPasses()
	if err := ds.Append(0, []float64{0.1, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Extend([]onex.Series{sineSeries(2, 48)}); err != nil {
		t.Fatal(err)
	}
	if info := ds.Info(); info.Generation != 2 || info.SnapshotError != "" {
		t.Fatalf("info after two writes: %+v", info)
	}
	h.Stats()
	if got := shard.ThresholdPasses() - before; got != 0 {
		t.Fatalf("writes computed %d threshold cells, want 0", got)
	}
	if _, err := ds.Recommend(onex.Medium, -1); err != nil {
		t.Fatal(err)
	}
	// The extension touched both lengths, so both cells are fresh.
	if got := shard.ThresholdPasses() - before; got != 2 {
		t.Fatalf("first Recommend computed %d cells, want 2", got)
	}
}
