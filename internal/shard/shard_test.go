package shard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"onex/internal/core"
	"onex/internal/query"
	"onex/internal/ts"
)

func TestShardOf(t *testing.T) {
	// Deterministic, in-range, and not degenerate.
	counts := make([]int, 8)
	for id := 0; id < 4096; id++ {
		s := ShardOf(id, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d, 8) = %d out of range", id, s)
		}
		if s != ShardOf(id, 8) {
			t.Fatalf("ShardOf(%d, 8) unstable", id)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 256 || c > 768 { // expect ~512 each; allow wide slack
			t.Errorf("shard %d holds %d of 4096 ids — hash is badly skewed", s, c)
		}
	}
	if ShardOf(42, 1) != 0 || ShardOf(42, 0) != 0 {
		t.Error("degenerate shard counts must route to 0")
	}
}

func TestBuildValidation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := randomDataset(r, 6, 24)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{6, 10}, Seed: 1}

	if _, err := Build(d, cfg, -1, nil); err == nil {
		t.Error("negative shard count: want error")
	}
	for _, shards := range []int{0, 1} {
		e, err := Build(d, cfg, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.ShardCount() != 1 {
			t.Errorf("Shards=%d: ShardCount = %d, want 1 (the one-shard layout)", shards, e.ShardCount())
		}
	}
	// Counts above the series count clamp to it.
	e, err := Build(d, cfg, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.ShardCount() != d.N() {
		t.Errorf("Shards=100 over %d series: ShardCount = %d, want %d", d.N(), e.ShardCount(), d.N())
	}
}

// TestRestrictionIntegrity checks the derived per-shard state against the
// global grouping — complete member coverage, preserved LSI order, and
// exactly-once group ownership — each part against the shard
// BuildLocalShard derives from its spec, and each spec against what its
// stream decodes to.
func TestRestrictionIntegrity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := randomDataset(r, 16, 30)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{6, 10, 14}, Seed: 2}
	e, err := Build(d, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	var resident int64
	for s, p := range e.parts {
		comparePartState(t, 0, s, p, specShard(t, e, s))
		resident += p.transport.Stats().Subsequences
		spec := e.specFor(s)
		// The stream a worker is shipped carries the spec whole: it decodes
		// to a deep-equal spec and re-encodes to the same bytes.
		var stream, again bytes.Buffer
		if err := core.EncodeShardSpec(&stream, spec); err != nil {
			t.Fatal(err)
		}
		shipped, err := core.DecodeShardSpec(bytes.NewReader(stream.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.EncodeShardSpec(&again, shipped); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shipped, spec) || !bytes.Equal(again.Bytes(), stream.Bytes()) {
			t.Fatalf("shard %d: the spec stream does not round-trip", s)
		}
		if len(spec.Lengths) != len(e.grouped.Lengths) {
			t.Fatalf("shard %d ships %d lengths, want %d", s, len(spec.Lengths), len(e.grouped.Lengths))
		}
		for _, sl := range spec.Lengths {
			l := sl.Length
			for k, g := range sl.Groups {
				if g.GlobalID != p.globalIDs[l][k] {
					t.Fatalf("length %d local group %d: global id %d, part maps %d", l, k, g.GlobalID, p.globalIDs[l][k])
				}
				global := e.grouped.ByLength[l].Groups[g.GlobalID]
				if &g.Rep[0] != &global.Rep[0] {
					t.Fatalf("length %d local group %d does not share the global representative", l, k)
				}
				for i := 1; i < len(g.Members); i++ {
					if g.Members[i-1].EDToRep > g.Members[i].EDToRep {
						t.Fatalf("length %d group %d: restricted member order not LSI-sorted", l, k)
					}
				}
				for _, m := range g.Members {
					if ShardOf(m.Series, e.shards) != s {
						t.Fatalf("length %d group %d holds foreign series %d", l, k, m.Series)
					}
				}
			}
		}
	}
	if resident != e.grouped.TotalSubseq {
		t.Errorf("resident subsequences %d != global %d", resident, e.grouped.TotalSubseq)
	}

	// Ownership: every global group owned exactly once, as the transports
	// report it to NewScatter.
	for _, l := range e.grouped.Lengths {
		owners := make([]int, len(e.grouped.ByLength[l].Groups))
		for _, p := range e.parts {
			for _, gid := range p.transport.Info().Owned[l] {
				owners[gid]++
			}
		}
		for k, c := range owners {
			if c != 1 {
				t.Errorf("length %d global group %d owned %d times", l, k, c)
			}
		}
	}
}

// TestEmptyShard forces a layout where some shard receives no series and
// checks the engine still builds and answers.
func TestEmptyShard(t *testing.T) {
	// Find a (series count, shard count) pair with an unoccupied shard.
	n, shards := -1, -1
search:
	for nn := 3; nn <= 8; nn++ {
		for ss := 2; ss <= nn; ss++ {
			occupied := make([]bool, ss)
			for id := 0; id < nn; id++ {
				occupied[ShardOf(id, ss)] = true
			}
			for _, occ := range occupied {
				if !occ {
					n, shards = nn, ss
					break search
				}
			}
		}
	}
	if n < 0 {
		t.Skip("hash occupies every shard for all tested layouts")
	}
	r := rand.New(rand.NewSource(3))
	d := randomDataset(r, n, 26)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{6, 10}, Seed: 1}
	e, err := Build(d, cfg, shards, nil)
	if err != nil {
		t.Fatalf("build with empty shard: %v", err)
	}
	one, err := Build(d, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := randomQueries(r, d, cfg.Lengths, 6)
	compareEngines(t, "empty-shard", one, e, queries, cfg.Lengths, cfg.ST)
}

func TestWithThresholdSharded(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := randomDataset(r, 8, 24)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{6, 10}, Seed: 1}
	one, err := Build(d, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.WithThreshold(0.5); err != nil {
		t.Errorf("one-shard WithThreshold: %v", err)
	}
	sharded, err := Build(d, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.WithThreshold(0.5); err == nil {
		t.Error("sharded WithThreshold: want refusal error")
	}
}

func TestLayoutSignature(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	d := randomDataset(r, 12, 24)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{6, 10}, Seed: 1}
	sigs := make(map[uint64]int)
	for _, shards := range []int{1, 2, 3, 4} {
		e, err := Build(d, cfg, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := sigs[e.LayoutSignature()]; dup {
			t.Errorf("layouts %d and %d share a signature", prev, shards)
		}
		sigs[e.LayoutSignature()] = shards
	}
	// Growing a shard's population changes the signature too.
	e, err := Build(d, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := e.Append(0, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.LayoutSignature() == grown.LayoutSignature() {
		t.Error("append did not change the layout signature")
	}
}

// TestPersistRoundTrip saves an engine and checks the reload answers
// identically and preserves the layout, at one shard and at several.
func TestPersistRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	d := randomDataset(r, 14, 28)
	lengths := []int{6, 10, 14}
	cfg := core.BuildConfig{ST: 0.3, Lengths: lengths, Seed: 4,
		Parallelism: 2}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			e, err := Build(d, cfg, shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Grow it first so drift survives the round trip too.
			e, err = e.Append(1, []float64{0.5, 0.6, 0.7, 0.65})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(buf.Bytes()), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.ShardCount() != e.ShardCount() {
				t.Fatalf("reloaded shard count %d, want %d", loaded.ShardCount(), e.ShardCount())
			}
			if loaded.Drift() != e.Drift() {
				t.Errorf("reloaded drift %v, want %v", loaded.Drift(), e.Drift())
			}
			queries := randomQueries(r, loaded.data, lengths, 8)
			compareEngines(t, "reload", e, loaded, queries, lengths, cfg.ST)
		})
	}
}

// TestRefreshPartBitIdentical proves maintenance reuses only what a fresh
// derivation would rebuild identically: after maintenance steps, every part
// of the engine — reused unaffected shards included — carries exactly the
// tables and index state BuildLocalShard derives from the final data's spec.
func TestRefreshPartBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	d := randomDataset(r, 14, 26)
	cfg := core.BuildConfig{ST: 0.35, Lengths: []int{6, 10}, Seed: 3, RebuildDrift: -1}
	e, err := Build(d, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for step := 0; step < 4; step++ {
		prev := e
		if step%2 == 0 {
			pts := make([]float64, 3+r.Intn(5))
			x := r.Float64()
			for j := range pts {
				x += r.NormFloat64() * 0.1
				pts[j] = x
			}
			if e, err = e.Append(r.Intn(e.NumSeries()), pts); err != nil {
				t.Fatal(err)
			}
		} else {
			v := make([]float64, 18+r.Intn(10))
			x := r.Float64() * 3
			for j := range v {
				x += r.NormFloat64() * 0.4
				v[j] = x
			}
			if e, err = e.Extend([]*ts.Series{{Label: "n", Values: v}}); err != nil {
				t.Fatal(err)
			}
		}
		for s, got := range e.parts {
			if got == prev.parts[s] {
				reused++
			}
			comparePartState(t, step, s, got, specShard(t, e, s))
		}
	}
	if reused == 0 {
		t.Fatal("no maintenance step reused an unaffected shard; the fixture guards nothing")
	}
}

// specShard builds shard s of e afresh from its spec: the part specPart
// derives, whose transport is BuildLocalShard over e.specFor(s).
func specShard(t *testing.T, e *Engine, s int) *part {
	t.Helper()
	p, err := e.specPart(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// comparePartState checks two derivations of the same shard hold identical
// tables and index state, as their transports report and answer them.
func comparePartState(t *testing.T, step, s int, got, want *part) {
	t.Helper()
	if !reflect.DeepEqual(got.transport.Info(), want.transport.Info()) || !reflect.DeepEqual(got.globalIDs, want.globalIDs) {
		t.Fatalf("step %d shard %d: translation tables diverged", step, s)
	}
	if got.transport.Stats() != want.transport.Stats() {
		t.Fatalf("step %d shard %d: index population diverged", step, s)
	}
	q := []float64{0.3, -1.2, 0.8, 1.5, -0.4, 0.1, 0.9}
	for l := range got.globalIDs {
		if !reflect.DeepEqual(partAnswers(t, got, q, l), partAnswers(t, want, q, l)) {
			t.Fatalf("step %d shard %d length %d: index state diverged", step, s, l)
		}
	}
}

// partAnswers is what a part answers for q at length l: the distance of
// every representative it owns (a fixed scan at an infinite cutoff) and of
// every window it holds (an exact range search at a radius no window
// exceeds), which pin its representatives, members and series values.
func partAnswers(t *testing.T, p *part, q []float64, l int) []any {
	t.Helper()
	ctx := context.Background()
	fixed, err := p.transport.Scan(ctx, query.ScanRequest{
		Length: l, Query: q, CutoffBits: math.Float64bits(math.Inf(1)), Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []any{fixed.Hits, rangeAll(t, p, q, l)}
}

// rangeAll is part p's exact range answer for q at length l at a radius no
// window exceeds: every window it holds, with its distance.
func rangeAll(t *testing.T, p *part, q []float64, l int) []query.RangeHit {
	t.Helper()
	resp, err := p.transport.Range(context.Background(), query.RangeRequest{
		Length: l, Query: q, Radius: 1e9, Exact: true, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Results
}
