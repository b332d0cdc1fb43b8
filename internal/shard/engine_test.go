package shard

import (
	"bytes"
	"context"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/query"
	"onex/internal/ts"
)

// The engine's build, maintenance, adaptation and persistence contracts,
// exercised on the one-shard in-process layout (whose single part indexes
// the global dataset and grouping themselves).

// build is Build for the one-shard layout.
func build(d *ts.Dataset, cfg core.BuildConfig) (*Engine, error) { return Build(d, cfg, 0, nil) }

func fixture(t *testing.T) *ts.Dataset {
	t.Helper()
	return dataset.ItalyPower.Scaled(0.3).Generate(1)
}

func TestBuildRejectsBadInput(t *testing.T) {
	d := fixture(t)
	cases := []struct {
		name string
		d    *ts.Dataset
		cfg  core.BuildConfig
	}{
		{"nil dataset", nil, core.BuildConfig{ST: 0.2}},
		{"empty dataset", &ts.Dataset{}, core.BuildConfig{ST: 0.2}},
		{"zero ST", d, core.BuildConfig{ST: 0}},
		{"bad normalize", d, core.BuildConfig{ST: 0.2, Normalize: core.NormalizeMode(9)}},
		{"NaN data", ts.NewDataset("t", [][]float64{{math.NaN()}}), core.BuildConfig{ST: 0.2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := build(c.d, c.cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestBuildLeavesInputUntouched(t *testing.T) {
	d := fixture(t)
	orig := append([]float64(nil), d.Series[0].Values...)
	if _, err := build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6}}); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if d.Series[0].Values[i] != orig[i] {
			t.Fatal("Build mutated the input dataset")
		}
	}
}

func TestBuildNormalizeNoneIndexesRaw(t *testing.T) {
	d := ts.NewDataset("t", [][]float64{{0, 100, 0, 100, 0, 100}})
	eng, err := build(d, core.BuildConfig{ST: 0.2, Lengths: []int{3}, Normalize: core.NormalizeNone})
	if err != nil {
		t.Fatal(err)
	}
	// Raw values survive: some representative has amplitude ~100.
	maxVal := 0.0
	for _, g := range eng.grouped.ByLength[3].Groups {
		for _, v := range g.Rep {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	if maxVal < 50 {
		t.Errorf("raw-space reps look normalized (max %v)", maxVal)
	}
}

func TestBuildAndQueryRoundTrip(t *testing.T) {
	d := fixture(t)
	eng, err := build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6, 12}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if eng.BuildTime() <= 0 {
		t.Error("BuildTime not recorded")
	}
	q := append([]float64(nil), eng.data.Series[0].Values[2:14]...)
	m, err := bestMatch(eng, context.Background(), q, 0 /* MatchExact */)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Found() || m.Length != 12 {
		t.Fatalf("match = %+v", m)
	}
}

func TestWithThreshold(t *testing.T) {
	d := fixture(t)
	eng, err := build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := eng.WithThreshold(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if adapted.ST() != 0.4 {
		t.Errorf("adapted ST = %v", adapted.ST())
	}
	if adapted.TotalGroups() > eng.TotalGroups() {
		t.Error("loosening gained groups")
	}
	if _, err := eng.WithThreshold(0); err == nil {
		t.Error("bad ST': want error")
	}
}

// TestMetadataRoundTrip: a reloaded engine reports the saved engine's
// identity, its original build cost, the Save timestamp and the configured
// length restriction.
func TestMetadataRoundTrip(t *testing.T) {
	eng := buildPersistFixture(t)
	if !eng.SavedAt().IsZero() {
		t.Errorf("fresh engine SavedAt = %v, want zero", eng.SavedAt())
	}
	if eng.ST() != 0.2 || len(eng.Lengths()) != 2 {
		t.Errorf("config = ST %v lengths %v", eng.ST(), eng.Lengths())
	}

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SavedAt().IsZero() {
		t.Error("loaded engine SavedAt is zero, want the Save timestamp")
	}
	if loaded.BuildTime() != eng.BuildTime() {
		t.Errorf("loaded BuildTime = %v, want original %v", loaded.BuildTime(), eng.BuildTime())
	}
	if len(loaded.cfg.Lengths) != 2 {
		t.Errorf("loaded cfg.Lengths = %v, want the configured restriction", loaded.cfg.Lengths)
	}
	if loaded.Name() != eng.Name() || loaded.NumSeries() != eng.NumSeries() || loaded.ST() != eng.ST() {
		t.Errorf("loaded identity (%s, %d, %v), want (%s, %d, %v)",
			loaded.Name(), loaded.NumSeries(), loaded.ST(), eng.Name(), eng.NumSeries(), eng.ST())
	}
}

func TestBuildProgressThreaded(t *testing.T) {
	d := fixture(t)
	calls := 0
	_, err := build(d, core.BuildConfig{
		ST: 0.2, Lengths: []int{6, 12}, Seed: 1,
		Progress: func(done, total int) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("Progress called %d times, want 2", calls)
	}
}

func TestExtendNormalizationPaths(t *testing.T) {
	raw := ts.NewDataset("t", [][]float64{
		{0, 10, 0, 10, 0, 10, 0, 10},
		{5, 15, 5, 15, 5, 15, 5, 15},
	})
	// Dataset-level min-max: new series scaled with the ORIGINAL min/max.
	eng, err := build(raw, core.BuildConfig{ST: 0.3, Lengths: []int{4}, Normalize: core.NormalizeDataset})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := eng.Extend([]*ts.Series{{Label: "new", Values: []float64{0, 30, 0, 30, 0, 30, 0, 30}}})
	if err != nil {
		t.Fatal(err)
	}
	got := ext.data.Series[2].Values
	// Original min=0 max=15 → 30 maps to 2.0 (outside [0,1], by design).
	if got[1] != 2 {
		t.Errorf("dataset-mode extend scaled 30 to %v, want 2", got[1])
	}

	// Per-series: each new series on its own scale.
	engPS, err := build(raw, core.BuildConfig{ST: 0.3, Lengths: []int{4}, Normalize: core.NormalizePerSeries})
	if err != nil {
		t.Fatal(err)
	}
	extPS, err := engPS.Extend([]*ts.Series{{Values: []float64{100, 300, 100, 300, 100, 300, 100, 300}}})
	if err != nil {
		t.Fatal(err)
	}
	got = extPS.data.Series[2].Values
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("per-series extend = %v, want [0 1 …]", got[:2])
	}
	// Constant new series cannot be per-series normalized.
	if _, err := engPS.Extend([]*ts.Series{{Values: []float64{7, 7, 7, 7}}}); err == nil {
		t.Error("constant series under per-series normalization: want error")
	}

	// core.NormalizeNone: raw append.
	engNone, err := build(raw, core.BuildConfig{ST: 9, Lengths: []int{4}, Normalize: core.NormalizeNone})
	if err != nil {
		t.Fatal(err)
	}
	extNone, err := engNone.Extend([]*ts.Series{{Values: []float64{42, 42, 42, 43}}})
	if err != nil {
		t.Fatal(err)
	}
	if extNone.data.Series[2].Values[0] != 42 {
		t.Error("none-mode extend altered raw values")
	}
}

func TestExtendErrorPaths(t *testing.T) {
	d := fixture(t)
	eng, err := build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Extend(nil); err == nil {
		t.Error("nil series: want error")
	}
	if _, err := eng.Extend([]*ts.Series{nil}); err == nil {
		t.Error("nil series pointer: want error")
	}
	if _, err := eng.Extend([]*ts.Series{{Values: nil}}); err == nil {
		t.Error("empty series: want error")
	}
}

func TestBuildTimeFormatsInErrors(t *testing.T) {
	// Guard the error-message contract: invalid configs mention the value.
	_, err := build(fixture(t), core.BuildConfig{ST: -3})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("-3")) {
		t.Errorf("error does not mention the offending ST: %v", err)
	}
	_, err = build(fixture(t), core.BuildConfig{ST: 0.2, Normalize: core.NormalizeMode(7)})
	if err == nil {
		t.Error("bad mode: want error")
	}
}

func buildPersistFixture(t *testing.T) *Engine {
	t.Helper()
	d := fixture(t)
	eng, err := build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6, 12}, Seed: 3, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSaveLoadRoundTrip(t *testing.T) {
	eng := buildPersistFixture(t)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Structure identical.
	if loaded.ST() != eng.ST() {
		t.Errorf("ST %v != %v", loaded.ST(), eng.ST())
	}
	if loaded.TotalGroups() != eng.TotalGroups() {
		t.Errorf("groups %d != %d", loaded.TotalGroups(), eng.TotalGroups())
	}
	if loaded.TotalSubseq() != eng.TotalSubseq() {
		t.Errorf("subseq %d != %d", loaded.TotalSubseq(), eng.TotalSubseq())
	}
	lh, lf := globalThresholds(t, loaded)
	if eh, ef := globalThresholds(t, eng); lh != eh || lf != ef {
		t.Error("SP-Space thresholds differ after round trip")
	}
	// Queries agree bit-for-bit.
	q := append([]float64(nil), eng.data.Series[1].Values[3:15]...)
	m1, err := bestMatch(eng, context.Background(), q, query.MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := bestMatch(loaded, context.Background(), q, query.MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("query answers differ after round trip: %+v vs %+v", m1, m2)
	}
	// Loaded engines remain extendable (grouped state survived).
	if _, err := loaded.Extend(fixture(t).Series[:1]); err != nil {
		t.Errorf("loaded engine not extendable: %v", err)
	}
}

// TestLoadTakesServingParallelism: a snapshot carries no worker count; the
// reloaded engine serves, and its maintenance successors work, with the one
// Load is given (≤ 0: GOMAXPROCS), whatever the saved engine ran at.
func TestLoadTakesServingParallelism(t *testing.T) {
	eng := buildPersistFixture(t)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ given, want int }{{1, 1}, {3, 3}, {0, runtime.GOMAXPROCS(0)}} {
		loaded, err := Load(bytes.NewReader(buf.Bytes()), c.given, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.Parallelism(); got != c.want {
			t.Errorf("Load at %d serves at %d, want %d", c.given, got, c.want)
		}
		grown, err := loaded.Append(0, []float64{0.4, 0.6})
		if err != nil {
			t.Fatal(err)
		}
		if got := grown.Parallelism(); got != c.want {
			t.Errorf("Load at %d: appended engine serves at %d, want %d", c.given, got, c.want)
		}
	}
}

func TestSaveAdaptedEngineRefused(t *testing.T) {
	eng := buildPersistFixture(t)
	adapted, err := eng.WithThreshold(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := adapted.Save(io.Discard); err == nil {
		t.Error("saving adapted engine should fail")
	}
}

func appendEngine(t *testing.T, cfg core.BuildConfig) (*ts.Dataset, *Engine) {
	t.Helper()
	d := dataset.ItalyPower.Scaled(0.4).Generate(29)
	eng, err := build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, eng
}

func TestEngineAppendValidation(t *testing.T) {
	_, eng := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2})
	if _, err := eng.Append(0, nil); err == nil {
		t.Error("empty points: want error")
	}
	if _, err := eng.Append(-1, []float64{1}); err == nil {
		t.Error("negative series: want error")
	}
	if _, err := eng.Append(eng.NumSeries(), []float64{1}); err == nil {
		t.Error("out-of-range series: want error")
	}
	if _, err := eng.Append(0, []float64{math.NaN()}); err == nil {
		t.Error("NaN point: want error")
	}
	if _, err := eng.Append(0, []float64{math.Inf(1)}); err == nil {
		t.Error("Inf point: want error")
	}
	adapted, err := eng.WithThreshold(0.35)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adapted.Append(0, []float64{1}); err == nil {
		t.Error("append to adapted engine: want error")
	}
	_, perSeries := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, Normalize: core.NormalizePerSeries})
	if _, err := perSeries.Append(0, []float64{1}); err == nil {
		t.Error("append to per-series normalized engine: want error")
	}
	// Extend holds the same finite-input boundary as Append and Build: a
	// NaN/Inf window would found a NaN-representative group and poison
	// every later query.
	if _, err := eng.Extend([]*ts.Series{{Values: []float64{1, math.NaN(), 2}}}); err == nil {
		t.Error("extend with NaN values: want error")
	}
	if _, err := eng.Extend([]*ts.Series{{Values: []float64{1, math.Inf(-1), 2}}}); err == nil {
		t.Error("extend with Inf values: want error")
	}
}

func TestEngineAppendImmutableReceiver(t *testing.T) {
	_, eng := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6, 10}, Seed: 2, RebuildDrift: -1})
	beforeLen := eng.data.Series[0].Len()
	beforeTotal := eng.TotalSubseq()
	next, err := eng.Append(0, []float64{0.4, 0.5, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if eng.data.Series[0].Len() != beforeLen {
		t.Error("Append mutated the receiver's dataset")
	}
	if eng.TotalSubseq() != beforeTotal {
		t.Error("Append mutated the receiver's subsequence count")
	}
	if next.data.Series[0].Len() != beforeLen+3 {
		t.Errorf("grown series has %d points, want %d", next.data.Series[0].Len(), beforeLen+3)
	}
	if next.TotalSubseq() <= beforeTotal {
		t.Error("grown base did not gain subsequences")
	}
	if next.Drift() <= 0 {
		t.Error("grown base reports zero drift")
	}
}

func TestEngineAppendNormalizesIntoBaseSpace(t *testing.T) {
	// core.NormalizeDataset scales appended raw points with the original min/max;
	// appending a copy of an existing window must land byte-identical values.
	d := dataset.ItalyPower.Scaled(0.4).Generate(31)
	eng, err := build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: -1})
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]float64(nil), d.Series[1].Values[:4]...) // raw because Build clones before normalizing
	next, err := eng.Append(0, raw)
	if err != nil {
		t.Fatal(err)
	}
	s0 := next.data.Series[0].Values
	got := s0[len(s0)-4:]
	want := next.data.Series[1].Values[:4]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("appended points normalized to %v, want %v", got, want)
	}
}

func TestEngineAppendDriftRebuildMatchesFromScratch(t *testing.T) {
	// With a tiny drift threshold every Append re-runs the full build, which
	// must produce exactly the engine a from-scratch Build over the final
	// data yields (same seed, same normalized values).
	d := dataset.ItalyPower.Scaled(0.4).Generate(37)
	cfg := core.BuildConfig{ST: 0.2, Lengths: []int{6, 10}, Seed: 4, RebuildDrift: 1e-9}
	eng, err := build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stay inside the original min/max so dataset-wide scaling is identical.
	points := append([]float64(nil), d.Series[2].Values[:5]...)
	grown, err := eng.Append(1, points)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Drift() != 0 {
		t.Errorf("rebuild did not reset drift: %v", grown.Drift())
	}

	final := d.Clone()
	final.Series[1].AppendPoints(points...)
	fresh, err := build(final, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{6, 10} {
		ge, fe := grown.grouped.ByLength[l], fresh.grouped.ByLength[l]
		if len(ge.Groups) != len(fe.Groups) {
			t.Fatalf("length %d: %d groups vs fresh %d", l, len(ge.Groups), len(fe.Groups))
		}
		for k := range ge.Groups {
			if !reflect.DeepEqual(ge.Groups[k].Rep, fe.Groups[k].Rep) {
				t.Fatalf("length %d group %d: representative differs from from-scratch build", l, k)
			}
			if !reflect.DeepEqual(ge.Groups[k].Members, fe.Groups[k].Members) {
				t.Fatalf("length %d group %d: members differ from from-scratch build", l, k)
			}
		}
	}
	q := append([]float64(nil), fresh.data.Series[0].Values[2:12]...)
	mg, err := bestMatch(grown, context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := bestMatch(fresh, context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mg != mf {
		t.Errorf("rebuild-path match %+v differs from from-scratch %+v", mg, mf)
	}
}

func TestEngineAppendRebuildKeepsLengthSet(t *testing.T) {
	// Explicit Lengths {6, 60} over 48-point series resolve to {6} at build
	// time; a drift-triggered rebuild after the series grow past 60 must
	// keep indexing exactly {6} — the query surface never changes shape
	// because ingestion crossed a threshold.
	d := dataset.ItalyPower.Scaled(0.4).Generate(41) // 24-point series
	eng, err := build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6, 60}, Seed: 2, RebuildDrift: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Lengths(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("build resolved lengths %v, want [6]", got)
	}
	pts := make([]float64, 50) // grows series 0 well past 60
	for i := range pts {
		pts[i] = d.Series[1].Values[i%d.Series[1].Len()]
	}
	grown, err := eng.Append(0, pts)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Drift() != 0 {
		t.Fatal("append did not take the rebuild branch")
	}
	if got := grown.Lengths(); len(got) != 1 || got[0] != 6 {
		t.Errorf("rebuild re-resolved lengths to %v, want the pinned [6]", got)
	}
}

func TestEngineAppendNeverWritesSharedArrays(t *testing.T) {
	// The copy-on-write clone shares untouched series' backing arrays;
	// chained appends must never write into the receiver's (or any
	// ancestor's) values.
	_, eng := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: -1})
	snapshots := make([][][]float64, 0, 4)
	record := func(e *Engine) {
		cp := make([][]float64, e.NumSeries())
		for i, s := range e.data.Series {
			cp[i] = append([]float64(nil), s.Values...)
		}
		snapshots = append(snapshots, cp)
	}
	engines := []*Engine{eng}
	record(eng)
	cur := eng
	for i := 0; i < 3; i++ {
		next, err := cur.Append(0, []float64{0.4, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, next)
		record(next)
		cur = next
	}
	for gi, e := range engines {
		for si, s := range e.data.Series {
			if !reflect.DeepEqual(s.Values, snapshots[gi][si]) {
				t.Fatalf("generation %d series %d mutated by a later append", gi, si)
			}
		}
	}
}

func TestEngineExtendParticipatesInRebuildPolicy(t *testing.T) {
	// Extend feeds the same drift counter as Append and must honor the same
	// bound: with a tiny threshold an extension takes the rebuild branch
	// (drift resets); with the policy disabled it stays incremental.
	v := make([]float64, 24)
	for i := range v {
		v[i] = math.Sin(float64(i) / 3)
	}
	_, strict := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: 1e-9})
	ext, err := strict.Extend([]*ts.Series{{Values: v}})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Drift() != 0 {
		t.Errorf("extend did not take the rebuild branch (drift %v)", ext.Drift())
	}
	_, loose := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: -1})
	ext, err = loose.Extend([]*ts.Series{{Values: v}})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Drift() <= 0 {
		t.Error("policy-disabled extend reports zero drift")
	}
}

func TestAppendPersistRoundTripKeepsDrift(t *testing.T) {
	_, eng := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: -1})
	grown, err := eng.Append(0, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := grown.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Drift() != grown.Drift() {
		t.Errorf("drift %v after round trip, want %v", loaded.Drift(), grown.Drift())
	}
	if loaded.cfg.RebuildDrift != -1 {
		t.Errorf("RebuildDrift %v after round trip, want -1", loaded.cfg.RebuildDrift)
	}
	// A further append on the loaded engine keeps working.
	if _, err := loaded.Append(0, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
}

// TestOneShardIndexesGlobalGrouping: the one-shard in-process layout builds
// and re-derives its index over the global grouping itself — the same group
// objects, not a restricted copy — so its resident size is exactly what
// the global grouping reports, after every kind of step.
func TestOneShardIndexesGlobalGrouping(t *testing.T) {
	d := dataset.ItalyPower.Scaled(0.4).Generate(43)
	cfg := core.BuildConfig{ST: 0.2, Lengths: []int{6, 10}, Seed: 4, RebuildDrift: 0.05}
	check := func(step string, e *Engine) {
		t.Helper()
		if len(e.parts) != 1 {
			t.Fatalf("%s: %d parts, want 1", step, len(e.parts))
		}
		// Shorten the largest global group of each length for one range
		// search: a part over the group object itself answers one member
		// of it, a copy all of them.
		whole := e.parts[0]
		for _, l := range e.grouped.Lengths {
			groups, k := e.grouped.ByLength[l].Groups, 0
			for i, c := range groups {
				if c.Count() > groups[k].Count() {
					k = i
				}
			}
			g := groups[k]
			if g.Count() < 2 {
				t.Fatalf("%s length %d: no group with two members; the check guards nothing", step, l)
			}
			members := g.Members
			g.Members = members[:1]
			held := 0
			for _, h := range rangeAll(t, whole, e.data.Series[0].Values[:l], l) {
				if h.GroupID == k {
					held++
				}
			}
			g.Members = members
			if held != 1 {
				t.Fatalf("%s length %d group %d: part holds %d members of a 1-member group: a copy, not the global group", step, l, k, held)
			}
		}
		if got, want := e.SizeBytes(), e.grouped.SizeBytes(); got != want {
			t.Fatalf("%s: IndexBytes %d, the global grouping reports %d", step, got, want)
		}
	}

	e, err := build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("build", e)
	if e, err = e.Append(0, d.Series[1].Values[:2]); err != nil {
		t.Fatal(err)
	}
	if e.Drift() == 0 {
		t.Fatal("first append took the rebuild branch; raise RebuildDrift")
	}
	check("append", e)
	if e, err = e.Extend([]*ts.Series{{Values: d.Series[2].Values[:8]}}); err != nil {
		t.Fatal(err)
	}
	if e.Rebuilds() != 0 {
		t.Fatal("extend took the rebuild branch; raise RebuildDrift")
	}
	check("extend", e)
	for i := 0; e.Rebuilds() == 0; i++ {
		if i == 50 {
			t.Fatal("no drift-triggered rebuild after 50 appends")
		}
		if e, err = e.Append(i%e.NumSeries(), d.Series[3].Values[:6]); err != nil {
			t.Fatal(err)
		}
	}
	check("rebuild", e)
}
