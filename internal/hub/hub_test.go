package hub

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"onex"
)

// testSeries builds a small clusterable dataset: noisy sinusoids.
func testSeries(n, length int, seed int64) []onex.Series {
	r := rand.New(rand.NewSource(seed))
	out := make([]onex.Series, n)
	for i := range out {
		v := make([]float64, length)
		phase := float64(i%2) * 0.7
		for j := range v {
			v[j] = math.Sin(float64(j)/3+phase) + 0.05*r.NormFloat64()
		}
		out[i] = onex.Series{Label: "s", Values: v}
	}
	return out
}

func testSpec(seed int64) Spec {
	return Spec{
		Series: testSeries(8, 24, seed),
		Opts:   onex.Options{ST: 0.3, Lengths: []int{4, 8, 12}, Seed: seed},
	}
}

func waitReady(t *testing.T, ds *Dataset) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ds.Wait(ctx); err != nil {
		t.Fatalf("dataset %q: %v", ds.Name(), err)
	}
}

func TestHubLifecycle(t *testing.T) {
	dir := t.TempDir()
	h := New(Config{SnapshotDir: dir})
	defer h.Close()

	ds, err := h.Register("demo", testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)
	if got := ds.State(); got != StateReady {
		t.Fatalf("state = %v", got)
	}
	if ds.Info().FromSnapshot {
		t.Error("fresh build marked FromSnapshot")
	}

	// Query every class.
	q := make([]float64, 8)
	for i := range q {
		q[i] = math.Sin(float64(i) / 3)
	}
	ms, err := ds.Match(context.Background(), q, onex.MatchExact, 1)
	if err != nil || len(ms) != 1 {
		t.Fatalf("Match = %v, %v", ms, err)
	}
	if _, err := ds.RangeObserved(context.Background(), q, 8, 0.5, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := ds.Exec(context.Background(), onex.Request{Family: onex.FamilySeasonal, SeriesID: -1, Length: 8}).Err; err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Recommend(onex.Strict, -1); err != nil {
		t.Fatal(err)
	}

	// The build snapshotted to disk.
	snap := filepath.Join(dir, "demo.onex")
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	// Drop, re-register: the snapshot short-circuits the rebuild.
	if err := h.Drop("demo", false); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get("demo"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Drop: %v", err)
	}
	ds2, err := h.Register("demo", testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds2)
	info := ds2.Info()
	if !info.FromSnapshot {
		t.Error("re-register did not load from snapshot")
	}
	ms2, err := ds2.Match(context.Background(), q, onex.MatchExact, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms2[0].Distance != ms[0].Distance || ms2[0].SeriesID != ms[0].SeriesID {
		t.Errorf("snapshot-loaded base answers differently: %+v vs %+v", ms2[0], ms[0])
	}

	// Drop with purge deletes the snapshot.
	if err := h.Drop("demo", true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("snapshot survived purge: %v", err)
	}
}

func TestHubRegisterFromExplicitSnapshot(t *testing.T) {
	dir := t.TempDir()
	h := New(Config{})
	defer h.Close()

	ds, err := h.Register("orig", testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)
	base, _, err := ds.Base()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "explicit.onex")
	if err := base.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	ds2, err := h.Register("copy", Spec{Snapshot: path})
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds2)
	if !ds2.Info().FromSnapshot {
		t.Error("explicit snapshot registration not marked FromSnapshot")
	}
}

func TestHubCacheHitsAndExtendInvalidation(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	ds, err := h.Register("c", testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)

	q := make([]float64, 8)
	for i := range q {
		q[i] = math.Sin(float64(i)/3) * 0.8
	}
	if _, err := ds.Match(context.Background(), q, onex.MatchAny, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := ds.Match(context.Background(), q, onex.MatchAny, 3); err != nil {
			t.Fatal(err)
		}
	}
	info := ds.Info()
	if info.CacheHits != 4 || info.CacheMisses != 1 {
		t.Errorf("cache counters = %d hits / %d misses, want 4/1", info.CacheHits, info.CacheMisses)
	}
	if st := h.Stats(); st.Cache.Hits != 4 {
		t.Errorf("hub cache hits = %d, want 4", st.Cache.Hits)
	}

	// Extend bumps the generation and invalidates.
	if err := ds.Extend(testSeries(2, 24, 99)); err != nil {
		t.Fatal(err)
	}
	if g := ds.Generation(); g != 1 {
		t.Errorf("generation after Extend = %d, want 1", g)
	}
	if _, err := ds.Match(context.Background(), q, onex.MatchAny, 3); err != nil {
		t.Fatal(err)
	}
	info = ds.Info()
	if info.CacheMisses != 2 {
		t.Errorf("post-Extend misses = %d, want 2 (cache invalidated)", info.CacheMisses)
	}
	if info.Series != 10 {
		t.Errorf("series after Extend = %d, want 10", info.Series)
	}
}

func TestHubConcurrentMatchWhileExtend(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	ds, err := h.Register("hammer", testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)

	q := make([]float64, 8)
	for i := range q {
		q[i] = math.Sin(float64(i) / 3)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qq := append([]float64(nil), q...)
				qq[0] += float64(i%7) * 0.01 // mix hits and misses
				if _, err := ds.Match(context.Background(), qq, onex.MatchExact, 1); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 3; i++ {
		if err := ds.Extend(testSeries(1, 24, int64(100+i))); err != nil {
			t.Fatalf("extend %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if g := ds.Generation(); g != 3 {
		t.Errorf("generation = %d, want 3", g)
	}
}

func TestHubRegisterValidation(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	if _, err := h.Register("bad name!", testSpec(1)); err == nil {
		t.Error("invalid name accepted")
	}
	if _, err := h.Register("ok", Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := h.Register("ok", Spec{Generator: "ECG", Path: "x.tsv", Opts: onex.Options{ST: 0.2}}); err == nil {
		t.Error("two sources accepted")
	}
	if _, err := h.Register("ok", Spec{Generator: "ECG"}); err == nil {
		t.Error("missing ST accepted")
	}
	if _, err := h.Register("ok", Spec{Series: testSeries(2, 8, 1), Opts: onex.Options{ST: 0.2, Progress: func(int, int) {}}}); err == nil {
		t.Error("caller-supplied Progress accepted")
	}
	if _, err := h.Register("dup", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("dup", testSpec(1)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate register: %v", err)
	}
}

func TestHubBuildFailure(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	// A snapshot path that does not exist fails at build time, not register time.
	ds, err := h.Register("broken", Spec{Snapshot: "/no/such/file.onex"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ds.Wait(ctx); err == nil {
		t.Fatal("Wait on failed build returned nil")
	}
	if ds.State() != StateFailed {
		t.Fatalf("state = %v, want failed", ds.State())
	}
	if _, _, err := ds.Base(); !errors.Is(err, ErrFailed) {
		t.Errorf("Base on failed dataset: %v", err)
	}
	if _, err := ds.Match(context.Background(), []float64{1, 2}, onex.MatchAny, 1); !errors.Is(err, ErrFailed) {
		t.Errorf("Match on failed dataset: %v", err)
	}
	st := h.Stats()
	if st.ByState["failed"] != 1 {
		t.Errorf("Stats.ByState = %v", st.ByState)
	}
}

func TestHubQueryBeforeReady(t *testing.T) {
	h := New(Config{BuildWorkers: 1})
	defer h.Close()
	// Occupy the single worker so the second registration stays pending.
	slow, err := h.Register("slow", Spec{
		Series: testSeries(16, 64, 5),
		Opts:   onex.Options{ST: 0.3, Seed: 5}, // all lengths: slow enough
	})
	if err != nil {
		t.Fatal(err)
	}
	pending, err := h.Register("pending", testSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pending.Match(context.Background(), []float64{1, 2}, onex.MatchAny, 1); !errors.Is(err, ErrNotReady) {
		t.Errorf("Match before ready: %v", err)
	}
	waitReady(t, slow)
	waitReady(t, pending)
}

func TestHubClose(t *testing.T) {
	h := New(Config{BuildWorkers: 1})
	ds, err := h.Register("d", testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)
	h.Close()
	h.Close() // idempotent
	if _, err := h.Register("late", testSpec(8)); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close: %v", err)
	}
	// Ready datasets keep answering after Close.
	if _, err := ds.Match(context.Background(), make([]float64, 8), onex.MatchExact, 1); err != nil {
		t.Errorf("query after Close: %v", err)
	}
}

func TestHubCloseAbortsQueuedBuilds(t *testing.T) {
	h := New(Config{BuildWorkers: 1})
	slow, err := h.Register("slow", Spec{
		Series: testSeries(16, 64, 9),
		Opts:   onex.Options{ST: 0.3, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := h.Register("queued", testSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Both datasets must reach a terminal state: the queued one fails with
	// ErrClosed; the in-flight one either finished or was canceled.
	if err := queued.Wait(ctx); err == nil && queued.State() != StateReady {
		t.Error("queued dataset left in limbo")
	}
	_ = slow.Wait(ctx)
	if s := slow.State(); s != StateReady && s != StateFailed {
		t.Errorf("in-flight dataset state after Close = %v", s)
	}
}

// TestCacheNotResurrectedAcrossReRegister covers the in-flight-put race:
// a slow query against the old incarnation finishes its cache put after
// Drop purged, and a new dataset under the same name must never be served
// that entry (epochs make the keys disjoint).
func TestCacheNotResurrectedAcrossReRegister(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	ds1, err := h.Register("name", testSpec(20))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds1)
	q := make([]float64, 8)
	for i := range q {
		q[i] = 0.3
	}
	if _, err := ds1.Match(context.Background(), q, onex.MatchExact, 1); err != nil {
		t.Fatal(err)
	}
	base1, _, err := ds1.Base()
	if err != nil {
		t.Fatal(err)
	}
	staleKey := queryKey("name", ds1.epoch, 0, base1.LayoutSignature(), "match", []int{int(onex.MatchExact), 1}, q)

	if err := h.Drop("name", true); err != nil {
		t.Fatal(err)
	}
	// The late put lands after Drop's purge.
	h.cache.put(staleKey, onex.Result{Matches: []onex.Match{{SeriesID: -999}}})

	ds2, err := h.Register("name", testSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds2)
	if ds2.epoch == ds1.epoch {
		t.Fatal("re-registration reused the epoch")
	}
	ms, err := ds2.Match(context.Background(), q, onex.MatchExact, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].SeriesID == -999 {
		t.Fatal("re-registered dataset served the dropped incarnation's cached result")
	}
}

func TestHubDropNotFound(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	if err := h.Drop("ghost", false); !errors.Is(err, ErrNotFound) {
		t.Errorf("Drop ghost: %v", err)
	}
}
