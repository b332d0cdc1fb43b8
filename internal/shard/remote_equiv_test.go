package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"onex/internal/core"
	"onex/internal/query"
	"onex/internal/shardrpc"
	"onex/internal/ts"
)

// The distributed acceptance property: an engine whose shards live in
// remote worker processes must answer the full query mix bit-identically
// to both the in-process sharded engine and the one-shard layout — including while
// workers are killed and restarted mid-query (the client re-ships the
// shard state and retries).

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// swapWorker serves a shardrpc worker whose entire state can be swapped
// for a fresh one — a process restart at a stable address, without the
// port-rebinding races a real listener restart would add to the test.
type swapWorker struct {
	mu sync.Mutex
	h  http.Handler
}

func newSwapWorker() *swapWorker {
	return &swapWorker{h: shardrpc.NewWorker(quietLogger()).Handler()}
}

func (s *swapWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// restart discards all resident shard state, exactly like a worker process
// dying and coming back empty.
func (s *swapWorker) restart() {
	fresh := shardrpc.NewWorker(quietLogger()).Handler()
	s.mu.Lock()
	s.h = fresh
	s.mu.Unlock()
}

// startWorkers boots n restartable worker endpoints and returns their base
// URLs plus the swap handles.
func startWorkers(t *testing.T, n int) ([]string, []*swapWorker) {
	t.Helper()
	urls := make([]string, n)
	swaps := make([]*swapWorker, n)
	for i := range urls {
		sw := newSwapWorker()
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		swaps[i] = sw
	}
	return urls, swaps
}

// TestRemoteEquivalence: across parallelism {1,2,8} and shard counts {1,3,4},
// a worker-served engine answers the full query mix (best match, k-NN,
// range plain/exact, seasonal, batch, SP-Space guidance) identically to
// the one-shard layout AND to the in-process sharded engine.
func TestRemoteEquivalence(t *testing.T) {
	lengths := []int{8, 12, 16}
	const st = 0.35
	for _, parallelism := range []int{1, 2, 8} {
		for _, shards := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("p%d_s%d", parallelism, shards), func(t *testing.T) {
				r := rand.New(rand.NewSource(4451))
				d := randomDataset(r, 16, 32)
				cfg := core.BuildConfig{
					ST: st, Lengths: lengths, Seed: 1,
					Parallelism: parallelism,
				}
				urls, _ := startWorkers(t, 2)
				one, err := Build(d, cfg, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				local, err := Build(d, cfg, shards, nil)
				if err != nil {
					t.Fatal(err)
				}
				remote, err := Build(d, cfg, shards, urls)
				if err != nil {
					t.Fatal(err)
				}
				defer remote.Close()
				if got := remote.ShardCount(); got != max(shards, 1) {
					t.Fatalf("ShardCount = %d, want %d", got, max(shards, 1))
				}
				if ws := remote.WorkerURLs(); len(ws) != 2 {
					t.Fatalf("WorkerURLs = %v, want the 2 configured workers", ws)
				}
				queries := randomQueries(r, d, lengths, 8)
				compareEngines(t, "one-vs-remote", one, remote, queries, lengths, st)
				compareEngines(t, "local-vs-remote", local, remote, queries, lengths, st)
			})
		}
	}
}

// TestRemoteMaintenanceEquivalence: Append/Extend on a worker-served engine
// ship fresh generations for the affected shards and keep answering
// identically to the maintained one-shard engine.
func TestRemoteMaintenanceEquivalence(t *testing.T) {
	lengths := []int{8, 12}
	const st = 0.35
	r := rand.New(rand.NewSource(917))
	d := randomDataset(r, 10, 28)
	cfg := core.BuildConfig{
		ST: st, Lengths: lengths, Seed: 1,
		Parallelism: 2,
	}
	urls, _ := startWorkers(t, 2)
	one, err := Build(d, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Build(d, cfg, 3, urls)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		if step%2 == 0 {
			sid := r.Intn(one.NumSeries())
			pts := make([]float64, 4+r.Intn(6))
			x := one.Window(sid, one.data.Series[sid].Len()-1, 1)[0]
			for j := range pts {
				x += r.NormFloat64() * 0.05
				pts[j] = x
			}
			m2, err := one.Append(sid, pts)
			if err != nil {
				t.Fatalf("step %d one append: %v", step, err)
			}
			r2, err := remote.Append(sid, pts)
			if err != nil {
				t.Fatalf("step %d remote append: %v", step, err)
			}
			one, remote = m2, r2
		} else {
			v := make([]float64, 24+r.Intn(8))
			x := r.Float64() * 4
			for j := range v {
				x += r.NormFloat64() * 0.5
				v[j] = x
			}
			extra := []*ts.Series{{Label: "new", Values: v}}
			m2, err := one.Extend(extra)
			if err != nil {
				t.Fatalf("step %d one extend: %v", step, err)
			}
			r2, err := remote.Extend(extra)
			if err != nil {
				t.Fatalf("step %d remote extend: %v", step, err)
			}
			one, remote = m2, r2
		}
		queries := randomQueries(r, one.data, lengths, 4)
		compareEngines(t, fmt.Sprintf("step%d", step), one, remote, queries, lengths, st)
	}
	remote.Close()
}

// TestRemoteWorkerRestart kills and restarts workers while queries are in
// flight: every resident generation is lost, the clients observe
// unknown_generation, re-ship the shard state and retry — and every answer
// still matches the one-shard layout exactly. Run under -race this also exercises
// the client's re-ship serialization.
func TestRemoteWorkerRestart(t *testing.T) {
	lengths := []int{8, 12}
	const st = 0.35
	r := rand.New(rand.NewSource(6007))
	d := randomDataset(r, 12, 28)
	cfg := core.BuildConfig{
		ST: st, Lengths: lengths, Seed: 1,
		Parallelism: 4,
	}
	urls, swaps := startWorkers(t, 2)
	one, err := Build(d, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Build(d, cfg, 3, urls)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	queries := randomQueries(r, d, lengths, 6)
	type ref struct {
		m   query.Match
		err bool
	}
	refs := make([]ref, len(queries))
	for i, q := range queries {
		m, err := bestMatch(one, context.Background(), q, query.MatchAny)
		refs[i] = ref{m: m, err: err != nil}
	}

	const goroutines = 4
	const rounds = 5
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, q := range queries {
					m, err := bestMatch(remote, context.Background(), q, query.MatchAny)
					if (err != nil) != refs[i].err {
						errCh <- fmt.Errorf("q%d: error diverged under restart: %v", i, err)
						return
					}
					if err != nil {
						continue
					}
					want := refs[i].m
					if m.SeriesID != want.SeriesID || m.Start != want.Start ||
						m.Length != want.Length || m.Dist != want.Dist {
						errCh <- fmt.Errorf("q%d: answer diverged under restart: %+v vs %+v", i, m, want)
						return
					}
				}
			}
			errCh <- nil
		}()
	}
	// Keep killing workers while the query goroutines run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 6; k++ {
			time.Sleep(20 * time.Millisecond)
			swaps[k%len(swaps)].restart()
		}
	}()
	wg.Wait()
	<-done
	for g := 0; g < goroutines; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	// After the dust settles the whole mix still matches.
	compareEngines(t, "post-restart", one, remote, queries, lengths, st)
}

// TestRemoteWorkerUnavailable: a worker that stays down past the retry
// budget surfaces as shardrpc.ErrUnavailable (the API layer maps it to
// 503), and building against a dead worker fails fast.
func TestRemoteWorkerUnavailable(t *testing.T) {
	lengths := []int{8}
	r := rand.New(rand.NewSource(33))
	d := randomDataset(r, 8, 24)
	cfg := core.BuildConfig{ST: 0.35, Lengths: lengths, Seed: 1}

	sw := newSwapWorker()
	srv := httptest.NewServer(sw)
	remote, err := Build(d, cfg, 2, []string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	q := make([]float64, 8)
	copy(q, d.Series[0].Values[:8])
	if _, err := bestMatch(remote, context.Background(), q, query.MatchExact); err != nil {
		t.Fatalf("query with live worker: %v", err)
	}
	srv.Close()
	if _, err := bestMatch(remote, context.Background(), q, query.MatchExact); !errors.Is(err, shardrpc.ErrUnavailable) {
		t.Fatalf("query with dead worker: got %v, want ErrUnavailable", err)
	}

	if _, err := Build(d, cfg, 2, []string{srv.URL}); err == nil {
		t.Fatal("Build against a dead worker should fail fast at shipping")
	}
}
