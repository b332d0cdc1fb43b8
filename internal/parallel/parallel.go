// Package parallel holds the small concurrency substrate shared by the
// offline construction (grouping) and the online query processor: worker
// resolution, a bounded index-fanning worker pool, an atomic shared
// best-so-far bound for cross-worker early abandoning, and a sync.Pool of
// DTW workspaces.
//
// Everything here is built so that callers can make parallel execution
// *result-invariant*: ForEach assigns disjoint indices exactly once,
// MinBound only ever tightens monotonically toward the true minimum, and
// workspaces are handed out with single-goroutine ownership. The packages
// on top (grouping, query) arrange their algorithms so that the answer is
// bit-identical for any worker count; this package only supplies the
// mechanics.
package parallel

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"onex/internal/dist"
)

// Resolve normalizes a parallelism knob: values ≤ 0 (the "default" and any
// degenerate negative input) resolve to runtime.GOMAXPROCS(0); positive
// values — including values above NumCPU, which merely oversubscribe — are
// returned as given. The result is always ≥ 1.
func Resolve(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n), fanning the indices across up
// to workers goroutines (workers is passed through Resolve, then capped at
// n). Each index is executed exactly once; the call returns when all have
// finished. With one worker (or n ≤ 1) fn runs inline on the caller's
// goroutine, so the sequential path pays no synchronization.
//
// Indices are handed out by an atomic counter (dynamic load balancing), so
// the *assignment* of index to goroutine is scheduling-dependent — callers
// that need deterministic results must make fn's effect on shared state
// commutative (e.g. write only to slot i of a results slice).
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// MinBound is an atomic, monotonically tightening float64 minimum — the
// shared best-so-far bound that lets early-abandoning prune across workers.
// The zero value reads as +Inf.
type MinBound struct {
	// bits stores math.Float64bits(value)+1, so the zero value decodes to
	// +Inf without a constructor having run.
	bits atomic.Uint64
}

// Load returns the current bound.
func (b *MinBound) Load() float64 {
	raw := b.bits.Load()
	if raw == 0 {
		return math.Inf(1)
	}
	return math.Float64frombits(raw - 1)
}

// Relax lowers the bound to v if v is smaller, returning whether it
// tightened. Concurrent Relax calls converge to the minimum of all values
// offered; the bound never loosens.
func (b *MinBound) Relax(v float64) bool {
	for {
		raw := b.bits.Load()
		if raw != 0 && math.Float64frombits(raw-1) <= v {
			return false
		}
		if b.bits.CompareAndSwap(raw, math.Float64bits(v)+1) {
			return true
		}
	}
}

// WorkspacePool is a sync.Pool of dist.Workspace values. A dist.Workspace
// is single-goroutine scratch (see its ownership rule); the pool amortizes
// the row allocations across queries and across the workers of one query
// without ever sharing a live workspace between two goroutines: Get hands
// out exclusive ownership, Put returns it.
//
// The zero value is ready to use and safe for concurrent use.
type WorkspacePool struct {
	pool sync.Pool
}

// Get returns a workspace owned exclusively by the caller until Put.
func (p *WorkspacePool) Get() *dist.Workspace {
	if w, ok := p.pool.Get().(*dist.Workspace); ok {
		return w
	}
	return new(dist.Workspace)
}

// Put returns a workspace to the pool. The caller must not use w after.
func (p *WorkspacePool) Put(w *dist.Workspace) {
	if w != nil {
		p.pool.Put(w)
	}
}
