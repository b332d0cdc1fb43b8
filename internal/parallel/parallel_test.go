package parallel

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ in, want int }{
		{0, procs},
		{-1, procs},
		{-1 << 40, procs},
		{1, 1},
		{7, 7},
		{procs + 1000, procs + 1000}, // > NumCPU is allowed, only oversubscribes
	}
	for _, c := range cases {
		if got := Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%d) = %d, want %d", c.in, got, c.want)
		}
		if Resolve(c.in) < 1 {
			t.Errorf("Resolve(%d) < 1", c.in)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 17, 1000} {
			counts := make([]atomic.Int32, n)
			ForEach(workers, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachNegativeN(t *testing.T) {
	ran := false
	ForEach(4, -3, func(int) { ran = true })
	if ran {
		t.Error("fn ran for negative n")
	}
}

func TestForEachInlineWhenSingleWorker(t *testing.T) {
	// With workers=1 the callback must run on the calling goroutine so the
	// sequential path stays allocation- and synchronization-free. Detect via
	// a goroutine-local side effect: mutate a plain int without a race.
	sum := 0
	ForEach(1, 100, func(i int) { sum += i })
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

func TestMinBoundZeroValueIsInf(t *testing.T) {
	var b MinBound
	if !math.IsInf(b.Load(), 1) {
		t.Fatalf("zero MinBound loads %v, want +Inf", b.Load())
	}
	if !b.Relax(3.5) {
		t.Fatal("Relax from +Inf did not tighten")
	}
	if b.Load() != 3.5 {
		t.Fatalf("bound = %v, want 3.5", b.Load())
	}
}

func TestMinBoundMonotone(t *testing.T) {
	var b MinBound
	if b.Relax(5) != true || b.Relax(7) != false || b.Relax(5) != false {
		t.Fatal("Relax tightening logic wrong")
	}
	if b.Load() != 5 {
		t.Fatalf("bound = %v, want 5", b.Load())
	}
	if !b.Relax(2) || b.Load() != 2 {
		t.Fatalf("bound = %v, want 2", b.Load())
	}
}

func TestMinBoundConvergesUnderContention(t *testing.T) {
	var b MinBound
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	min := math.Inf(1)
	for i := range vals {
		vals[i] = r.Float64() * 1000
		if vals[i] < min {
			min = vals[i]
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(vals); i += 8 {
				b.Relax(vals[i])
			}
		}(w)
	}
	wg.Wait()
	if b.Load() != min {
		t.Fatalf("bound = %v, want %v", b.Load(), min)
	}
}

func TestWorkspacePoolRoundTrip(t *testing.T) {
	var p WorkspacePool
	w1 := p.Get()
	if w1 == nil {
		t.Fatal("nil workspace")
	}
	// Exercise it so the backing rows are allocated, then recycle.
	if d := w1.DTW([]float64{1, 2, 3}, []float64{1, 2, 3}); d != 0 {
		t.Fatalf("DTW of identical sequences = %v", d)
	}
	p.Put(w1)
	p.Put(nil) // must not panic
	w2 := p.Get()
	if d := w2.DTW([]float64{0, 0}, []float64{1, 1}); math.Abs(d-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("recycled workspace DTW = %v, want √2", d)
	}
	p.Put(w2)
}

func TestWorkspacePoolConcurrent(t *testing.T) {
	var p WorkspacePool
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := []float64{float64(g), 1, 2, 3}
			for i := 0; i < 200; i++ {
				w := p.Get()
				if d := w.DTW(a, a); d != 0 {
					t.Errorf("self-DTW = %v", d)
				}
				p.Put(w)
			}
		}(g)
	}
	wg.Wait()
}
