package query

import (
	"context"
	"testing"

	"onex/internal/grouping"
	"onex/internal/obs"
)

// allocProbe builds a small single-length engine and a valid query for
// the allocation guards (Parallelism 1 keeps goroutine machinery out of
// the counted path).
func allocProbe(tb testing.TB) (*engine, []float64) {
	d := equivDataset(11, 8, 32)
	gr, err := grouping.Build(d, grouping.Config{ST: 0.25, Lengths: []int{8}, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := newEngine(d, gr, 1)
	if err != nil {
		tb.Fatal(err)
	}
	q := append([]float64(nil), d.Series[2].Values[4:12]...)
	return p, q
}

// maxMatchAllocs caps an untraced best-match Exec's allocations per op: the
// pivot walk's round buffers are fixed arrays in one value per query, so no
// round and no searched length adds an allocation.
const maxMatchAllocs = 15

// TestBestMatchObservedNilAllocs pins the tracing contract: a request whose
// context carries no trace — here a served request's context, request id
// and all, with a nil recorder attached — must allocate exactly as much as
// Exec under a bare context: looking the recorder up and threading its
// absence through every stage boxes no attrs and grows no span slices. And
// Exec itself stays within maxMatchAllocs.
func TestBestMatchObservedNilAllocs(t *testing.T) {
	p, q := allocProbe(t)
	req := Request{Family: FamilyMatch, Query: q, Mode: MatchAny}
	// Warm the workspace pool so steady-state allocations are measured.
	if r := p.Exec(context.Background(), req); r.Err != nil {
		t.Fatal(r.Err)
	}
	base := testing.AllocsPerRun(100, func() {
		if r := p.Exec(context.Background(), req); r.Err != nil {
			t.Fatal(r.Err)
		}
	})
	if base > maxMatchAllocs {
		t.Fatalf("untraced best-match Exec allocates %.1f/op, want ≤ %d", base, maxMatchAllocs)
	}
	served := obs.ContextWithRequestID(context.Background(), "alloc-probe")
	traced := testing.AllocsPerRun(100, func() {
		if _, err := p.BestMatchObserved(served, q, MatchAny, nil); err != nil {
			t.Fatal(err)
		}
	})
	if traced > base {
		t.Fatalf("Exec without a recorder allocates %.1f/op vs %.1f/op under a bare context — disabled tracing must be free", traced, base)
	}
}

// BenchmarkBestMatchObservedNilAllocs reports the disabled-tracing hot path
// allocation count (compare against BestMatch in CI diffs).
func BenchmarkBestMatchObservedNilAllocs(b *testing.B) {
	p, q := allocProbe(b)
	if _, err := p.BestMatchObserved(context.Background(), q, MatchAny, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.BestMatchObserved(context.Background(), q, MatchAny, nil); err != nil {
			b.Fatal(err)
		}
	}
}
