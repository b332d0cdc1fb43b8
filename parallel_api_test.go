package onex

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestBestMatchBatchAPI: the public batch answers must agree query-by-query
// with single BestMatch calls, including per-query failures.
func TestBestMatchBatchAPI(t *testing.T) {
	b := buildFixture(t, Options{Parallelism: 4})
	qs := [][]float64{
		sineSeries(1, 48)[0].Values[:16],
		sineSeries(1, 48)[0].Values[8:24],
		nil,                // empty → per-query error
		{1, math.NaN(), 2}, // non-finite → per-query error
		{0.1, 0.2, 0.3},    // length 3 not indexed → error in exact mode
		sineSeries(1, 48)[0].Values[:24],
	}
	for _, mode := range []MatchMode{MatchExact, MatchAny} {
		rs := b.BestMatchBatch(context.Background(), qs, mode)
		if len(rs) != len(qs) {
			t.Fatalf("mode %d: %d results for %d queries", mode, len(rs), len(qs))
		}
		for i, q := range qs {
			single, err := b.BestMatch(q, mode)
			if (rs[i].Err == nil) != (err == nil) {
				t.Fatalf("mode %d query %d: batch err %v, single err %v", mode, i, rs[i].Err, err)
			}
			if err != nil {
				continue
			}
			got := rs[i].Match
			if got.SeriesID != single.SeriesID || got.Start != single.Start ||
				got.Length != single.Length || math.Abs(got.Distance-single.Distance) > 1e-12 {
				t.Fatalf("mode %d query %d: batch %+v != single %+v", mode, i, got, single)
			}
		}
	}
	if rs := b.BestMatchBatch(context.Background(), nil, MatchAny); len(rs) != 0 {
		t.Fatalf("nil batch: %d results", len(rs))
	}
}

// TestConcurrentBatchExtendSeasonal is the cross-API stress test: one Base
// hammered by concurrent mixed-family ExecBatch, Extend, Seasonal and
// RangeSearch calls from many goroutines. Run under -race (the CI default); the
// assertions are freedom from panics/deadlocks and well-formed answers.
func TestConcurrentBatchExtendSeasonal(t *testing.T) {
	b := buildFixture(t, Options{Parallelism: 4})
	q1 := sineSeries(1, 48)[0].Values[:16]
	q2 := sineSeries(1, 48)[0].Values[16:32]
	qs := []Request{
		{Family: FamilyMatch, Query: q1, Mode: MatchAny},
		{Family: FamilyRange, Query: q2, Length: 16, Radius: 0.1},
		{Family: FamilyMatch, Mode: MatchAny}, // a malformed one on purpose
		{Family: FamilySeasonal, SeriesID: -1, Length: 16},
		{Family: FamilyMatch, Query: q2, Mode: MatchExact, K: 3},
	}

	iters := 30
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rs := b.ExecBatch(context.Background(), qs)
				if len(rs) != len(qs) {
					t.Errorf("short batch: %d", len(rs))
					return
				}
				for j, r := range rs {
					if (r.Err != nil) != (j == 2) {
						t.Errorf("batch error pattern wrong at item %d: %v", j, r.Err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := b
		for i := 0; i < 6; i++ {
			ext, err := cur.Extend(sineSeries(1, 48))
			if err != nil {
				t.Errorf("extend %d: %v", i, err)
				return
			}
			cur = ext
			// The extended base must answer immediately while the original
			// is still being hammered.
			if _, err := cur.BestMatch(q1, MatchAny); err != nil {
				t.Errorf("extended best match: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := b.Seasonal(0, 16); err != nil {
				t.Errorf("seasonal: %v", err)
				return
			}
			if _, err := b.RangeSearch(q1, 16, b.ST()); err != nil {
				t.Errorf("range: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// FuzzExecRequest builds one request out of arbitrary fields — any family
// id, k, length, series and radius, a query decoded from bytes with NaN and
// ±Inf among its values — and asks it alone and inside a batch, on a sharded
// and an unsharded base: the API must never panic or deadlock, a batch must
// return one positional result per request, the same request must answer the
// same (error text, or answer sizes and best distance to the bit) every way
// it is asked, and a malformed request must fail — alone.
func FuzzExecRequest(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6}, uint8(1), 0, 6, 0.2, false, 0)
	f.Add(uint8(0), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(0), 4, 0, 0.0, false, 0)
	f.Add(uint8(1), []byte{1, 2, 3, 4, 5, 6}, uint8(0), 0, 6, 0.3, true, 0)
	f.Add(uint8(2), []byte{}, uint8(0), 0, 10, 0.0, false, -1)
	f.Add(uint8(2), []byte{}, uint8(0), 0, 6, 0.0, false, 3)
	// The hostile corpus: unknown family, K < 0, non-positive length,
	// NaN/±Inf radius and query values, empty query, out-of-range series.
	f.Add(uint8(7), []byte{1, 2, 3}, uint8(0), 0, 6, 0.1, false, 0)
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6}, uint8(0), -1, 0, 0.0, false, 0)
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6}, uint8(5), 2, 0, 0.0, false, 0)
	f.Add(uint8(1), []byte{1, 2, 3, 4, 5, 6}, uint8(0), 0, 0, 0.1, false, 0)
	f.Add(uint8(1), []byte{1, 2, 3, 4, 5, 6}, uint8(0), 0, -6, 0.1, false, 0)
	f.Add(uint8(1), []byte{1, 2, 3, 4, 5, 6}, uint8(0), 0, 6, math.NaN(), false, 0)
	f.Add(uint8(1), []byte{1, 2, 3, 4, 5, 6}, uint8(0), 0, 6, math.Inf(1), true, 0)
	f.Add(uint8(1), []byte{1, 2, 3, 4, 5, 6}, uint8(0), 0, 6, math.Inf(-1), false, 0)
	f.Add(uint8(0), []byte{1, 64, 3, 4, 5, 6}, uint8(0), 0, 0, 0.0, false, 0)
	f.Add(uint8(1), []byte{128, 2, 3, 192, 5, 6}, uint8(0), 0, 6, 0.1, false, 0)
	f.Add(uint8(0), []byte{}, uint8(0), 3, 0, 0.0, false, 0)
	f.Add(uint8(2), []byte{}, uint8(0), 0, -10, 0.0, false, 2)
	f.Add(uint8(2), []byte{}, uint8(0), 0, 6, 0.0, false, 99)

	var bases []*Base
	for _, shards := range []int{1, 3} {
		b, err := Build("fuzz", walkSeries(5, 40, 3), Options{ST: 0.25, Lengths: []int{6, 10}, Parallelism: 3, Shards: shards})
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, b)
	}
	good := Request{Family: FamilyMatch, Query: []float64{0.1, 0.3, 0.5, 0.4, 0.2, 0.1}, Mode: MatchAny}
	f.Fuzz(func(t *testing.T, family uint8, raw []byte, mode uint8, k, length int, radius float64, exact bool, series int) {
		// Byte values 64/128/192 decode to NaN/+Inf/−Inf.
		if len(raw) > 32 {
			raw = raw[:32]
		}
		var q []float64
		malformed := false
		for _, c := range raw {
			switch c {
			case 64:
				q = append(q, math.NaN())
			case 128:
				q = append(q, math.Inf(1))
			case 192:
				q = append(q, math.Inf(-1))
			default:
				q = append(q, float64(c)/51-2.5)
				continue
			}
			malformed = true
		}
		req := Request{Family: Family(family), Query: q, Mode: MatchMode(mode), K: k,
			Length: length, Radius: radius, Exact: exact, SeriesID: series}
		switch req.Family {
		case FamilyMatch:
			malformed = malformed || len(q) == 0 || k < 0 || mode > 1
			req.K = min(k, 64)
		case FamilyRange:
			malformed = malformed || len(q) == 0 || (length != 6 && length != 10) ||
				math.IsNaN(radius) || math.IsInf(radius, 0) || radius < 0
		case FamilySeasonal:
			malformed = (length != 6 && length != 10) || series >= 5
		default:
			malformed = true
		}
		var first Result
		for i, b := range bases {
			single := b.Exec(context.Background(), req)
			rs := b.ExecBatch(context.Background(), []Request{good, req, req})
			if len(rs) != 3 {
				t.Fatalf("%d results for 3 requests", len(rs))
			}
			if rs[0].Err != nil || len(rs[0].Matches) != 1 {
				t.Fatalf("the well-formed neighbour of %+v failed: %+v", req, rs[0])
			}
			if malformed && single.Err == nil {
				t.Fatalf("malformed request %+v not rejected", req)
			}
			if i == 0 {
				first = single
			}
			for _, r := range []Result{rs[1], rs[2], first} {
				if (r.Err == nil) != (single.Err == nil) || (r.Err != nil && r.Err.Error() != single.Err.Error()) {
					t.Fatalf("request %+v: error %v one way, %v another", req, single.Err, r.Err)
				}
				if len(r.Matches) != len(single.Matches) || len(r.Ranges) != len(single.Ranges) || len(r.Patterns) != len(single.Patterns) {
					t.Fatalf("request %+v: answer sizes differ: %+v vs %+v", req, r, single)
				}
				if len(r.Matches) > 0 && math.Float64bits(r.Matches[0].Distance) != math.Float64bits(single.Matches[0].Distance) {
					t.Fatalf("request %+v: best distance %v one way, %v another", req, single.Matches[0].Distance, r.Matches[0].Distance)
				}
			}
		}
	})
}

// FuzzParallelismOption drives Options.Parallelism (and Workers) through
// degenerate values — zero, negative, far above NumCPU — asserting the
// build validates cleanly, queries neither panic nor deadlock, and answers
// are identical to the sequential reference.
func FuzzParallelismOption(f *testing.F) {
	f.Add(int64(0), int64(0))
	f.Add(int64(-1), int64(-9999))
	f.Add(int64(1), int64(1))
	f.Add(int64(math.MinInt32), int64(7))
	f.Add(int64(runtime.NumCPU()*16), int64(-3))
	f.Add(int64(255), int64(255))

	series := sineSeries(4, 32)
	ref, err := Build("ref", series, Options{ST: 0.3, Lengths: []int{8, 12}, Parallelism: 1})
	if err != nil {
		f.Fatal(err)
	}
	q := series[0].Values[4:16]
	want, err := ref.BestMatch(q, MatchAny)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, par, workers int64) {
		// Clamp into int range without losing the degenerate shapes.
		p := int(par % (1 << 20))
		w := int(workers % (1 << 20))
		b, err := Build("fuzzed", series, Options{
			ST: 0.3, Lengths: []int{8, 12}, Parallelism: p, Workers: w,
		})
		if err != nil {
			t.Fatalf("Parallelism=%d Workers=%d rejected: %v", p, w, err)
		}
		got, err := b.BestMatch(q, MatchAny)
		if err != nil {
			t.Fatalf("Parallelism=%d: BestMatch: %v", p, err)
		}
		if got.SeriesID != want.SeriesID || got.Start != want.Start ||
			got.Length != want.Length || math.Abs(got.Distance-want.Distance) > 1e-12 {
			t.Fatalf("Parallelism=%d Workers=%d: %+v, want %+v", p, w, got, want)
		}
		rs := b.ExecBatch(context.Background(), []Request{
			{Family: FamilyMatch, Query: q, Mode: MatchAny}, {Family: FamilyMatch, Mode: MatchAny}})
		if len(rs) != 2 || rs[0].Err != nil || rs[1].Err == nil {
			t.Fatalf("Parallelism=%d: batch shape wrong: %+v", p, rs)
		}
	})
}
