package onex

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"onex/internal/obs"
)

// execRequests is the request table of the equivalence suites: every family
// in every option it has, then the hostile requests — each must fail alone,
// with the same error through every entry point, and never panic.
func execRequests(series []Series) (good, hostile []Request) {
	// Queries live in the base's value space: windows of the input under the
	// dataset-wide min-max scaling Build applies, one of them nudged.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	window := func(sid, start, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = (series[sid].Values[start+i] - lo) / (hi - lo)
		}
		return out
	}
	q := window(4, 10, 16) // length 16, indexed
	q[3] += 0.02
	short := window(2, 5, 8) // length 8, indexed
	odd := window(1, 3, 11)  // length 11, not indexed
	good = []Request{
		{Family: FamilyMatch, Query: q, Mode: MatchAny},
		{Family: FamilyMatch, Query: q, Mode: MatchExact},
		{Family: FamilyMatch, Query: odd, Mode: MatchAny, K: 1},
		{Family: FamilyMatch, Query: short, Mode: MatchExact, K: 1},
		{Family: FamilyMatch, Query: q, Mode: MatchAny, K: 3},
		{Family: FamilyMatch, Query: short, Mode: MatchExact, K: 7},
		{Family: FamilyRange, Query: q, Length: 16, Radius: 0.25},
		{Family: FamilyRange, Query: q, Length: 16, Radius: 0.25, Exact: true},
		{Family: FamilyRange, Query: odd, Length: 24, Radius: 0.1},
		{Family: FamilyRange, Query: short, Length: 8, Radius: 0},
		{Family: FamilySeasonal, SeriesID: -1, Length: 16},
		{Family: FamilySeasonal, SeriesID: -9, Length: 8},
		{Family: FamilySeasonal, SeriesID: 0, Length: 8},
		{Family: FamilySeasonal, SeriesID: 5, Length: 24},
	}
	nan := append([]float64(nil), q...)
	nan[7] = math.NaN()
	inf := append([]float64(nil), q...)
	inf[0] = math.Inf(-1)
	hostile = []Request{
		{Family: Family(9), Query: q, Length: 16},
		{Family: Family(-1)},
		{Family: FamilyMatch, Query: q, Mode: MatchAny, K: -1},
		{Family: FamilyMatch, Query: q, Mode: MatchMode(7)},
		{Family: FamilyMatch, Query: q, Mode: MatchMode(7), K: 4},
		{Family: FamilyMatch, Query: odd, Mode: MatchExact},
		{Family: FamilyMatch, Query: odd, Mode: MatchExact, K: 2},
		{Family: FamilyMatch, Query: nil, Mode: MatchAny},
		{Family: FamilyMatch, Query: []float64{}, Mode: MatchAny, K: 5},
		{Family: FamilyMatch, Query: nan, Mode: MatchAny},
		{Family: FamilyMatch, Query: inf, Mode: MatchExact, K: 2},
		{Family: FamilyRange, Query: q, Length: 0, Radius: 0.3},
		{Family: FamilyRange, Query: q, Length: -16, Radius: 0.3},
		{Family: FamilyRange, Query: q, Length: 11, Radius: 0.3},
		{Family: FamilyRange, Query: q, Length: 16, Radius: math.NaN()},
		{Family: FamilyRange, Query: q, Length: 16, Radius: math.Inf(1)},
		{Family: FamilyRange, Query: q, Length: 16, Radius: math.Inf(-1)},
		{Family: FamilyRange, Query: q, Length: 16, Radius: -0.1},
		{Family: FamilyRange, Query: nil, Length: 16, Radius: 0.3},
		{Family: FamilyRange, Query: nan, Length: 16, Radius: 0.3, Exact: true},
		{Family: FamilySeasonal, SeriesID: 0, Length: 0},
		{Family: FamilySeasonal, SeriesID: -1, Length: -8},
		{Family: FamilySeasonal, SeriesID: 0, Length: 11},
		{Family: FamilySeasonal, SeriesID: len(series), Length: 8},
	}
	return good, hostile
}

// sameResult demands two results of one request be equal to the bit: the
// same error text, or the same answer with every distance compared through
// Float64bits. Range results are a set (shard order is layout's), so they
// are compared in canonical order.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
		t.Fatalf("%s: error %v, want %v", label, got.Err, want.Err)
	}
	if len(got.Matches) != len(want.Matches) || len(got.Ranges) != len(want.Ranges) || len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%s: %d/%d/%d matches/ranges/patterns, want %d/%d/%d", label,
			len(got.Matches), len(got.Ranges), len(got.Patterns), len(want.Matches), len(want.Ranges), len(want.Patterns))
	}
	if (got.Matches == nil) != (want.Matches == nil) || (got.Ranges == nil) != (want.Ranges == nil) || (got.Patterns == nil) != (want.Patterns == nil) {
		t.Fatalf("%s: nil-ness of the result slices differs: %+v vs %+v", label, got, want)
	}
	sameBits := func(a, b Match) bool {
		return a.SeriesID == b.SeriesID && a.Start == b.Start && a.Length == b.Length &&
			math.Float64bits(a.Distance) == math.Float64bits(b.Distance) && reflect.DeepEqual(a.Values, b.Values)
	}
	for i := range want.Matches {
		if !sameBits(got.Matches[i], want.Matches[i]) {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got.Matches[i], want.Matches[i])
		}
	}
	gr, wr := append([]RangeMatch(nil), got.Ranges...), append([]RangeMatch(nil), want.Ranges...)
	canonRange(gr)
	canonRange(wr)
	for i := range wr {
		if !sameBits(gr[i].Match, wr[i].Match) || gr[i].Guaranteed != wr[i].Guaranteed {
			t.Fatalf("%s: range result %d = %+v, want %+v", label, i, gr[i], wr[i])
		}
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Fatalf("%s: patterns differ", label)
	}
}

// adapters lists every kept convenience and pinned method that can express
// req, each as a call returning the Result it amounts to. rec is the trace
// an *Observed form is handed (nil untraced); the plain forms take none and
// are listed only untraced.
func adapters(b *Base, req Request, rec *obs.Trace) map[string]func() Result {
	ctx := context.Background()
	out := map[string]func() Result{}
	one := func(m Match, err error) Result {
		if err != nil {
			return Result{Err: err}
		}
		return Result{Matches: []Match{m}}
	}
	switch req.Family {
	case FamilyMatch:
		if req.K == 0 {
			out["BestMatchObserved"] = func() Result { return one(b.BestMatchObserved(ctx, req.Query, req.Mode, rec)) }
			out["BestMatchBatch"] = func() Result {
				r := b.BestMatchBatch(obs.ContextWithTrace(ctx, rec), [][]float64{req.Query}, req.Mode)[0]
				return one(r.Match, r.Err)
			}
			if rec == nil {
				out["BestMatch"] = func() Result { return one(b.BestMatch(req.Query, req.Mode)) }
			}
		}
		out["BestKMatchesObserved"] = func() Result {
			ms, err := b.BestKMatchesObserved(ctx, req.Query, req.Mode, req.K, rec)
			return Result{Matches: ms, Err: err}
		}
		if rec == nil {
			out["BestKMatches"] = func() Result {
				ms, err := b.BestKMatches(req.Query, req.Mode, req.K)
				return Result{Matches: ms, Err: err}
			}
		}
	case FamilyRange:
		out["RangeSearchObserved"] = func() Result {
			rs, err := b.RangeSearchObserved(ctx, req.Query, req.Length, req.Radius, req.Exact, rec)
			return Result{Ranges: rs, Err: err}
		}
		if rec == nil {
			out["RangeSearch(Exact)"] = func() Result {
				search := b.RangeSearch
				if req.Exact {
					search = b.RangeSearchExact
				}
				rs, err := search(req.Query, req.Length, req.Radius)
				return Result{Ranges: rs, Err: err}
			}
		}
	case FamilySeasonal:
		out["SeasonalObserved"] = func() Result {
			ps, err := b.SeasonalObserved(req.SeriesID, req.Length, rec)
			return Result{Patterns: ps, Err: err}
		}
		if rec == nil {
			out["Seasonal"] = func() Result {
				ps, err := b.Seasonal(req.SeriesID, req.Length)
				return Result{Patterns: ps, Err: err}
			}
			if req.SeriesID < 0 {
				out["SeasonalAll"] = func() Result {
					ps, err := b.SeasonalAll(req.Length)
					return Result{Patterns: ps, Err: err}
				}
			}
		}
	}
	return out
}

// requireTraced asserts a recorder actually observed a successful query: at
// least one span, and for the cascade families (seasonal queries run none) a
// positive repsExamined tally.
func requireTraced(t *testing.T, label string, req Request, tr *obs.Trace) {
	t.Helper()
	v := tr.Snapshot()
	if len(v.Spans) == 0 {
		t.Errorf("%s: trace recorded no spans", label)
	}
	if req.Family != FamilySeasonal && v.Work["repsExamined"] <= 0 {
		t.Errorf("%s: trace work = %v, want repsExamined > 0", label, v.Work)
	}
}

// TestExecEquivalence is the one table that holds every form of a request
// equal: Exec, ExecBatch of one, ExecBatch of the whole mixed-family table
// (hostile requests included) and each kept adapter, at shard counts {1, 3}
// and parallelism {1, 8}, traced and untraced — every answer equal to the
// bit to the sequential one-shard Exec, every error equal, and tracing
// strictly observational (a traced run records spans and work and changes
// nothing).
func TestExecEquivalence(t *testing.T) {
	series := walkSeries(9, 48, 7)
	good, hostile := execRequests(series)
	reqs := append(append([]Request(nil), good...), hostile...)
	build := func(par, shards int) *Base {
		b, err := Build("fixture", series, Options{ST: 0.25, Lengths: []int{8, 16, 24}, Parallelism: par, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := build(1, 1)
	want := make([]Result, len(reqs))
	for i, req := range reqs {
		want[i] = ref.Exec(context.Background(), req)
		if failed := want[i].Err != nil; failed != (i >= len(good)) {
			t.Fatalf("request %d %+v: err = %v, hostile = %v", i, req, want[i].Err, i >= len(good))
		}
	}
	// k ≤ 1 is the best match whichever way it is spelled.
	sameResult(t, "K=1 vs K=0", ref.Exec(context.Background(), Request{Family: FamilyMatch, Query: good[0].Query, Mode: MatchAny, K: 1}), want[0])

	for _, par := range []int{1, 8} {
		for _, shards := range []int{1, 3} {
			base := build(par, shards)
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("par=%d/shards=%d/traced=%v", par, shards, traced)
				t.Run(name, func(t *testing.T) {
					newTrace := func() (*obs.Trace, context.Context) {
						if !traced {
							return nil, context.Background()
						}
						tr := obs.NewTrace(name)
						return tr, obs.ContextWithTrace(context.Background(), tr)
					}
					for i, req := range reqs {
						label := fmt.Sprintf("request %d", i)
						tr, ctx := newTrace()
						sameResult(t, label+" Exec", base.Exec(ctx, req), want[i])
						if traced && want[i].Err == nil {
							requireTraced(t, label+" Exec", req, tr)
						}
						_, ctx = newTrace()
						sameResult(t, label+" ExecBatch of 1", base.ExecBatch(ctx, []Request{req})[0], want[i])
						tr, _ = newTrace()
						for form, call := range adapters(base, req, tr) {
							sameResult(t, label+" "+form, call(), want[i])
						}
					}
					_, ctx := newTrace()
					rs := base.ExecBatch(ctx, reqs)
					if len(rs) != len(reqs) {
						t.Fatalf("ExecBatch returned %d results for %d requests", len(rs), len(reqs))
					}
					for i := range reqs {
						sameResult(t, fmt.Sprintf("mixed batch item %d", i), rs[i], want[i])
					}
					if rs := base.ExecBatch(ctx, nil); rs == nil || len(rs) != 0 {
						t.Fatalf("nil batch: %v, want an empty slice", rs)
					}
				})
			}
		}
	}
}
