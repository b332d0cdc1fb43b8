package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"onex/internal/grouping"
	"onex/internal/ts"
)

// countdownCtx answers Err() == nil a fixed number of times, then
// context.Canceled for good: a deterministic way to cancel at every polling
// point of an in-process call.
type countdownCtx struct {
	context.Context
	left *atomic.Int64
}

func cancelAfter(polls int64) countdownCtx {
	c := countdownCtx{Context: context.Background(), left: new(atomic.Int64)}
	c.left.Store(polls)
	return c
}

func (c countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// phaseFixture is a one-shard engine at 8 workers over a loose threshold:
// few groups of hundreds of members, so k-NN verification takes the phase
// and runs many rounds per group.
func phaseFixture(t *testing.T) (seq, par *engine, q []float64) {
	t.Helper()
	d := equivDataset(4242, 24, 64)
	seq, par = equivProcessors(t, d, 2.0, []int{16})
	return seq, par, randomQuery(rand.New(rand.NewSource(5)), d, 16)
}

// wholeShard returns the single in-process transport of a test engine.
func wholeShard(e *engine) *LocalShard { return e.transports[0].(*LocalShard) }

// allCandidates lists every group of one length as a k-NN candidate at
// distance 0 (nothing is cut).
func allCandidates(e *engine, length int) []ScanHit {
	var c []ScanHit
	for gid := range e.grouped.ByLength[length].Groups {
		c = append(c, ScanHit{GroupID: gid})
	}
	return c
}

// TestVerifyKCancellation: a context cancelled at any polling point of the
// phase — between groups, between rounds of a large group — surfaces as the
// context's error, from the shard's call and from the coordinator, never as
// a partial answer.
func TestVerifyKCancellation(t *testing.T) {
	seq, par, q := phaseFixture(t)
	want, err := seq.BestKMatches(q, MatchExact, 5)
	if err != nil {
		t.Fatal(err)
	}
	req := VerifyKRequest{
		Length: 16, Query: q, K: 5, CutoffBits: math.Float64bits(math.Inf(1)),
		Workers: 8, Candidates: allCandidates(par, 16),
	}
	canceled, completed := 0, 0
	for polls := int64(0); completed == 0; polls++ {
		resp, err := wholeShard(par).VerifyK(cancelAfter(polls), req)
		switch {
		case errors.Is(err, context.Canceled):
			if len(resp.Hits) != 0 {
				t.Fatalf("polls=%d: canceled call still answered %d hits", polls, len(resp.Hits))
			}
			canceled++
		case err != nil:
			t.Fatalf("polls=%d: %v", polls, err)
		default:
			completed++
		}
	}
	if canceled < 4 {
		t.Fatalf("the phase polled its context only %d times; it must poll between groups and rounds", canceled)
	}

	canceled, completed = 0, 0
	for polls := int64(0); completed == 0; polls++ {
		got, err := par.BestKMatchesContext(cancelAfter(polls), q, MatchExact, 5)
		switch {
		case errors.Is(err, context.Canceled):
			if got != nil {
				t.Fatalf("polls=%d: canceled k-NN returned a partial answer %+v", polls, got)
			}
			canceled++
		case err != nil:
			t.Fatalf("polls=%d: %v", polls, err)
		default:
			completed++
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("knn[%d] = %+v, want %+v", i, got[i], want[i])
				}
			}
		}
	}
	if canceled < 8 {
		t.Fatalf("k-NN saw only %d cancellation points; the phase's are missing", canceled)
	}

	// The representative scan, in its K = 0 and top-K forms, polls per
	// rangePollEvery units of each worker, at every layout: a canceled scan is an error with an empty
	// answer, and a completed one is the answer of an uncanceled call.
	_, tight := equivProcessors(t, equivDataset(4242, 24, 64), 0.05, []int{16})
	for _, shards := range []int{1, 3} {
		for _, ls := range splitShards(t, tight.data, tight.grouped, shards) {
			n := len(ls.units[16])
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("shards=%d shard=%d workers=%d", shards, ls.shard, workers)
				for _, k := range []int{0, 1, 3} {
					req := ScanRequest{Length: 16, Query: q, K: k, CutoffBits: math.Float64bits(math.Inf(1)), Workers: workers}
					want, err := ls.Scan(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					countCancels(t, fmt.Sprintf("%s Scan k=%d", name, k), 1+n/rangePollEvery, func(ctx context.Context) (bool, error) {
						r, err := ls.Scan(ctx, req)
						if err != nil {
							return r.Hits != nil, err
						}
						if !reflect.DeepEqual(r.Hits, want.Hits) || (k == 0 && r.Trace != want.Trace) {
							t.Fatalf("%s: completed Scan k=%d differs from the uncanceled call", name, k)
						}
						return false, nil
					})
				}
			}
		}
	}

	// A range scan polls per group and per rangePollEvery members.
	wantRange, err := seq.RangeSearchExact(q, 16, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	canceled, completed = 0, 0
	for polls := int64(0); completed == 0; polls++ {
		r := par.Exec(cancelAfter(polls), Request{Family: FamilyRange, Query: q, Length: 16, Radius: 2.0, Exact: true})
		switch {
		case errors.Is(r.Err, context.Canceled):
			if r.Ranges != nil {
				t.Fatalf("polls=%d: canceled range search returned a partial set of %d", polls, len(r.Ranges))
			}
			canceled++
		case r.Err != nil:
			t.Fatalf("polls=%d: %v", polls, r.Err)
		default:
			completed++
			if len(r.Ranges) != len(wantRange) {
				t.Fatalf("range search: %d results, want %d", len(r.Ranges), len(wantRange))
			}
		}
	}
	if min := len(wantRange) / rangePollEvery; canceled < min {
		t.Fatalf("range search over %d members saw only %d cancellation points, want ≥ %d", len(wantRange), canceled, min)
	}

	// Seasonal enumeration polls on entry and per group, in both forms.
	for _, series := range []int{-1, 0} {
		wantGroups, err := seq.SeasonalSample(series, 16)
		if err != nil {
			t.Fatal(err)
		}
		canceled, completed = 0, 0
		for polls := int64(0); completed == 0; polls++ {
			r := par.Exec(cancelAfter(polls), Request{Family: FamilySeasonal, SeriesID: series, Length: 16})
			switch {
			case errors.Is(r.Err, context.Canceled):
				if r.Groups != nil {
					t.Fatalf("series=%d polls=%d: canceled seasonal returned a partial list of %d", series, polls, len(r.Groups))
				}
				canceled++
			case r.Err != nil:
				t.Fatalf("series=%d polls=%d: %v", series, polls, r.Err)
			default:
				completed++
				if len(r.Groups) != len(wantGroups) {
					t.Fatalf("series=%d: %d patterns, want %d", series, len(r.Groups), len(wantGroups))
				}
			}
		}
		if groups := len(par.grouped.ByLength[16].Groups); canceled != groups+1 {
			t.Fatalf("series=%d: seasonal saw %d cancellation points over %d groups, want one on entry and one per group", series, canceled, groups)
		}
	}
}

// splitShards lays a grouping out as the given number of in-process shards
// over the same index, shard s scanning the groups whose id is s modulo
// shards.
func splitShards(t *testing.T, d *ts.Dataset, gr *grouping.Result, shards int) []*LocalShard {
	t.Helper()
	series := make([]int, d.N())
	for i := range series {
		series[i] = i
	}
	out := make([]*LocalShard, shards)
	for s := range out {
		globalIDs := make(map[int][]int)
		owned := make(map[int][]bool)
		for _, l := range gr.Lengths {
			g := len(gr.ByLength[l].Groups)
			gids, own := make([]int, g), make([]bool, g)
			for k := range gids {
				gids[k], own[k] = k, k%shards == s
			}
			globalIDs[l], owned[l] = gids, own
		}
		ls, err := newLocalShard(d, gr, s, series, globalIDs, owned)
		if err != nil {
			t.Fatal(err)
		}
		out[s] = ls
	}
	return out
}

// countCancels runs call under countdown contexts of 0, 1, 2, … polls until
// one completes. A canceled call must answer context.Canceled and no partial
// result (call reports whether it got one); at least minCancels polls must
// have been seen before the call completed.
func countCancels(t *testing.T, name string, minCancels int, call func(context.Context) (partial bool, err error)) {
	t.Helper()
	canceled := 0
	for polls := int64(0); ; polls++ {
		partial, err := call(cancelAfter(polls))
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s polls=%d: %v", name, polls, err)
		}
		if partial {
			t.Fatalf("%s polls=%d: canceled call returned a partial answer", name, polls)
		}
		canceled++
	}
	if canceled < minCancels {
		t.Fatalf("%s saw %d cancellation points, want ≥ %d", name, canceled, minCancels)
	}
}

// TestVerifyKRejectsMalformed: a request the coordinator would never send
// is an error before any work runs; ids of groups the shard holds no member
// of are not malformed — every shard receives the whole candidate list.
func TestVerifyKRejectsMalformed(t *testing.T) {
	_, par, q := phaseFixture(t)
	ls := wholeShard(par)
	good := VerifyKRequest{
		Length: 16, Query: q, K: 3, CutoffBits: math.Float64bits(math.Inf(1)),
		Workers: 2, Candidates: allCandidates(par, 16),
	}
	if _, err := ls.VerifyK(context.Background(), good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*VerifyKRequest)) VerifyKRequest {
		r := good
		r.Candidates = append([]ScanHit(nil), good.Candidates...)
		f(&r)
		return r
	}
	bad := map[string]VerifyKRequest{
		"k zero":          mutate(func(r *VerifyKRequest) { r.K = 0 }),
		"k negative":      mutate(func(r *VerifyKRequest) { r.K = -4 }),
		"empty query":     mutate(func(r *VerifyKRequest) { r.Query = nil }),
		"NaN query":       mutate(func(r *VerifyKRequest) { r.Query = append([]float64{math.NaN()}, q[1:]...) }),
		"Inf query":       mutate(func(r *VerifyKRequest) { r.Query = append([]float64{math.Inf(-1)}, q[1:]...) }),
		"unindexed":       mutate(func(r *VerifyKRequest) { r.Length = 17 }),
		"NaN cutoff":      mutate(func(r *VerifyKRequest) { r.CutoffBits = math.Float64bits(math.NaN()) }),
		"negative radius": mutate(func(r *VerifyKRequest) { r.RadiusRaw = -1 }),
		"Inf radius":      mutate(func(r *VerifyKRequest) { r.RadiusRaw = math.Inf(1) }),
		"negative id":     mutate(func(r *VerifyKRequest) { r.Candidates[0].GroupID = -1 }),
		"NaN distance":    mutate(func(r *VerifyKRequest) { r.Candidates[0].Dist = math.NaN() }),
		"duplicate id":    mutate(func(r *VerifyKRequest) { r.Candidates = append(r.Candidates, r.Candidates[0]) }),
		"seeds over k":    mutate(func(r *VerifyKRequest) { r.Seeds = []float64{1, 2, 3, 4} }),
		"NaN seed":        mutate(func(r *VerifyKRequest) { r.Seeds = []float64{1, math.NaN()} }),
		"negative seed":   mutate(func(r *VerifyKRequest) { r.Seeds = []float64{-1} }),
	}
	for name, req := range bad {
		if _, err := ls.VerifyK(context.Background(), req); err == nil {
			t.Errorf("%s: want an error", name)
		} else if strings.Contains(name, "seed") && !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
	unknown := mutate(func(r *VerifyKRequest) {
		r.Candidates = nil
		for i := 0; i < 1000; i++ {
			r.Candidates = append(r.Candidates, ScanHit{GroupID: 1 << 20, Dist: 1})
		}
	})
	resp, err := ls.VerifyK(context.Background(), unknown)
	if err != nil || len(resp.Hits) != 0 || resp.DTWComputed != 0 {
		t.Fatalf("unknown group ids: %d hits, %d DTWs, err %v; want an empty answer", len(resp.Hits), resp.DTWComputed, err)
	}
}

// tamperShard rewrites a LocalShard's phase answer.
type tamperShard struct {
	*LocalShard
	tamper func(*VerifyKResponse)
}

func (s tamperShard) VerifyK(ctx context.Context, req VerifyKRequest) (VerifyKResponse, error) {
	resp, err := s.LocalShard.VerifyK(ctx, req)
	if err == nil {
		s.tamper(&resp)
	}
	return resp, err
}

// TestVerifyPhaseRejectsForeignHits: an answer that is not a walk of the
// candidates — a hit naming no candidate group, or hits out of the group's
// ED order — is an error, not a silently different top-k.
func TestVerifyPhaseRejectsForeignHits(t *testing.T) {
	_, par, q := phaseFixture(t)
	tampers := map[string]func(*VerifyKResponse){
		"foreign group": func(r *VerifyKResponse) { r.Hits[0].GroupID = 1 << 20 },
		"foreign member": func(r *VerifyKResponse) {
			r.Hits[len(r.Hits)-1].Start = 1 << 20
		},
		"out of order": func(r *VerifyKResponse) {
			last := len(r.Hits) - 1
			r.Hits[0], r.Hits[last] = r.Hits[last], r.Hits[0]
		},
	}
	for name, tamper := range tampers {
		sc, err := NewScatter(par.data, par.grouped, par.workers, []ShardTransport{tamperShard{wholeShard(par), tamper}})
		if err != nil {
			t.Fatal(err)
		}
		err = sc.Exec(context.Background(), Request{Family: FamilyMatch, Query: q, Mode: MatchExact, K: 5}).Err
		if err == nil || !strings.Contains(err.Error(), "outside its candidate walk") {
			t.Errorf("%s: err = %v, want the candidate-walk protocol error", name, err)
		}
	}
}
