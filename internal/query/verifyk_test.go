package query

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
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
	seq, par = equivProcessors(t, d, 2.0, []int{16}, Options{})
	return seq, par, randomQuery(rand.New(rand.NewSource(5)), d, 16)
}

// wholeShard returns the single in-process transport of a test engine.
func wholeShard(e *engine) *LocalShard { return e.transports[0].(*LocalShard) }

// allCandidates lists every group of one length as a k-NN candidate at
// distance 0 (nothing is cut).
func allCandidates(e *engine, length int) []FixedHit {
	var c []FixedHit
	for gid := range e.Base().Entry(length).Groups {
		c = append(c, FixedHit{GroupID: gid})
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
		if groups := len(par.Base().Entry(16).Groups); canceled != groups+1 {
			t.Fatalf("series=%d: seasonal saw %d cancellation points over %d groups, want one on entry and one per group", series, canceled, groups)
		}
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
		r.Candidates = append([]FixedHit(nil), good.Candidates...)
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
	}
	for name, req := range bad {
		if _, err := ls.VerifyK(context.Background(), req); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
	unknown := mutate(func(r *VerifyKRequest) {
		r.Candidates = nil
		for i := 0; i < 1000; i++ {
			r.Candidates = append(r.Candidates, FixedHit{GroupID: 1 << 20, Dist: 1})
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
		sc, err := NewScatter(par.Base(), par.proc.opts, []ShardTransport{tamperShard{wholeShard(par), tamper}})
		if err != nil {
			t.Fatal(err)
		}
		err = sc.Exec(context.Background(), Request{Family: FamilyMatch, Query: q, Mode: MatchExact, K: 5}).Err
		if err == nil || !strings.Contains(err.Error(), "outside its candidate walk") {
			t.Errorf("%s: err = %v, want the candidate-walk protocol error", name, err)
		}
	}
}
