package query

import (
	"context"
	"fmt"

	"onex/internal/obs"
	"onex/internal/parallel"
)

// Family selects the query class a Request asks.
type Family int

const (
	// FamilyMatch is query class I: the best match of Query (K ≤ 1) or its K
	// nearest subsequences, under Mode.
	FamilyMatch Family = iota
	// FamilyRange asks for every subsequence of Length within Radius of
	// Query; Exact computes true distances on the Lemma 2 guaranteed path.
	FamilyRange
	// FamilySeasonal is query class II over groups of Length: the recurring
	// patterns of series SeriesID, or of the whole dataset when SeriesID < 0.
	FamilySeasonal
)

// Request is one query as plain data — the paper's OUTPUT … FROM … WHERE …
// MATCH template with the clauses a family does not read left zero. It is
// the one shape a query has from the HTTP decoders down to the coordinator;
// a batch is a slice of them, and the serving cache keys off the same value.
type Request struct {
	Family Family
	// Query is the sample sequence (match, range).
	Query []float64
	// Mode is the MATCH clause (match).
	Mode MatchMode
	// K is how many neighbours to return (match). 0 and 1 both ask for the
	// single best match; negative is an error.
	K int
	// Length is the subsequence length searched (range, seasonal).
	Length int
	// Radius bounds the normalized DTW of a range result.
	Radius float64
	// Exact reports true distances for range results admitted wholesale.
	Exact bool
	// SeriesID scopes a seasonal query to one series; negative means the
	// whole dataset.
	SeriesID int
}

// Result is the outcome of one Request: Err, or the slice of its family —
// Matches best first (exactly one for K ≤ 1), Ranges unordered, Groups in
// group-id order.
type Result struct {
	Matches []Match
	Ranges  []RangeResult
	Groups  []SeasonalGroup
	Err     error
}

// Exec answers one request. The request's trace, when it has one, travels
// on ctx (obs.ContextWithTrace): spans and work totals are recorded on it
// here and by every transport below, and tracing only observes — answers
// are bit-identical with and without it. A canceled or expired ctx stops
// the query between lengths, rounds and groups and yields ctx's error,
// never a partial answer.
//
// K ≤ 1 runs the best-match search rather than a heap of one, so a request
// answers the same bits whichever entry point or batch position carries it.
func (s *Scatter) Exec(ctx context.Context, req Request) Result {
	rec := obs.TraceFromContext(ctx)
	s.global.counters.tick()
	switch req.Family {
	case FamilyMatch:
		switch {
		case req.K < 0:
			return Result{Err: fmt.Errorf("query: k must be ≥ 0, got %d", req.K)}
		case req.K <= 1:
			m, err := s.bestMatch(ctx, req.Query, req.Mode, rec)
			if err != nil {
				return Result{Err: err}
			}
			return Result{Matches: []Match{m}}
		}
		ms, err := s.bestKMatches(ctx, req.Query, req.Mode, req.K, rec)
		return Result{Matches: ms, Err: err}
	case FamilyRange:
		rs, err := s.rangeSearch(ctx, req.Query, req.Length, req.Radius, req.Exact, rec)
		return Result{Ranges: rs, Err: err}
	case FamilySeasonal:
		gs, err := s.global.seasonal(ctx, req.SeriesID, req.Length, rec)
		return Result{Groups: gs, Err: err}
	default:
		return Result{Err: fmt.Errorf("query: unknown family %d", req.Family)}
	}
}

// ExecBatch answers many requests of any mix of families: out[i] is what
// Exec(ctx, reqs[i]) returns, errors included — a malformed item fails
// alone — and a nil or empty batch yields an empty slice. The worker budget
// splits between the two parallelism axes: with at least budget items each
// runs its standard pipeline on one worker (cross-query parallelism has the
// least synchronization), while a smaller batch hands each item the
// leftover budget as intra-query fan-out — so a 1-item batch is exactly as
// fast as the single call. The split is a scheduling decision only: every
// pipeline returns identical results at every worker count.
func (s *Scatter) ExecBatch(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	budget := s.global.workers
	inner := s.withWorkers(max(1, budget/len(reqs)))
	parallel.ForEach(budget, len(reqs), func(i int) {
		out[i] = inner.Exec(ctx, reqs[i])
	})
	return out
}
