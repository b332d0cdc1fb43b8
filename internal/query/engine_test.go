package query

import (
	"context"

	"onex/internal/obs"
	"onex/internal/rspace"
)

// engine is the one-shard in-process layout over a base — what
// internal/shard assembles for an unsharded base — under the context-free
// call shapes this package's tests use.
type engine struct {
	*Scatter
	// proc is the single shard's processor.
	proc *Processor
}

func newEngine(b *rspace.Base, opts Options) (*engine, error) {
	proc, err := New(b, opts)
	if err != nil {
		return nil, err
	}
	ls, err := NewWholeShard(proc)
	if err != nil {
		return nil, err
	}
	sc, err := NewScatter(b, opts, []ShardTransport{ls})
	if err != nil {
		return nil, err
	}
	return &engine{Scatter: sc, proc: proc}, nil
}

func (e *engine) Base() *rspace.Base { return e.proc.base }

func (e *engine) lengthOrder(queryLen int) []int { return e.global.lengthOrder(queryLen) }

// best unpacks a best-match Result.
func best(r Result) (Match, error) {
	if r.Err != nil {
		return Match{}, r.Err
	}
	return r.Matches[0], nil
}

func (e *engine) BestMatch(q []float64, mode MatchMode) (Match, error) {
	return e.BestMatchObserved(context.Background(), q, mode, nil)
}

// BestMatchObserved is BestMatch under ctx with rec (possibly nil) riding it.
func (e *engine) BestMatchObserved(ctx context.Context, q []float64, mode MatchMode, rec *obs.Trace) (Match, error) {
	return best(e.Exec(obs.ContextWithTrace(ctx, rec), Request{Family: FamilyMatch, Query: q, Mode: mode}))
}

// BestMatchTraced is BestMatch plus the query's work counters, read back
// from the trace recorder's totals.
func (e *engine) BestMatchTraced(q []float64, mode MatchMode) (Match, Trace, error) {
	rec := obs.NewTrace("")
	m, err := e.BestMatchObserved(context.Background(), q, mode, rec)
	w := rec.Snapshot().Work
	return m, Trace{
		RepsExamined:   int(w["repsExamined"]),
		PrunedByKim:    int(w["prunedByKim"]),
		PrunedByKeogh:  int(w["prunedByKeogh"]),
		DTWComputed:    int(w["dtwComputed"]),
		MembersTested:  int(w["membersTested"]),
		LengthsVisited: int(w["lengthsVisited"]),
	}, err
}

// BestMatchBatch is ExecBatch over best-match requests of one mode.
func (e *engine) BestMatchBatch(qs [][]float64, mode MatchMode) []Result {
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{Family: FamilyMatch, Query: q, Mode: mode}
	}
	return e.ExecBatch(context.Background(), reqs)
}

func (e *engine) BestKMatches(q []float64, mode MatchMode, k int) ([]Match, error) {
	return e.BestKMatchesContext(context.Background(), q, mode, k)
}

func (e *engine) BestKMatchesContext(ctx context.Context, q []float64, mode MatchMode, k int) ([]Match, error) {
	r := e.Exec(ctx, Request{Family: FamilyMatch, Query: q, Mode: mode, K: k})
	return r.Matches, r.Err
}

func (e *engine) RangeSearch(q []float64, length int, radius float64) ([]RangeResult, error) {
	r := e.Exec(context.Background(), Request{Family: FamilyRange, Query: q, Length: length, Radius: radius})
	return r.Ranges, r.Err
}

func (e *engine) RangeSearchExact(q []float64, length int, radius float64) ([]RangeResult, error) {
	r := e.Exec(context.Background(), Request{Family: FamilyRange, Query: q, Length: length, Radius: radius, Exact: true})
	return r.Ranges, r.Err
}

func (e *engine) SeasonalSample(seriesID, length int) ([]SeasonalGroup, error) {
	r := e.Exec(context.Background(), Request{Family: FamilySeasonal, SeriesID: seriesID, Length: length})
	return r.Groups, r.Err
}

func (e *engine) SeasonalAll(length int) ([]SeasonalGroup, error) {
	return e.SeasonalSample(-1, length)
}

// AdaptThreshold adapts the shard's grouping and indexes the result as a
// new one-shard engine, as shard.Engine.WithThreshold does.
func (e *engine) AdaptThreshold(stPrime float64) (*engine, error) {
	adapted, err := e.proc.AdaptThreshold(stPrime)
	if err != nil {
		return nil, err
	}
	b, err := rspace.New(e.proc.base.Dataset, adapted, rspace.Options{})
	if err != nil {
		return nil, err
	}
	return newEngine(b, e.proc.opts)
}
