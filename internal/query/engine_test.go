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

func (e *engine) BestMatch(q []float64, mode MatchMode) (Match, error) {
	return e.Scatter.BestMatch(context.Background(), q, mode)
}

// BestMatchTraced is BestMatch plus the query's work counters, read back
// from the trace recorder's totals.
func (e *engine) BestMatchTraced(q []float64, mode MatchMode) (Match, Trace, error) {
	rec := obs.NewTrace("")
	m, err := e.Scatter.BestMatchObserved(context.Background(), q, mode, rec)
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

func (e *engine) BestMatchBatch(qs [][]float64, mode MatchMode) []BatchResult {
	return e.Scatter.BestMatchBatch(context.Background(), qs, mode)
}

func (e *engine) BestKMatches(q []float64, mode MatchMode, k int) ([]Match, error) {
	return e.Scatter.BestKMatches(context.Background(), q, mode, k)
}

func (e *engine) RangeSearch(q []float64, length int, radius float64) ([]RangeResult, error) {
	return e.Scatter.RangeSearch(context.Background(), q, length, radius)
}

func (e *engine) RangeSearchExact(q []float64, length int, radius float64) ([]RangeResult, error) {
	return e.Scatter.RangeSearchExact(context.Background(), q, length, radius)
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
