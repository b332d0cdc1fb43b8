package shard

import (
	"context"

	"onex/internal/query"
)

// execer is what the suites query: an Engine, or a bare coordinator.
type execer interface {
	Exec(ctx context.Context, req query.Request) query.Result
}

// The helpers below spell one family each as an Exec call, so the suites
// read as the calls they compare.

func bestMatch(e execer, ctx context.Context, q []float64, mode query.MatchMode) (query.Match, error) {
	r := e.Exec(ctx, query.Request{Family: query.FamilyMatch, Query: q, Mode: mode})
	if r.Err != nil {
		return query.Match{}, r.Err
	}
	return r.Matches[0], nil
}

func bestK(e execer, ctx context.Context, q []float64, mode query.MatchMode, k int) ([]query.Match, error) {
	r := e.Exec(ctx, query.Request{Family: query.FamilyMatch, Query: q, Mode: mode, K: k})
	return r.Matches, r.Err
}

func rangeSearch(e execer, ctx context.Context, q []float64, length int, radius float64, exact bool) ([]query.RangeResult, error) {
	r := e.Exec(ctx, query.Request{Family: query.FamilyRange, Query: q, Length: length, Radius: radius, Exact: exact})
	return r.Ranges, r.Err
}

// seasonal asks the data-driven form when seriesID < 0.
func seasonal(e execer, ctx context.Context, seriesID, length int) ([]query.SeasonalGroup, error) {
	r := e.Exec(ctx, query.Request{Family: query.FamilySeasonal, SeriesID: seriesID, Length: length})
	return r.Groups, r.Err
}
