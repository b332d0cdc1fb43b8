package query

import (
	"context"
	"fmt"

	"onex/internal/grouping"
	"onex/internal/obs"
)

// SeasonalGroup is one answer unit of query class II: an ONEX similarity
// group whose listed members recur (all mutually similar, Lemma 1).
type SeasonalGroup struct {
	// Length and GroupID identify the source group G^Length_GroupID.
	Length, GroupID int
	// Members are the recurring subsequences (≥ 2 of them).
	Members []grouping.Member
	// Rep is the group representative, useful for display.
	Rep []float64
}

// seasonal answers query class II over the groups of one length (Algorithm
// 2.B). With seriesID ≥ 0 it is the user-driven form (queryType=Single):
// every group holding at least two subsequences of that series — the
// sample's recurring intra-series similarity patterns, listing only its own
// members. With seriesID < 0 it is the data-driven form (queryType=NULL):
// every group holding at least two subsequences — the dataset's recurring
// patterns at that scale.
//
// Seasonal queries read the global grouping directly — no lower-bound cascade runs
// — so a non-nil rec gets one "seasonal" span carrying enumeration sizes and
// nothing folds into the work counters (the cascade trace is genuinely
// empty). ctx is polled on entry and per group: a canceled or expired
// request gets ctx's error, never a partial pattern list.
func (s *Scatter) seasonal(ctx context.Context, seriesID, length int, rec *obs.Trace) ([]SeasonalGroup, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e := s.grouped.ByLength[length]
	if e == nil {
		return nil, fmt.Errorf("query: length %d not indexed", length)
	}
	if seriesID >= s.data.N() {
		return nil, fmt.Errorf("query: series %d out of range [0,%d)", seriesID, s.data.N())
	}
	var sc obs.SpanScope
	if rec != nil {
		sc = rec.StartSpan("seasonal")
	}
	var out []SeasonalGroup
	for k, g := range e.Groups {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		members := g.Members
		if seriesID >= 0 {
			members = nil
			for _, m := range g.Members {
				if m.SeriesIdx == seriesID {
					members = append(members, m)
				}
			}
		}
		if len(members) >= 2 {
			out = append(out, SeasonalGroup{Length: length, GroupID: k, Members: members, Rep: g.Rep})
		}
	}
	if rec != nil {
		seasonalSpan(sc, length, len(e.Groups), out).End()
	}
	return out, nil
}

// seasonalSpan annotates a seasonal span with its enumeration sizes.
func seasonalSpan(sc obs.SpanScope, length, groups int, out []SeasonalGroup) obs.SpanScope {
	members := 0
	for _, g := range out {
		members += len(g.Members)
	}
	return sc.Attr("length", int64(length)).
		Attr("groupsScanned", int64(groups)).
		Attr("patterns", int64(len(out))).
		Attr("members", int64(members))
}
