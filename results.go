package onex

import (
	"fmt"
	"time"

	"onex/internal/query"
)

// Match is a similarity-query answer.
type Match struct {
	// SeriesID and Start locate the matched subsequence in the input; the
	// SeriesID is the index of the series in the Build call.
	SeriesID, Start, Length int
	// Distance is the normalized DTW (paper Def. 6) between the query and
	// the match, measured on the normalized data the base indexes.
	Distance float64
	// Values is a copy of the matched (normalized) window.
	Values []float64
}

// String summarizes the match in the paper's (Xp)^i_j notation.
func (m Match) String() string {
	return fmt.Sprintf("(X%d)^%d_%d dist=%.4f", m.SeriesID, m.Length, m.Start, m.Distance)
}

// Occurrence locates one recurrence of a seasonal pattern.
type Occurrence struct {
	SeriesID, Start int
}

// Pattern is a seasonal-similarity answer: a group of mutually similar
// subsequences (every pair within ST by Lemma 1) that recurs.
type Pattern struct {
	// Length is the subsequence length of every occurrence.
	Length int
	// Occurrences lists where the pattern recurs (≥ 2 entries).
	Occurrences []Occurrence
	// Representative is the group's point-wise average shape.
	Representative []float64
}

// Range is a recommended similarity-threshold interval.
type Range struct {
	Low, High float64
}

// Contains reports whether st falls inside the recommendation.
func (r Range) Contains(st float64) bool { return st >= r.Low && st <= r.High }

// String formats the range.
func (r Range) String() string { return fmt.Sprintf("[%.4f, %.4f]", r.Low, r.High) }

// Stats reports base size and construction cost (the quantities of the
// paper's Table 4 and Figs. 5–6). The SP-Space critical thresholds are not
// statistics: they are computed on demand, through RecommendThreshold
// (Medium's range is [ST_half, ST_final]).
type Stats struct {
	// Representatives counts the groups across all indexed lengths.
	Representatives int
	// Subsequences counts every indexed subsequence.
	Subsequences int64
	// IndexBytes estimates the resident size of the GTI+LSI structures.
	IndexBytes int64
	// BuildTime is the offline construction time.
	BuildTime time.Duration
	// Drift is the fraction of subsequences assigned incrementally
	// (Append/Extend) since the last full offline build — see
	// Options.RebuildDrift.
	Drift float64
	// Rebuilds counts drift-triggered full rebuilds along the base's
	// Append/Extend lineage and LastRebuild records the most recent one's
	// wall-clock cost (zero if none) — the amortized rebuild policy's
	// observability counters. Process-local: snapshots do not persist them.
	Rebuilds    int64
	LastRebuild time.Duration
	// Shards is the serving layout's shard count (≥ 1)
	// and PerShard describes each shard — see Options.Shards.
	Shards   int
	PerShard []ShardStat
	// Parallelism is the resolved worker fan-out the base serves and
	// maintains with (Options.Parallelism, GOMAXPROCS when that is ≤ 0; for
	// a reloaded base, the parallelism given to LoadDistributed).
	Parallelism int
	// Query tallies the online work the base has answered since
	// construction. Process-local: snapshots do not persist it, and
	// Extend/Append/WithThreshold derivatives start a fresh tally.
	Query QueryStats
}

// QueryStats is a base's lifetime online-query work tally (field by field
// in query.CountersSnapshot).
type QueryStats = query.CountersSnapshot

// ShardStat describes one shard of a base's serving layout: its index, the
// series routed to it, its restricted similarity groups across lengths (a
// group whose members span k shards appears in k of these counts), its
// resident subsequences and its GTI+LSI index size.
type ShardStat = query.ShardStat
