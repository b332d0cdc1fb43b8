package onex

import (
	"fmt"
	"time"
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
// paper's Table 4 and Figs. 5–6).
type Stats struct {
	// Representatives counts the groups across all indexed lengths.
	Representatives int
	// Subsequences counts every indexed subsequence.
	Subsequences int64
	// IndexBytes estimates the resident size of the GTI+LSI structures.
	IndexBytes int64
	// BuildTime is the offline construction time.
	BuildTime time.Duration
	// STHalf and STFinal are the global critical thresholds of the
	// Similarity Parameter Space (Sec. 4.2).
	STHalf, STFinal float64
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
	// Query tallies the online work the base has answered since
	// construction. Process-local: snapshots do not persist it, and
	// Extend/Append/WithThreshold derivatives start a fresh tally.
	Query QueryStats
}

// QueryStats is a base's lifetime online-query work tally.
type QueryStats struct {
	// Queries counts answered queries across every family (match, k-NN,
	// range, seasonal — batch items count individually).
	Queries uint64
	// RepsExamined through MembersTested are the cumulative Q1 BestMatch
	// work counters — the path where the LB_Kim/LB_Keogh pruning cascade
	// operates. The split between PrunedByKim and PrunedByKeogh depends on
	// bound-tightening timing in parallel scans (a hopeless representative
	// is counted under whichever check happened to kill it); the totals are
	// the signal.
	RepsExamined  uint64
	PrunedByKim   uint64
	PrunedByKeogh uint64
	DTWComputed   uint64
	MembersTested uint64
}

// ShardStat describes one shard of a base's serving layout.
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Series counts the series routed to the shard.
	Series int
	// Groups counts the shard's restricted similarity groups across lengths
	// (a group whose members span k shards appears in k of these counts).
	Groups int
	// Subsequences counts the indexed subsequences resident in the shard.
	Subsequences int64
	// IndexBytes estimates the shard's GTI+LSI index size.
	IndexBytes int64
}
