package onex

import (
	"fmt"
	"math"

	"onex/internal/core"
	"onex/internal/query"
)

// Options configures Build. The zero value is NOT usable: ST must be
// positive. Everything else defaults to the paper's settings.
type Options struct {
	// ST is the similarity threshold in normalized-ED units; the grouping
	// radius is ST/2. The paper's experiments use the per-dataset sweet
	// spot, around 0.2 (Sec. 6.3). Required.
	ST float64
	// Lengths restricts which subsequence lengths are indexed. nil indexes
	// every length from 2 to the longest series — the paper's default and
	// by far the most expensive choice; pass a subset for large data.
	Lengths []int
	// Seed drives the randomized insertion order of Algorithm 1. Builds
	// are deterministic given the same data, options and seed.
	Seed int64
	// Parallelism bounds the worker fan-out of both stages: the offline
	// construction and incremental maintenance (grouping, index assembly),
	// and the online stage — single queries (representative scans, group
	// mining, range-search groups) and ExecBatch. ≤ 0 selects
	// runtime.GOMAXPROCS(0); 1 forces the sequential path; values above
	// NumCPU are accepted and merely oversubscribe the scheduler. Answers
	// and groupings are identical for every setting — parallel execution is
	// answer-invariant by construction — so this is purely a
	// latency/throughput knob. It is serving-time configuration: Save does
	// not persist it, and LoadDistributed takes it again.
	Parallelism int
	// Shards hash-partitions the dataset's series across this many engine
	// shards, each with its own index layers built concurrently and queried
	// by scatter-gather. 0 and 1 both mean the one-shard layout of the same
	// engine; counts above the series count clamp to it; negative counts
	// error. Query answers — BestMatch, BestKMatches, RangeSearch(Exact),
	// Seasonal, batches — are identical at every shard count: the similarity
	// grouping is computed globally and one coordinator runs the decision
	// procedure over whatever shards exist (exact ties between
	// representatives go to the smaller group id everywhere), so like
	// Parallelism this is a scale/latency knob, not a semantics knob. The
	// SP-Space guidance surface — RecommendThreshold, DegreeOf — is likewise
	// computed from the one global grouping (on first read, with on-demand
	// inter-representative distances, so no O(g²) matrix is ever
	// materialized) and is bit-identical at every shard count. The one
	// exception, outside the query classes: threshold adaptation
	// (WithThreshold) is refused unless the layout is the one-shard
	// in-process one — kept behaviour, not a limit of the adaptation, which
	// reads only the global grouping every layout holds.
	Shards int
	// ShardWorkers lists remote worker base URLs (e.g. "http://host:9102")
	// serving the shards instead of this process: shard s is shipped to and
	// queried on ShardWorkers[s%len(ShardWorkers)] over the worker REST
	// protocol (see internal/shardrpc and the "Distributed serving" section
	// of the package documentation). Empty keeps every shard in-process.
	// With workers set, Shards ≤ 1 serves as one remote shard. Answers are
	// bit-identical to the in-process layout — workers rebuild the exact
	// per-shard index from the shipped state — so, like Shards, this is a
	// deployment knob, not a semantics knob. Worker URLs are serving-time
	// configuration: never persisted by Save, supplied again at load time
	// via LoadDistributed/LoadFileDistributed.
	ShardWorkers []string
	// RebuildDrift tunes the amortized rebuild policy of incremental
	// maintenance (Append and Extend): when the fraction of indexed
	// subsequences that joined incrementally (since the last full offline
	// build) would exceed this value after a maintenance step, the base is
	// rebuilt from scratch over the final data instead — bounding how far
	// the grouping can drift from what Algorithm 1 would build fresh. The
	// rebuild keeps the currently-indexed length set. 0 selects the default
	// of 0.25; negative disables amortized rebuilds (maintenance stays
	// incremental forever).
	RebuildDrift float64
	// Normalize selects input normalization; default is the paper's
	// dataset-wide min-max scaling.
	Normalize NormalizeMode
	// Progress, when non-nil, reports offline-construction progress: it is
	// called after each indexed subsequence length finishes grouping with
	// the completed and total length counts. Calls are serialized and done
	// increases strictly from 1 to total. Useful for long builds driven
	// from a service (see internal/hub).
	Progress func(done, total int)
	// Cancel, when non-nil, aborts an in-flight Build between lengths once
	// the channel is closed; Build then returns ErrBuildCanceled. Already
	// completed work is discarded.
	Cancel <-chan struct{}
}

func (o Options) toCore() (core.BuildConfig, error) {
	if o.ST <= 0 || math.IsNaN(o.ST) || math.IsInf(o.ST, 0) {
		return core.BuildConfig{}, fmt.Errorf("onex: Options.ST must be positive, got %v", o.ST)
	}
	if o.Shards < 0 {
		return core.BuildConfig{}, fmt.Errorf("onex: Options.Shards must be ≥ 0, got %d", o.Shards)
	}
	return core.BuildConfig{
		ST:           o.ST,
		Lengths:      o.Lengths,
		Seed:         o.Seed,
		Parallelism:  o.Parallelism,
		RebuildDrift: o.RebuildDrift,
		Normalize:    core.NormalizeMode(o.Normalize),
		Progress:     o.Progress,
		Cancel:       o.Cancel,
	}, nil
}

// NormalizeMode selects how input data is normalized before indexing.
type NormalizeMode int

const (
	// NormalizeDataset min-max scales using the dataset-wide min and max —
	// the paper's scheme (Sec. 6.1) and the default.
	NormalizeDataset NormalizeMode = NormalizeMode(core.NormalizeDataset)
	// NormalizePerSeries min-max scales each series independently; useful
	// when series live on unrelated scales (tax rates vs growth rates).
	NormalizePerSeries NormalizeMode = NormalizeMode(core.NormalizePerSeries)
	// NormalizeNone indexes the values as given.
	NormalizeNone NormalizeMode = NormalizeMode(core.NormalizeNone)
)

// MatchMode selects the MATCH clause of similarity queries (Q1).
type MatchMode = query.MatchMode

const (
	// MatchExact considers only subsequences of the query's own length.
	MatchExact = query.MatchExact
	// MatchAny considers subsequences of every indexed length.
	MatchAny = query.MatchAny
)

// Degree is the paper's similarity-strength scale (Sec. 4.2).
type Degree int

const (
	// Strict similarity: thresholds below the point where half the
	// precomputed groups would merge.
	Strict Degree = iota
	// Medium similarity: between the half-merge and all-merge thresholds.
	Medium
	// Loose similarity: at or beyond the threshold merging all groups.
	Loose
)

// String returns the paper's S/M/L letter.
func (d Degree) String() string {
	switch d {
	case Strict:
		return "S"
	case Medium:
		return "M"
	case Loose:
		return "L"
	default:
		return "?"
	}
}
