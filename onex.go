// Package onex is a Go implementation of ONEX — "Interactive Time Series
// Exploration Powered by the Marriage of Similarity Distances" (Neamtu,
// Ahsan, Rundensteiner, Sarkozy; PVLDB 10(3), 2016).
//
// ONEX answers time-warped similarity queries interactively by splitting the
// work between two distances: an offline pass clusters every subsequence of
// the dataset into compact similarity groups using the cheap Euclidean
// distance, and online queries then explore only the group representatives
// with Dynamic Time Warping. A proven ED↔DTW triangle inequality (paper
// Lemma 2) guarantees that a representative within ST/2 of the query vouches
// for its whole group.
//
// # Quick start
//
//	base, err := onex.Build("demo", series, onex.Options{ST: 0.2})
//	if err != nil { ... }
//	match, err := base.BestMatch(query, onex.MatchAny)       // Q1
//	patterns, err := base.Seasonal(seriesID, 30)             // Q2
//	rng, err := base.RecommendThreshold(onex.Strict, -1)     // Q3
//	looser, err := base.WithThreshold(0.4)                   // Sec. 5.2
//
// The package is stdlib-only and safe for concurrent queries against a
// built Base.
package onex

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"

	"onex/internal/core"
	"onex/internal/obs"
	"onex/internal/query"
	"onex/internal/rspace"
	"onex/internal/shard"
	"onex/internal/ts"
)

// Series is one input time series: an optional label and its observations.
type Series struct {
	// Label is free-form metadata (class label, ticker symbol, …).
	Label string
	// Values holds the observations in time order.
	Values []float64
}

// Build constructs an ONEX base over the given series. The input is copied
// and (by default) min-max normalized dataset-wide before indexing, exactly
// as the paper's experiments do; callers keep their raw slices.
func Build(name string, series []Series, opts Options) (*Base, error) {
	if len(series) == 0 {
		return nil, errors.New("onex: no input series")
	}
	d := &ts.Dataset{Name: name}
	for _, s := range series {
		d.Append(s.Label, append([]float64(nil), s.Values...))
	}
	return buildDataset(d, opts)
}

// buildDataset is the shared entry for Build and the internal harness.
func buildDataset(d *ts.Dataset, opts Options) (*Base, error) {
	cfg, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	eng, err := shard.Build(d, cfg, opts.Shards, opts.ShardWorkers)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: opts}, nil
}

// Base is a built ONEX knowledge base: the similarity groups of every
// indexed subsequence length, their representatives, the GTI/LSI index
// layers, and the Similarity Parameter Space. A Base is immutable and safe
// for concurrent queries. With Options.Shards > 1 the series are
// hash-partitioned across shards and queries scatter and gather — answers
// are identical at every shard count over the same data.
type Base struct {
	eng  *shard.Engine
	opts Options
}

// ErrBuildCanceled is returned by Build when Options.Cancel fires before
// the offline construction completes.
var ErrBuildCanceled = core.ErrCanceled

// ST returns the similarity threshold the base was built with.
func (b *Base) ST() float64 { return b.eng.ST() }

// Name returns the dataset name the base was built over.
func (b *Base) Name() string { return b.eng.Name() }

// NumSeries returns the number of indexed series.
func (b *Base) NumSeries() int { return b.eng.NumSeries() }

// Shards returns the serving layout's shard count (≥ 1).
func (b *Base) Shards() int { return b.eng.ShardCount() }

// LayoutSignature fingerprints the serving layout (shard count plus each
// shard's series/subsequence population). Result caches keyed on a base
// should fold it in so the same data served under a different shard layout
// never aliases a previous incarnation's entries.
func (b *Base) LayoutSignature() uint64 { return b.eng.LayoutSignature() }

// Lengths returns the indexed subsequence lengths in increasing order.
func (b *Base) Lengths() []int {
	return b.eng.Lengths()
}

// Family selects the query class of a Request.
type Family = query.Family

const (
	// FamilyMatch is query class I: the best match of Request.Query (K ≤ 1)
	// or its K nearest subsequences, under Request.Mode.
	FamilyMatch = query.FamilyMatch
	// FamilyRange asks for every subsequence of Request.Length within
	// Request.Radius of Request.Query.
	FamilyRange = query.FamilyRange
	// FamilySeasonal is query class II over groups of Request.Length: the
	// recurring patterns of series Request.SeriesID, or of the whole dataset
	// when it is negative.
	FamilySeasonal = query.FamilySeasonal
)

// Request is one query as plain data — the paper's OUTPUT … FROM … WHERE …
// MATCH template, the clauses a family does not read left zero:
//
//	Request{Family: FamilyMatch, Query: q, Mode: MatchAny, K: 5}
//	Request{Family: FamilyRange, Query: q, Length: 24, Radius: 0.1, Exact: true}
//	Request{Family: FamilySeasonal, SeriesID: -1, Length: 24}
type Request = query.Request

// Result is the outcome of one Request: Err, or the slice of its family.
type Result struct {
	// Matches answers FamilyMatch, best first (exactly one for K ≤ 1).
	Matches []Match
	// Ranges answers FamilyRange, unordered.
	Ranges []RangeMatch
	// Patterns answers FamilySeasonal.
	Patterns []Pattern
	// Err is the request's own failure (a malformed item of a batch fails
	// alone); the slices are nil when it is set.
	Err error
}

// RangeMatch is one range-search result.
type RangeMatch struct {
	Match
	// Guaranteed marks matches admitted wholesale by the paper's Lemma 2
	// guarantee (group representative within ST/2 of the query). Unless the
	// request set Exact their Distance is the ST upper bound, not an exact
	// value — do not sort or re-threshold on it.
	Guaranteed bool
}

// Exec answers one request of any family. A canceled or expired ctx stops
// the query between lengths, member rounds and groups and yields ctx's
// error; cancellation only abandons work — any answer returned is exact. A
// trace attached to ctx with obs.ContextWithTrace records per-stage spans
// (scan, refine — per shard when the layout is sharded) and the query's work
// counters; tracing only observes, and without it the search hot path pays
// nothing. ctx also carries the request id that tags distributed per-shard
// work.
func (b *Base) Exec(ctx context.Context, req Request) Result {
	return b.toPublic(req.Family, b.eng.Exec(ctx, req))
}

// ExecBatch answers many requests, of any mix of families, in one call,
// fanning them across the base's worker pool (Options.Parallelism workers).
// Results are positional — out[i] is what Exec(ctx, reqs[i]) returns, errors
// included. Malformed requests never panic; a nil or empty batch returns an
// empty slice.
func (b *Base) ExecBatch(ctx context.Context, reqs []Request) []Result {
	rs := b.eng.ExecBatch(ctx, reqs)
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = b.toPublic(reqs[i].Family, r)
	}
	return out
}

// toPublic is the one conversion from the engine's result to the public one:
// matched windows are copied out of the base, groups become patterns. A
// successful result's slice for its family f is non-nil even when empty.
func (b *Base) toPublic(f Family, r query.Result) Result {
	if r.Err != nil {
		return Result{Err: r.Err}
	}
	var out Result
	switch f {
	case FamilyMatch:
		out.Matches = make([]Match, len(r.Matches))
		for i, m := range r.Matches {
			out.Matches[i] = b.toPublicMatch(m)
		}
	case FamilyRange:
		out.Ranges = make([]RangeMatch, len(r.Ranges))
		for i, m := range r.Ranges {
			out.Ranges[i] = RangeMatch{Match: b.toPublicMatch(m.Match), Guaranteed: m.Guaranteed}
		}
	case FamilySeasonal:
		out.Patterns = make([]Pattern, len(r.Groups))
		for i, g := range r.Groups {
			p := Pattern{
				Length:         g.Length,
				Representative: append([]float64(nil), g.Rep...),
				Occurrences:    make([]Occurrence, len(g.Members)),
			}
			for j, m := range g.Members {
				p.Occurrences[j] = Occurrence{SeriesID: m.SeriesIdx, Start: m.Start}
			}
			out.Patterns[i] = p
		}
	}
	return out
}

func (b *Base) toPublicMatch(m query.Match) Match {
	values := b.eng.Window(m.SeriesID, m.Start, m.Length)
	return Match{
		SeriesID: m.SeriesID,
		Start:    m.Start,
		Length:   m.Length,
		Distance: m.Dist,
		Values:   append([]float64(nil), values...),
	}
}

// best unpacks a best-match result.
func (r Result) best() (Match, error) {
	if r.Err != nil {
		return Match{}, r.Err
	}
	return r.Matches[0], nil
}

// The six methods below spell the paper's query classes as plain calls; each
// is Exec under context.Background().

// BestMatch answers similarity queries (class I, Q1): the subsequence most
// similar to q under DTW. MatchExact restricts candidates to len(q);
// MatchAny searches every indexed length with the paper's length-ordering
// and early-stop optimizations.
func (b *Base) BestMatch(q []float64, mode MatchMode) (Match, error) {
	return b.Exec(context.Background(), Request{Family: FamilyMatch, Query: q, Mode: mode}).best()
}

// BestKMatches generalizes BestMatch to the k nearest subsequences, ordered
// best first (k ≤ 1 is BestMatch). Fewer than k results are returned only
// when the base holds fewer candidates.
func (b *Base) BestKMatches(q []float64, mode MatchMode, k int) ([]Match, error) {
	r := b.Exec(context.Background(), Request{Family: FamilyMatch, Query: q, Mode: mode, K: k})
	return r.Matches, r.Err
}

// RangeSearch returns every subsequence of the given length whose
// normalized DTW to q is within radius. When radius ≥ the build threshold,
// whole groups are admitted through the Lemma 2 triangle inequality without
// per-member DTW computations.
func (b *Base) RangeSearch(q []float64, length int, radius float64) ([]RangeMatch, error) {
	r := b.Exec(context.Background(), Request{Family: FamilyRange, Query: q, Length: length, Radius: radius})
	return r.Ranges, r.Err
}

// RangeSearchExact is RangeSearch with exact distances on the guaranteed
// path: members admitted through the Lemma 2 guarantee get their true DTW
// computed (instead of reporting the ST upper bound) and are filtered
// against the radius like every other candidate. The result set is exactly
// the subsequences within radius, independent of the base's grouping, so
// Distance is always safe to sort or re-threshold on.
func (b *Base) RangeSearchExact(q []float64, length int, radius float64) ([]RangeMatch, error) {
	r := b.Exec(context.Background(), Request{Family: FamilyRange, Query: q, Length: length, Radius: radius, Exact: true})
	return r.Ranges, r.Err
}

// Seasonal answers the user-driven class II query: the recurring similarity
// patterns of one series — every group of the given length holding two or
// more subsequences of that series.
func (b *Base) Seasonal(seriesID, length int) ([]Pattern, error) {
	r := b.Exec(context.Background(), Request{Family: FamilySeasonal, SeriesID: seriesID, Length: length})
	return r.Patterns, r.Err
}

// SeasonalAll answers the data-driven class II query: every recurring
// similarity pattern of the given length across the whole dataset.
func (b *Base) SeasonalAll(length int) ([]Pattern, error) {
	return b.Seasonal(-1, length)
}

// The five methods below are the call shapes benchmark/ compiles against,
// kept until it moves to Exec: each packs its arguments into one Exec or
// ExecBatch call (the trace rides the context) and has no logic of its own.

// BestMatchObserved is BestMatch under ctx with an optional trace.
func (b *Base) BestMatchObserved(ctx context.Context, q []float64, mode MatchMode, rec *obs.Trace) (Match, error) {
	return b.Exec(obs.ContextWithTrace(ctx, rec), Request{Family: FamilyMatch, Query: q, Mode: mode}).best()
}

// BestKMatchesObserved is BestKMatches under ctx with an optional trace.
func (b *Base) BestKMatchesObserved(ctx context.Context, q []float64, mode MatchMode, k int, rec *obs.Trace) ([]Match, error) {
	r := b.Exec(obs.ContextWithTrace(ctx, rec), Request{Family: FamilyMatch, Query: q, Mode: mode, K: k})
	return r.Matches, r.Err
}

// RangeSearchObserved is RangeSearch (RangeSearchExact when exact is set)
// under ctx with an optional trace.
func (b *Base) RangeSearchObserved(ctx context.Context, q []float64, length int, radius float64, exact bool, rec *obs.Trace) ([]RangeMatch, error) {
	r := b.Exec(obs.ContextWithTrace(ctx, rec), Request{Family: FamilyRange, Query: q, Length: length, Radius: radius, Exact: exact})
	return r.Ranges, r.Err
}

// SeasonalObserved is Seasonal with an optional trace.
func (b *Base) SeasonalObserved(seriesID, length int, rec *obs.Trace) ([]Pattern, error) {
	r := b.Exec(obs.ContextWithTrace(context.Background(), rec), Request{Family: FamilySeasonal, SeriesID: seriesID, Length: length})
	return r.Patterns, r.Err
}

// BatchResult is one BestMatchBatch outcome: the match for its query, or a
// per-query error.
type BatchResult struct {
	Match Match
	Err   error
}

// BestMatchBatch is ExecBatch over best-match requests of one mode.
func (b *Base) BestMatchBatch(ctx context.Context, qs [][]float64, mode MatchMode) []BatchResult {
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{Family: FamilyMatch, Query: q, Mode: mode}
	}
	out := make([]BatchResult, len(qs))
	for i, r := range b.ExecBatch(ctx, reqs) {
		out[i].Match, out[i].Err = r.best()
	}
	return out
}

// Append grows one existing series in time — streaming point ingestion.
// Only the suffix subsequences (windows overlapping the appended points)
// are pushed through Algorithm 1's nearest-representative assignment, and
// the index layers refresh incrementally for the touched groups, so
// maintenance costs O(new-subsequences × g × L) distance work instead of a
// rebuild. When the accumulated drift (fraction of incrementally assigned
// members since the last full build) would cross Options.RebuildDrift,
// Append runs the full offline construction over the final data instead —
// producing exactly the base a from-scratch Build over the same normalized
// data would for the indexed length set (which stays pinned: growing a
// series never adds new indexed lengths) — and resets the drift to zero.
//
// The receiver stays valid and unchanged (the same immutability contract as
// Extend); the grown base is returned. Points are scaled into the base's
// value space with the original dataset's min/max under the default
// normalization; NormalizePerSeries bases cannot Append (the original
// per-series scale is not retained).
func (b *Base) Append(seriesID int, points ...float64) (*Base, error) {
	eng, err := b.eng.Append(seriesID, points)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: b.opts}, nil
}

// Drift reports the fraction of indexed subsequences assigned incrementally
// (Append/Extend) since the last full offline build — the staleness signal
// of the amortized rebuild policy (see Options.RebuildDrift).
func (b *Base) Drift() float64 { return b.eng.Drift() }

// Extend incrementally adds series to the base: only the new subsequences
// are clustered (joining existing groups or founding new ones per
// Algorithm 1's assignment rule) and the indexes are re-derived
// incrementally. Like Append, Extend participates in the amortized rebuild
// policy — once the extension would push drift past Options.RebuildDrift
// the full offline construction re-runs instead. The receiver stays valid;
// the extended base is returned. New series IDs continue after the
// existing ones.
func (b *Base) Extend(series []Series) (*Base, error) {
	in := make([]*ts.Series, 0, len(series))
	for _, s := range series {
		in = append(in, &ts.Series{Label: s.Label, Values: append([]float64(nil), s.Values...)})
	}
	eng, err := b.eng.Extend(in)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: b.opts}, nil
}

// RecommendThreshold answers class III queries: the similarity-threshold
// range realizing a similarity degree (Strict/Medium/Loose, Sec. 4.2).
// length < 0 uses the dataset-global critical values; otherwise the values
// local to that subsequence length.
func (b *Base) RecommendThreshold(d Degree, length int) (Range, error) {
	lo, hi, err := b.eng.Recommend(rspace.Degree(d), length)
	if err != nil {
		return Range{}, err
	}
	return Range{Low: lo, High: hi}, nil
}

// DegreeOf classifies a threshold on the base's Strict/Medium/Loose scale.
func (b *Base) DegreeOf(st float64) Degree {
	return Degree(b.eng.DegreeOf(st))
}

// WithThreshold derives a base for a different similarity threshold using
// the Sec. 5.2 split/merge adaptation — no reclustering of the raw data.
// The receiver is unchanged. Merging reads distances between
// representatives across the whole grouping, so only a one-shard in-process
// base adapts; bases with Shards > 1 or ShardWorkers refuse (rebuild at the
// new threshold instead). Adapted bases answer every query class but cannot
// be extended, appended to or saved.
func (b *Base) WithThreshold(stPrime float64) (*Base, error) {
	eng, err := b.eng.WithThreshold(stPrime)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: b.opts}, nil
}

// Save serializes the base (normalized data, similarity groups, build
// configuration) to w so it can be reopened with Load without re-running
// the offline construction. Threshold-adapted bases cannot be saved — save
// the original and re-adapt after loading.
func (b *Base) Save(w io.Writer) error {
	return b.eng.Save(w)
}

// Load reopens a base written by Save. The derived index layers are rebuilt
// from the stored groups; queries answer identically to the saved base.
func Load(r io.Reader) (*Base, error) {
	return LoadDistributed(r, nil)
}

// LoadDistributed is Load with a serving-time worker list: a non-empty
// workers slice re-derives the snapshot's shards and ships them to the
// given worker processes (shard s to workers[s%len(workers)]), so the same
// snapshot serves in-process or distributed. Worker URLs are never
// persisted — they are this process's deployment, not the base's state.
func LoadDistributed(r io.Reader, workers []string) (*Base, error) {
	eng, err := shard.Load(r, workers)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: Options{ShardWorkers: append([]string(nil), workers...)}}, nil
}

// SaveFile snapshots the base to path atomically: the stream is written to
// a temporary file in the same directory and renamed into place, so readers
// never observe a partial snapshot and a crashed save leaves any previous
// snapshot intact.
func (b *Base) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := b.Save(tmp); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// LoadFile reopens a base snapshotted with SaveFile.
func LoadFile(path string) (*Base, error) {
	return LoadFileDistributed(path, nil)
}

// LoadFileDistributed is LoadFile with a serving-time worker list (see
// LoadDistributed).
func LoadFileDistributed(path string, workers []string) (*Base, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDistributed(f, workers)
}

// ShardWorkers reports the remote worker processes serving the base's
// shards (empty for in-process layouts; a fresh slice).
func (b *Base) ShardWorkers() []string { return b.eng.WorkerURLs() }

// Close releases the base's transport resources — idle connections to
// remote shard workers; in-process bases hold none and Close is a no-op.
// Maintenance steps (Append, Extend) share unchanged shard state between
// base incarnations, so close only the final base of a lineage, at
// shutdown. Closing never touches worker-side state: the workers retain
// their shipped shards and a later LoadDistributed re-ships idempotently.
func (b *Base) Close() error { return b.eng.Close() }

// Stats reports the size and construction cost of the base (Table 4), plus
// the maintenance and shard-layout observability counters.
func (b *Base) Stats() Stats {
	st := Stats{
		Representatives: b.eng.TotalGroups(),
		Subsequences:    b.eng.TotalSubseq(),
		IndexBytes:      b.eng.SizeBytes(),
		BuildTime:       b.eng.BuildTime(),
		STHalf:          b.eng.STHalf(),
		STFinal:         b.eng.STFinal(),
		Drift:           b.eng.Drift(),
		Rebuilds:        b.eng.Rebuilds(),
		LastRebuild:     b.eng.LastRebuild(),
		Shards:          b.eng.ShardCount(),
	}
	qc := b.eng.QueryCounters()
	st.Query = QueryStats{
		Queries:       qc.Queries,
		RepsExamined:  qc.RepsExamined,
		PrunedByKim:   qc.PrunedByKim,
		PrunedByKeogh: qc.PrunedByKeogh,
		DTWComputed:   qc.DTWComputed,
		MembersTested: qc.MembersTested,
	}
	for _, s := range b.eng.ShardStats() {
		st.PerShard = append(st.PerShard, ShardStat{
			Shard:        s.Shard,
			Series:       s.Series,
			Groups:       s.Groups,
			Subsequences: s.Subsequences,
			IndexBytes:   s.IndexBytes,
		})
	}
	return st
}
