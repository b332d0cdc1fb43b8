package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"time"

	"onex/internal/grouping"
	"onex/internal/parallel"
	"onex/internal/query"
)

// ---- queries -----------------------------------------------------------

// Exec answers one request of any family; the answer is identical at every
// layout. The engine fans per-shard work out through its ShardTransports
// (inline for one in-process shard, goroutines past one, HTTP calls when the
// layout is remote), and a canceled or timed-out ctx stops the query between
// lengths, member rounds and groups. Cancellation only ever abandons work —
// an answer returned despite a racing cancel is still exact. A trace riding
// ctx (obs.ContextWithTrace) records spans and work totals; none adds no
// overhead, and answers are identical either way.
func (e *Engine) Exec(ctx context.Context, req query.Request) query.Result {
	return e.scatter.Exec(ctx, req)
}

// ExecBatch answers many requests positionally with per-item errors; each
// item equals the corresponding Exec call.
func (e *Engine) ExecBatch(ctx context.Context, reqs []query.Request) []query.Result {
	return e.scatter.ExecBatch(ctx, reqs)
}

// QueryCounters snapshots the engine's lifetime query work tally (queries
// answered across every family plus the Q1 bound-pruning counters).
func (e *Engine) QueryCounters() query.CountersSnapshot {
	return e.scatter.Counters().Snapshot()
}

// CriticalValues returns the SP-Space critical thresholds (Sec. 4.2) of one
// length: the smallest ST′ at which half, respectively all, of its groups
// have merged. They come from the ONE global grouping every layout shares,
// never aggregated from per-shard structures, so they are bit-identical at
// every shard count. length < 0 selects the dataset-global values, the
// maxima over lengths, filling every cell on cfg.Parallelism. The first
// read of a length pays its minimum spanning tree; later reads, on this
// engine or on a maintenance successor that left the length untouched,
// return the stored values.
func (e *Engine) CriticalValues(length int) (half, final float64, err error) {
	if length >= 0 {
		if _, ok := e.sp[length]; !ok {
			return 0, 0, errors.New("shard: length not indexed")
		}
		half, final = e.cellValues(length)
		return half, final, nil
	}
	lengths := e.grouped.Lengths
	halves := make([]float64, len(lengths))
	finals := make([]float64, len(lengths))
	parallel.ForEach(e.cfg.Parallelism, len(lengths), func(i int) {
		halves[i], finals[i] = e.cellValues(lengths[i])
	})
	for i := range lengths {
		if halves[i] > half {
			half = halves[i]
		}
		if finals[i] > final {
			final = finals[i]
		}
	}
	return half, final, nil
}

// cellValues reads one indexed length's cell.
func (e *Engine) cellValues(length int) (half, final float64) {
	return e.sp[length].thresholds(e.grouped.ByLength[length].Groups, length, e.grouped.ST)
}

// WithThreshold adapts the engine to a new similarity threshold via the
// Sec. 5.2 split/merge rules (grouping.Adapt over the global grouping),
// returning a new engine over the adapted grouping; the receiver is
// unchanged. Adapted engines answer every query class (and adapt again)
// but cannot be extended, appended to or saved — grow or persist the
// original base, then re-adapt.
//
// Only the one-shard in-process layout adapts; the others refuse —
// rebuild at the new threshold (or adapt a one-shard base) instead. The
// refusal is kept behaviour, not a limit of Adapt, which reads only the
// global grouping every layout holds.
func (e *Engine) WithThreshold(stPrime float64) (*Engine, error) {
	if !e.whole() {
		return nil, errors.New("shard: sharded bases cannot adapt thresholds in place; rebuild with the new ST (or adapt an unsharded base)")
	}
	start := time.Now()
	adapted, err := grouping.Adapt(e.data, e.grouped, stPrime)
	if err != nil {
		return nil, err
	}
	next := &Engine{
		shards: 1, cfg: e.cfg, normMin: e.normMin, normMax: e.normMax,
		data: e.data, grouped: adapted, adapted: true,
	}
	if err := next.assemble(nil, nil, nil); err != nil {
		return nil, err
	}
	next.buildTime = time.Since(start)
	return next, nil
}

// ---- accessors ---------------------------------------------------------

// ST returns the build similarity threshold.
func (e *Engine) ST() float64 {
	return e.grouped.ST
}

// Name returns the dataset name.
func (e *Engine) Name() string {
	return e.data.Name
}

// NumSeries returns the number of indexed series.
func (e *Engine) NumSeries() int {
	return e.data.N()
}

// Lengths returns the indexed subsequence lengths, ascending (a fresh
// slice).
func (e *Engine) Lengths() []int {
	return append([]int(nil), e.grouped.Lengths...)
}

// Window returns the normalized values of one indexed subsequence. The
// slice aliases the engine's (immutable) data; callers must not mutate it.
func (e *Engine) Window(seriesID, start, length int) []float64 {
	return e.data.Series[seriesID].Values[start : start+length]
}

// Drift reports the incremental-member fraction since the last full build.
func (e *Engine) Drift() float64 {
	return e.grouped.Drift()
}

// BuildTime reports the offline construction cost (or, after a snapshot
// reload, the original build's).
func (e *Engine) BuildTime() time.Duration {
	return e.buildTime
}

// Rebuilds counts drift-triggered full rebuilds along the maintenance
// lineage.
func (e *Engine) Rebuilds() int64 {
	return e.rebuilds
}

// LastRebuild is the wall-clock cost of the most recent drift-triggered
// rebuild (zero if none).
func (e *Engine) LastRebuild() time.Duration {
	return e.lastRebuild
}

// TotalGroups counts representatives across all lengths.
func (e *Engine) TotalGroups() int {
	return e.grouped.TotalGroups()
}

// TotalSubseq counts indexed subsequences.
func (e *Engine) TotalSubseq() int64 {
	return e.grouped.TotalSubseq
}

// SizeBytes estimates the resident index size: the sum over shards of each
// one's GTI+LSI structures (grouping.Result.SizeBytes — group ids, member
// ids and EDs, representatives), linear in its restricted group set. A group spanning k shards counts its representative k times.
func (e *Engine) SizeBytes() int64 {
	var total int64
	for _, p := range e.parts {
		total += p.transport.Stats().IndexBytes
	}
	return total
}

// ---- shard observability ----------------------------------------------

// Parallelism reports the resolved worker fan-out of the engine's queries,
// assembly and maintenance (≥ 1).
func (e *Engine) Parallelism() int {
	return parallel.Resolve(e.cfg.Parallelism)
}

// ShardCount reports the serving layout's shard count (≥ 1).
func (e *Engine) ShardCount() int {
	return e.shards
}

// ShardStats describes each shard of the layout.
func (e *Engine) ShardStats() []query.ShardStat {
	out := make([]query.ShardStat, len(e.parts))
	for s, p := range e.parts {
		out[s] = query.ShardStat{Shard: s, ShardStats: p.transport.Stats()}
	}
	return out
}

// WorkerURLs reports the remote worker processes serving the layout (a
// fresh slice; empty for in-process layouts).
func (e *Engine) WorkerURLs() []string {
	return append([]string(nil), e.workerURLs...)
}

// Close releases the engine's transport resources (idle worker
// connections). Maintenance steps share unaffected parts — and their
// transports — between engine incarnations, so close only the final engine
// of a lineage, at shutdown.
func (e *Engine) Close() error {
	var first error
	for _, p := range e.parts {
		if p.transport == nil {
			continue
		}
		if err := p.transport.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LayoutSignature fingerprints the serving layout — shard count plus each
// shard's series and subsequence population. Serving caches fold it into
// their keys so re-registering the same data under a different shard layout
// can never alias a previous incarnation's entries. It is computed once, at
// assembly, so reading it per query costs nothing.
func (e *Engine) LayoutSignature() uint64 { return e.layoutSig }

// layoutSignature fingerprints a layout's parts (see LayoutSignature).
func layoutSignature(parts []*part) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, p := range parts {
		st := p.transport.Stats()
		put(uint64(st.Series))
		put(uint64(st.Subsequences))
	}
	put(uint64(len(parts)))
	return h.Sum64()
}
