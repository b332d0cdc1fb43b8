package query

import "sync/atomic"

// Counters accumulates lifetime work counters across every query an engine
// answers. The coordinator (Scatter) holds the one instance and shares it
// with every worker-budget view derived from it, so the serving layer reads
// one coherent tally per dataset engine; shards keep none. All methods are safe for
// concurrent use.
//
// Queries counts every answered call of every family. The bound-pruning
// counters (RepsExamined .. MembersTested) fold in the per-query traces of
// every cascade-running family — Q1 BestMatch, k-NN and range search alike;
// seasonal queries read the grouping without running the cascade and tick
// Queries only. Like Trace, the split between Kim prunes and DTWs depends
// on bound-tightening timing in tightening-bound parallel scans; the totals
// are what to alert on.
type Counters struct {
	queries       atomic.Uint64
	repsExamined  atomic.Uint64
	prunedByKim   atomic.Uint64
	dtwComputed   atomic.Uint64
	membersTested atomic.Uint64
}

// fold adds one query's trace into the tally.
func (c *Counters) fold(tr Trace) {
	if c == nil {
		return
	}
	c.repsExamined.Add(uint64(tr.RepsExamined))
	c.prunedByKim.Add(uint64(tr.PrunedByKim))
	c.dtwComputed.Add(uint64(tr.DTWComputed))
	c.membersTested.Add(uint64(tr.MembersTested))
}

// tick counts one answered query.
func (c *Counters) tick() {
	if c == nil {
		return
	}
	c.queries.Add(1)
}

// CountersSnapshot is a point-in-time copy of a Counters tally: the query
// work tally the engine, the library (onex.QueryStats) and the REST surface
// report.
type CountersSnapshot struct {
	// Queries counts answered queries across every family (match, k-NN,
	// range, seasonal — batch items count individually).
	Queries uint64 `json:"queries"`
	// RepsExamined .. MembersTested are the cumulative cascade work counters
	// of match, k-NN and range queries (see Trace for the per-field
	// meaning). The split between PrunedByKim and DTWComputed depends on
	// bound-tightening timing in parallel scans; the totals are the signal.
	RepsExamined  uint64 `json:"repsExamined"`
	PrunedByKim   uint64 `json:"prunedByKim"`
	DTWComputed   uint64 `json:"dtwComputed"`
	MembersTested uint64 `json:"membersTested"`
}

// Add accumulates o into s (for aggregating engines or datasets).
func (s *CountersSnapshot) Add(o CountersSnapshot) {
	s.Queries += o.Queries
	s.RepsExamined += o.RepsExamined
	s.PrunedByKim += o.PrunedByKim
	s.DTWComputed += o.DTWComputed
	s.MembersTested += o.MembersTested
}

// Snapshot copies the current tally.
func (c *Counters) Snapshot() CountersSnapshot {
	if c == nil {
		return CountersSnapshot{}
	}
	return CountersSnapshot{
		Queries:       c.queries.Load(),
		RepsExamined:  c.repsExamined.Load(),
		PrunedByKim:   c.prunedByKim.Load(),
		DTWComputed:   c.dtwComputed.Load(),
		MembersTested: c.membersTested.Load(),
	}
}

// Counters returns the coordinator's tally.
func (s *Scatter) Counters() *Counters { return s.counters }
