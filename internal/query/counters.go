package query

import "sync/atomic"

// Counters accumulates lifetime work counters across every query an engine
// answers. The coordinator's processor holds the one instance and shares it
// with every worker-budget view derived from it, so the serving layer reads
// one coherent tally per dataset engine. All methods are safe for
// concurrent use.
//
// Queries counts every answered call of every family. The bound-pruning
// counters (RepsExamined .. MembersTested) fold in the per-query traces of
// every cascade-running family — Q1 BestMatch, k-NN and range search alike;
// seasonal queries read the grouping without running the cascade and tick
// Queries only. Like Trace, the pruning split between Kim and Keogh depends
// on bound-tightening timing in tightening-bound parallel scans; the totals
// are what to alert on.
type Counters struct {
	queries       atomic.Uint64
	repsExamined  atomic.Uint64
	prunedByKim   atomic.Uint64
	prunedByKeogh atomic.Uint64
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
	c.prunedByKeogh.Add(uint64(tr.PrunedByKeogh))
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

// CountersSnapshot is a point-in-time copy of a Counters tally, shaped for
// the REST surface.
type CountersSnapshot struct {
	// Queries counts answered queries across every family.
	Queries uint64 `json:"queries"`
	// RepsExamined .. MembersTested are the cumulative Q1 work counters
	// (see Trace for the per-field meaning).
	RepsExamined  uint64 `json:"repsExamined"`
	PrunedByKim   uint64 `json:"prunedByKim"`
	PrunedByKeogh uint64 `json:"prunedByKeogh"`
	DTWComputed   uint64 `json:"dtwComputed"`
	MembersTested uint64 `json:"membersTested"`
}

// Add accumulates o into s (for aggregating engines or datasets).
func (s *CountersSnapshot) Add(o CountersSnapshot) {
	s.Queries += o.Queries
	s.RepsExamined += o.RepsExamined
	s.PrunedByKim += o.PrunedByKim
	s.PrunedByKeogh += o.PrunedByKeogh
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
		PrunedByKeogh: c.prunedByKeogh.Load(),
		DTWComputed:   c.dtwComputed.Load(),
		MembersTested: c.membersTested.Load(),
	}
}

// Counters returns the coordinator's tally.
func (s *Scatter) Counters() *Counters { return s.global.counters }
