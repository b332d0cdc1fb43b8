package query

import "onex/internal/obs"

// This file is the only bridge between the query engine and the obs span
// recorder. Tracing is strictly observational: Exec looks the recorder up on
// its context, and finding none must add zero allocations to the hot path
// (TestBestMatchObservedNilAllocs). All
// span attributes are deltas between two Trace snapshots, so a span's work
// attrs and the trace-level totals recorded by observe() sum to exactly
// the Trace folded into the lifetime Counters — the invariant that makes
// "explain" output reconcile with /v1/stats deltas.

// add accumulates o into t (merging per-worker or per-group traces).
func (t *Trace) add(o Trace) {
	t.RepsExamined += o.RepsExamined
	t.PrunedByKim += o.PrunedByKim
	t.PrunedByKeogh += o.PrunedByKeogh
	t.DTWComputed += o.DTWComputed
	t.MembersTested += o.MembersTested
	t.LengthsVisited += o.LengthsVisited
}

// spanWork annotates sc with the work performed between two Trace
// snapshots, omitting zero deltas to keep explain output readable.
func spanWork(sc obs.SpanScope, pre, post Trace) obs.SpanScope {
	if d := post.RepsExamined - pre.RepsExamined; d > 0 {
		sc = sc.Attr("repsExamined", int64(d))
	}
	if d := post.PrunedByKim - pre.PrunedByKim; d > 0 {
		sc = sc.Attr("prunedByKim", int64(d))
	}
	if d := post.PrunedByKeogh - pre.PrunedByKeogh; d > 0 {
		sc = sc.Attr("prunedByKeogh", int64(d))
	}
	if d := post.DTWComputed - pre.DTWComputed; d > 0 {
		sc = sc.Attr("dtwComputed", int64(d))
	}
	if d := post.MembersTested - pre.MembersTested; d > 0 {
		sc = sc.Attr("membersTested", int64(d))
	}
	return sc
}

// WorkAttrs returns tr's non-zero cascade counters as span attributes, in
// the same key order spanWork emits. Shard workers use it to annotate the
// span payloads they return over the wire, so a folded worker span carries
// exactly the counters its response Trace contributes to the request's
// "work" roll-up (the delta-agreement invariant extends across processes).
func WorkAttrs(tr Trace) []obs.Attr {
	attrs := make([]obs.Attr, 0, 5)
	if tr.RepsExamined > 0 {
		attrs = append(attrs, obs.Attr{Key: "repsExamined", Value: int64(tr.RepsExamined)})
	}
	if tr.PrunedByKim > 0 {
		attrs = append(attrs, obs.Attr{Key: "prunedByKim", Value: int64(tr.PrunedByKim)})
	}
	if tr.PrunedByKeogh > 0 {
		attrs = append(attrs, obs.Attr{Key: "prunedByKeogh", Value: int64(tr.PrunedByKeogh)})
	}
	if tr.DTWComputed > 0 {
		attrs = append(attrs, obs.Attr{Key: "dtwComputed", Value: int64(tr.DTWComputed)})
	}
	if tr.MembersTested > 0 {
		attrs = append(attrs, obs.Attr{Key: "membersTested", Value: int64(tr.MembersTested)})
	}
	return attrs
}

// observe folds a finished query's Trace into the recorder's trace-level
// work totals — the same Trace the caller folds into Counters.
func observe(rec *obs.Trace, tr Trace) {
	if rec == nil {
		return
	}
	rec.Add("repsExamined", int64(tr.RepsExamined))
	rec.Add("prunedByKim", int64(tr.PrunedByKim))
	rec.Add("prunedByKeogh", int64(tr.PrunedByKeogh))
	rec.Add("dtwComputed", int64(tr.DTWComputed))
	rec.Add("membersTested", int64(tr.MembersTested))
	rec.Add("lengthsVisited", int64(tr.LengthsVisited))
}
