package main

import (
	"fmt"
	"math"
	"strings"
)

// The names in this file are the benchmark's contract: BENCHMARK.json, the
// README tables and later issues refer to workloads and metrics by them.

var workloadNames = []string{"scan", "refine", "serve", "ingest", "remote"}

type metricKind int

const (
	// universal end-to-end metrics are measured on every workload with
	// tracing off; they are BENCHMARK.json's end_to_end list.
	universal metricKind = iota
	// specific end-to-end metrics exist on some workloads only. They are
	// measured with tracing off like the universal ones and compare applies
	// their bound, but BENCHMARK.json can only list them under per_layer
	// (every workload must report every end_to_end metric there), where they
	// read 0 on the workloads that do not have them.
	specific
	// optional metrics are reported only when their sample is large enough
	// (a p90 needs 100 queries); BENCHMARK.json does not list them.
	optional
	// layer metrics come from the traced run and never gate a change.
	layer
)

type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // share of the parent's median it may worsen by; 0 for layer metrics
	kind   metricKind
	on     []string // workloads that measure it; nil means all five
	// exact marks a count that repeats exactly for a seed at Parallelism 1
	// (the † of the README); compare reports any two runs that disagree.
	exact bool
}

var onEmbedded = []string{"scan", "refine"}

// timingBound is the bound of every timing. On the two shared cores the
// baseline was measured on, ten runs of one program spread (first to third
// quartile, as a share of the median) by 3–16 % whatever the metric; a
// bound under that spread could only ever report "unresolved".
const timingBound = 0.25

var metricDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: timingBound, kind: universal},
	{name: "match_p50_ms", unit: "ms", bound: timingBound, kind: universal},
	{name: "match_p90_ms", unit: "ms", bound: timingBound, kind: universal},
	{name: "knn_p50_ms", unit: "ms", bound: timingBound, kind: universal},
	{name: "range_p50_ms", unit: "ms", bound: timingBound, kind: universal},
	{name: "throughput_ops_s", unit: "ops/s", higher: true, bound: timingBound, kind: universal},
	{name: "accuracy_pct", unit: "%", higher: true, bound: 0.005, kind: universal, exact: true},
	{name: "heap_live_mb", unit: "MB", bound: 0.05, kind: universal},

	{name: "repeat_p50_ms", unit: "ms", bound: timingBound, kind: specific, on: []string{"serve"}},
	{name: "append_p50_ms", unit: "ms", bound: timingBound, kind: specific, on: []string{"ingest"}},
	{name: "extend_p50_ms", unit: "ms", bound: timingBound, kind: specific, on: []string{"ingest"}},
	{name: "append_many_p50_ms", unit: "ms", bound: timingBound, kind: specific, on: []string{"ingest"}},
	{name: "reload_s", unit: "s", bound: timingBound, kind: specific, on: []string{"ingest"}},

	{name: "knn_p90_ms", unit: "ms", bound: timingBound, kind: optional, on: []string{"refine"}},
	{name: "range_p90_ms", unit: "ms", bound: timingBound, kind: optional, on: []string{"refine"}},

	{name: "dist.dtw_ns_per_cell", unit: "ns", kind: layer},
	{name: "dist.lbkeogh_ns_per_point", unit: "ns", kind: layer},
	{name: "dist.lbkim_ns_per_call", unit: "ns", kind: layer},
	{name: "dist.envelope_ns_per_point", unit: "ns", kind: layer},
	{name: "grouping.build_s", unit: "s", kind: layer},
	{name: "grouping.groups", unit: "count", kind: layer, exact: true},
	{name: "grouping.subsequences", unit: "count", kind: layer, exact: true},
	{name: "grouping.append_ms", unit: "ms", kind: layer, on: []string{"ingest"}},
	{name: "grouping.extend_ms", unit: "ms", kind: layer, on: []string{"ingest"}},
	{name: "rspace.new_s", unit: "s", kind: layer},
	{name: "rspace.index_mb", unit: "MB", kind: layer, exact: true},
	{name: "rspace.refresh_ms", unit: "ms", kind: layer, on: []string{"ingest"}},
	{name: "core.save_ms", unit: "ms", kind: layer},
	{name: "core.load_ms", unit: "ms", kind: layer},
	{name: "core.snapshot_mb", unit: "MB", kind: layer, exact: true},
	{name: "core.rebuilds", unit: "count", kind: layer, on: []string{"ingest"}, exact: true},
	{name: "query.reps_examined_per_q", unit: "count", kind: layer, exact: true},
	{name: "query.kim_pruned_share", unit: "share", kind: layer, exact: true},
	{name: "query.keogh_pruned_share", unit: "share", kind: layer, exact: true},
	{name: "query.dtw_per_q", unit: "count", kind: layer, exact: true},
	{name: "query.members_tested_per_q", unit: "count", kind: layer, exact: true},
	{name: "query.lengths_visited_per_q", unit: "count", kind: layer, exact: true},
	{name: "query.scan_ms_per_q", unit: "ms", kind: layer},
	{name: "query.refine_ms_per_q", unit: "ms", kind: layer},
	{name: "query.seasonal_us", unit: "us", kind: layer, on: onEmbedded},
	{name: "query.knn_any_ms", unit: "ms", kind: layer, on: onEmbedded},
	{name: "query.batch_speedup_x", unit: "x", kind: layer, on: onEmbedded},
	{name: "parallel.match_speedup_p2", unit: "x", kind: layer, on: []string{"scan"}},
	{name: "shard.local1_vs_mono_x", unit: "x", kind: layer, on: []string{"remote"}},
	{name: "shard.local4_match_ms", unit: "ms", kind: layer, on: []string{"remote"}},
	{name: "shard.local4_knn_ms", unit: "ms", kind: layer, on: []string{"remote"}},
	{name: "shard.index_overhead_x", unit: "x", kind: layer, on: []string{"remote"}, exact: true},
	{name: "shardrpc.rpcs_per_match", unit: "count", kind: layer, on: []string{"remote"}, exact: true},
	{name: "shardrpc.rpcs_per_knn", unit: "count", kind: layer, on: []string{"remote"}, exact: true},
	{name: "shardrpc.rpcs_per_range", unit: "count", kind: layer, on: []string{"remote"}, exact: true},
	{name: "shardrpc.bytes_per_q", unit: "bytes", kind: layer, on: []string{"remote"}},
	{name: "shardrpc.wire_ms_per_q", unit: "ms", kind: layer, on: []string{"remote"}},
	{name: "shardrpc.worker_ms_per_q", unit: "ms", kind: layer, on: []string{"remote"}},
	{name: "shardrpc.retries", unit: "count", kind: layer, on: []string{"remote"}},
	{name: "shardrpc.reships", unit: "count", kind: layer, on: []string{"remote"}},
	{name: "shardrpc.ship_s", unit: "s", kind: layer, on: []string{"remote"}},
	{name: "hub.hit_us", unit: "us", kind: layer, on: []string{"serve"}},
	{name: "hub.miss_overhead_us", unit: "us", kind: layer, on: []string{"serve"}},
	{name: "hub.cache_hit_share", unit: "share", kind: layer, on: []string{"serve"}},
	{name: "hub.register_s", unit: "s", kind: layer, on: []string{"serve"}},
	{name: "hub.swap_ms", unit: "ms", kind: layer, on: []string{"ingest"}},
	{name: "api.codec_us", unit: "us", kind: layer, on: []string{"serve"}},
	{name: "api.req_bytes_per_op", unit: "bytes", kind: layer, on: []string{"serve"}},
	{name: "api.resp_bytes_per_op", unit: "bytes", kind: layer, on: []string{"serve"}},
	{name: "api.batch_per_item_us", unit: "us", kind: layer, on: []string{"serve"}},
	{name: "api.budget_unexplained_pct", unit: "%", kind: layer, on: []string{"serve"}},
	{name: "jobs.submit_to_done_ms", unit: "ms", kind: layer, on: []string{"serve"}},
	{name: "jobs.polls_per_job", unit: "count", kind: layer, on: []string{"serve"}},
	{name: "obs.tracing_overhead_pct", unit: "%", kind: layer},
	{name: "baseline.brute_ms_per_q", unit: "ms", kind: layer},
	{name: "baseline.speedup_x", unit: "x", kind: layer},
}

var metricByName = func() map[string]*metricDef {
	m := make(map[string]*metricDef, len(metricDefs))
	for i := range metricDefs {
		m[metricDefs[i].name] = &metricDefs[i]
	}
	return m
}()

// exactOn reports whether the metric must repeat exactly on the workload.
// Query counts do not on two workloads: remote scans at Parallelism 2,
// where a hopeless representative is counted under whichever bound happened
// to kill it and the shared best-so-far bound tightens in a timing-dependent
// order; ingest's reads race its writes, so which generation of the base a
// read meets depends on timing.
func (d *metricDef) exactOn(workload string) bool {
	timed := (workload == "remote" || workload == "ingest") && strings.HasPrefix(d.name, "query.")
	return d.exact && d.measuredOn(workload) && !timed
}

func (d *metricDef) measuredOn(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// value is one reported number. Samples is how many measurements stand
// behind a timing (queries for a percentile, set-ups for setup_s).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one workload of one run reports.
type result struct {
	Workload    string           `json:"workload"`
	WallS       float64          `json:"wall_s"`
	CalibBefore float64          `json:"calib_before_ms"`
	CalibAfter  float64          `json:"calib_after_ms"`
	Noisy       bool             `json:"noisy"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Failures    []string         `json:"failures,omitempty"` // the first few, for the reader
	Metrics     map[string]value `json:"metrics"`            // end-to-end, tracing off
	Layers      map[string]value `json:"layers,omitempty"`   // traced run only
	// Work holds, per query family, the traced run's work totals and
	// sample count (the counts behind the query.* layer metrics).
	Work map[string]map[string]int64 `json:"work,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]value{}, Layers: map[string]value{}}
}

// set records a metric under its registered name and unit. A name the
// registry does not know, or a value that is not finite, is a bug in the
// benchmark, not a measurement.
func (r *result) set(name string, v float64, samples int) {
	d, ok := metricByName[name]
	if !ok {
		panic("benchmark: unregistered metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("benchmark: metric %s is %v", name, v))
	}
	dst := r.Metrics
	if d.kind == layer {
		dst = r.Layers
	}
	dst[name] = value{Value: v, Unit: d.unit, Samples: samples}
}

// fail counts one operation that errored or failed verification.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
