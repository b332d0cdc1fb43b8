package api

import (
	"cmp"
	"context"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"onex/internal/hub"
	"onex/internal/metrics"
	"onex/internal/obs"
	"onex/internal/shardrpc"
)

// slowLogCap bounds the slow-query buffer behind GET /v1/debug/slow.
const slowLogCap = 64

// requestIDFrom returns the request id the middleware minted (or honored
// from an inbound X-Request-Id); "" outside the middleware (tests calling
// handlers directly).
func requestIDFrom(ctx context.Context) string {
	return obs.RequestIDFromContext(ctx)
}

// statusRecorder captures the response status (and the machine-readable
// error code writeErr assigns) so the middleware can log and count it.
// Handlers that never call WriteHeader report 200, like net/http.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	errCode string
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// setErrCode is the interface writeErr feeds the error code back through.
func (r *statusRecorder) setErrCode(code string) { r.errCode = code }

// reqKey labels one cell of the route×status request counter.
type reqKey struct {
	route  string
	status int
}

// timed wraps every route: it mints (or honors) the request id, echoes it on
// X-Request-Id, records the route latency histogram and route×status
// counter, and emits one structured request log line — at warn level with a
// slowQuery marker when the request exceeds Config.SlowQuery.
func (s *Server) timed(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := obs.SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r.WithContext(obs.ContextWithRequestID(r.Context(), reqID)))
		d := time.Since(start)
		s.metrics.Observe(pattern, d)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.reqCounts.Add(reqKey{pattern, rec.status})

		attrs := []any{
			"requestId", reqID,
			"method", r.Method,
			"route", pattern,
			"status", rec.status,
			"durMs", float64(d.Microseconds()) / 1e3,
		}
		if name := r.PathValue("name"); name != "" {
			attrs = append(attrs, "dataset", name)
		}
		if rec.errCode != "" {
			attrs = append(attrs, "code", rec.errCode)
		}
		switch {
		case s.slowQuery > 0 && d >= s.slowQuery:
			s.logger.Warn("slow request", append(attrs, "slowQuery", true)...)
		case rec.status >= 500:
			s.logger.Error("request", attrs...)
		default:
			s.logger.Info("request", attrs...)
		}
	}
}

// explainRequested reports the ?explain=1 query-string opt-in (the JSON
// bodies additionally carry an "explain" field; either enables the trace).
func explainRequested(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true":
		return true
	}
	return false
}

// transportOf classifies how a dataset's shards are reached: "remote" with
// the worker address set when the base fans out over shardrpc, "local"
// otherwise. A nil dataset (job entries recorded after a drop) is local.
func transportOf(ds *hub.Dataset) (string, []string) {
	if ds != nil {
		if workers := ds.Workers(); len(workers) > 0 {
			return "remote", workers
		}
	}
	return "local", nil
}

// explained wraps a query result with its trace for explain-enabled
// requests: {"result": <the normal response body>, "trace": {...},
// "transport": "local"|"remote"} plus the shard-worker address set when the
// dataset is served over shardrpc.
func explained(result any, tr *obs.Trace, ds *hub.Dataset) any {
	kind, workers := transportOf(ds)
	body := map[string]any{"result": result, "trace": tr.Snapshot(), "transport": kind}
	if len(workers) > 0 {
		body["workers"] = workers
	}
	return body
}

// recordSlow feeds one finished query into the slow-query buffer (which
// keeps only the slowest slowLogCap entries; recording is always cheap).
func (s *Server) recordSlow(route string, ds *hub.Dataset, family, jobID string, tr *obs.Trace) {
	v := tr.Snapshot()
	kind, workers := transportOf(ds)
	var dataset string
	if ds != nil {
		dataset = ds.Name()
	}
	s.slow.Record(obs.SlowEntry{
		RequestID:      v.RequestID,
		Route:          route,
		Dataset:        dataset,
		Family:         family,
		JobID:          jobID,
		Transport:      kind,
		Workers:        workers,
		Time:           time.Now(),
		DurationMicros: v.DurationMicros,
		Trace:          v,
	})
}

// handleDebugSlow serves GET /v1/debug/slow: the retained slowest traced
// queries, slowest first.
func (s *Server) handleDebugSlow(w http.ResponseWriter, _ *http.Request) {
	entries := s.slow.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(entries), "slow": entries})
}

// mountPprof exposes the net/http/pprof handlers (Config.Pprof gated —
// profiling endpoints leak memory contents and must be opt-in).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// handleMetrics serves GET /metrics in Prometheus text exposition format
// 0.0.4 — hand-rolled over the same counters /v1/stats reports, with the
// per-route latency histograms rendered as native cumulative histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := metricsWriter(w, s)
	if err := pw.Err(); err != nil {
		s.logger.Error("metrics exposition", "error", err)
	}
}

// metricsWriter renders every exposed family; split from the handler so the
// sticky-error writer is testable.
func metricsWriter(w io.Writer, s *Server) *metrics.PromWriter {
	pw := metrics.NewPromWriter(w)

	// Per-route latency histograms.
	pw.Header("onex_http_request_duration_seconds", "HTTP request latency by route.", "histogram")
	s.metrics.Each(func(name string, h *metrics.Histogram) {
		pw.Hist("onex_http_request_duration_seconds", []metrics.Label{{Name: "route", Value: name}}, h)
	})

	// Route×status request counter.
	pw.Header("onex_http_requests_total", "HTTP requests by route and status.", "counter")
	counts := s.reqCounts.Snapshot()
	keys := make([]reqKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b reqKey) int {
		return cmp.Or(strings.Compare(a.route, b.route), cmp.Compare(a.status, b.status))
	})
	for _, k := range keys {
		pw.Sample("onex_http_requests_total",
			[]metrics.Label{{Name: "route", Value: k.route}, {Name: "status", Value: strconv.Itoa(k.status)}},
			float64(counts[k]))
	}

	hs := s.hub.Stats()

	// Result cache.
	pw.Header("onex_cache_lookups_total", "Query result cache lookups by outcome.", "counter")
	pw.Sample("onex_cache_lookups_total", []metrics.Label{{Name: "outcome", Value: "hit"}}, float64(hs.Cache.Hits))
	pw.Sample("onex_cache_lookups_total", []metrics.Label{{Name: "outcome", Value: "miss"}}, float64(hs.Cache.Misses))
	pw.Header("onex_cache_evictions_total", "Query result cache LRU evictions.", "counter")
	pw.Sample("onex_cache_evictions_total", nil, float64(hs.Cache.Evictions))
	pw.Header("onex_cache_entries", "Query result cache resident entries.", "gauge")
	pw.Sample("onex_cache_entries", nil, float64(hs.Cache.Entries))

	// Query work counters (summed over ready datasets).
	pw.Header("onex_query_work_total", "Online query work by kind (see /v1/stats).", "counter")
	for _, kv := range []struct {
		kind string
		v    uint64
	}{
		{"queries", hs.Query.Queries},
		{"repsExamined", hs.Query.RepsExamined},
		{"prunedByKim", hs.Query.PrunedByKim},
		{"dtwComputed", hs.Query.DTWComputed},
		{"membersTested", hs.Query.MembersTested},
	} {
		pw.Sample("onex_query_work_total", []metrics.Label{{Name: "kind", Value: kv.kind}}, float64(kv.v))
	}

	// Lifecycle events.
	pw.Header("onex_lifecycle_events_total", "Dataset lifecycle events since start.", "counter")
	for _, kv := range []struct {
		event string
		v     uint64
	}{
		{"build", hs.Events.Builds},
		{"build_failure", hs.Events.BuildFailures},
		{"extend", hs.Events.Extends},
		{"append", hs.Events.Appends},
		{"rebuild", hs.Events.Rebuilds},
	} {
		pw.Sample("onex_lifecycle_events_total", []metrics.Label{{Name: "event", Value: kv.event}}, float64(kv.v))
	}

	// Dataset states.
	pw.Header("onex_datasets", "Cataloged datasets by lifecycle state.", "gauge")
	states := make([]string, 0, len(hs.ByState))
	for st := range hs.ByState {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		pw.Sample("onex_datasets", []metrics.Label{{Name: "state", Value: st}}, float64(hs.ByState[st]))
	}

	// Jobs lifecycle.
	js := s.jobs.Stats()
	pw.Header("onex_jobs_total", "Async job lifecycle counters.", "counter")
	for _, kv := range []struct {
		event string
		v     uint64
	}{
		{"submitted", js.Submitted},
		{"rejected", js.Rejected},
		{"done", js.Done},
		{"failed", js.Failed},
		{"canceled", js.Canceled},
		{"evicted", js.Evicted},
	} {
		pw.Sample("onex_jobs_total", []metrics.Label{{Name: "event", Value: kv.event}}, float64(kv.v))
	}

	// Shard-worker fleet health (empty unless remote transports are in use).
	shardrpc.Fleet().WriteProm(pw)

	// Go runtime basics.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	pw.Header("onex_goroutines", "Current goroutine count.", "gauge")
	pw.Sample("onex_goroutines", nil, float64(runtime.NumGoroutine()))
	pw.Header("onex_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
	pw.Sample("onex_heap_alloc_bytes", nil, float64(mem.HeapAlloc))
	pw.Header("onex_uptime_seconds", "Seconds since the server started.", "gauge")
	pw.Sample("onex_uptime_seconds", nil, time.Since(s.started).Seconds())
	return pw
}
