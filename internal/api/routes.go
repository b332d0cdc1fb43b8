package api

import (
	"net/http"
)

// Routes builds the server's handler tree. Every route is wrapped in the
// latency middleware, so /v1/stats carries one histogram per route pattern.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.timed(pattern, h))
	}

	handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	// Versioned multi-dataset surface.
	handle("POST /v1/datasets", s.handleRegister)
	handle("GET /v1/datasets", s.handleList)
	handle("GET /v1/datasets/{name}", s.handleDatasetInfo)
	handle("DELETE /v1/datasets/{name}", s.handleDrop)
	handle("POST /v1/datasets/{name}/match", handleQuery[matchItem](s, "match"))
	handle("POST /v1/datasets/{name}/match/batch", handleBatch[matchItem](s))
	handle("POST /v1/datasets/{name}/range", handleQuery[rangeItem](s, "range"))
	handle("POST /v1/datasets/{name}/range/batch", handleBatch[rangeItem](s))
	handle("POST /v1/datasets/{name}/seasonal/batch", handleBatch[seasonalItem](s))
	handle("POST /v1/datasets/{name}/extend", s.handleExtend)
	handle("POST /v1/datasets/{name}/append", s.handleAppend)
	handle("GET /v1/datasets/{name}/seasonal", s.handleSeasonal)
	handle("GET /v1/datasets/{name}/recommend", s.handleRecommend)
	handle("GET /v1/datasets/{name}/stats", s.handleDatasetStats)
	handle("GET /v1/stats", s.handleHubStats)

	// Observability: Prometheus text exposition and the slow-query buffer.
	handle("GET /metrics", s.handleMetrics)
	handle("GET /v1/debug/slow", s.handleDebugSlow)
	if s.pprof {
		mountPprof(mux)
	}

	// Async jobs: any query family as a pollable, cancelable job.
	handle("POST /v1/datasets/{name}/match/jobs", handleJob[matchItem](s, "match"))
	handle("POST /v1/datasets/{name}/range/jobs", handleJob[rangeItem](s, "range"))
	handle("POST /v1/datasets/{name}/seasonal/jobs", handleJob[seasonalItem](s, "seasonal"))
	handle("GET /v1/jobs", s.handleJobList)
	handle("GET /v1/jobs/{id}", s.handleJobGet)
	handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return mux
}
