package api

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"onex"
	"onex/internal/obs"
	"onex/internal/shardrpc"
)

// matchItem is one match/k-NN query — the body of the single endpoint and
// the per-item shape of the batch and jobs envelopes.
type matchItem struct {
	Query []float64 `json:"query"`
	Mode  string    `json:"mode"` // "any" (default) or "exact"
	K     int       `json:"k"`    // 0/1 = best match; >1 = k-NN
	// Explain returns the query's trace alongside the result (single and
	// single-form job endpoints; accepted but ignored on batch items —
	// batches answer many queries through one engine call and have no
	// per-item trace).
	Explain bool `json:"explain"`
}

func parseMode(s string) (onex.MatchMode, error) {
	switch s {
	case "", "any":
		return onex.MatchAny, nil
	case "exact":
		return onex.MatchExact, nil
	default:
		return 0, badRequest(`mode must be "any" or "exact"`)
	}
}

// toKNN validates the item and converts it to the hub's batch query shape.
func (it matchItem) toKNN() (onex.KNNQuery, error) {
	mode, err := parseMode(it.Mode)
	if err != nil {
		return onex.KNNQuery{}, err
	}
	if it.K < 0 {
		return onex.KNNQuery{}, badRequest("k must be ≥ 0")
	}
	return onex.KNNQuery{Query: it.Query, Mode: mode, K: it.K}, nil
}

type matchResponse struct {
	SeriesID int       `json:"seriesId"`
	Start    int       `json:"start"`
	Length   int       `json:"length"`
	Distance float64   `json:"distance"`
	Values   []float64 `json:"values,omitempty"`
}

func toMatchResponse(m onex.Match, withValues bool) matchResponse {
	r := matchResponse{
		SeriesID: m.SeriesID, Start: m.Start, Length: m.Length, Distance: m.Distance,
	}
	if withValues {
		r.Values = m.Values
	}
	return r
}

// matchResult shapes a match answer exactly like the single endpoint: a
// bare match object for k ≤ 1, {"matches": [...]} for k-NN. Batch items
// and job results reuse it so the async answer is bit-identical to sync.
func matchResult(k int, ms []onex.Match, withValues bool) any {
	if k > 1 {
		out := make([]matchResponse, 0, len(ms))
		for _, m := range ms {
			out = append(out, toMatchResponse(m, withValues))
		}
		return map[string]any{"matches": out}
	}
	return toMatchResponse(ms[0], withValues)
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req matchItem
	if err := s.decodeStrict(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	kq, err := req.toKNN()
	if err != nil {
		writeErr(w, err)
		return
	}
	withValues := r.URL.Query().Get("values") == "true"
	tr := obs.NewTrace(requestIDFrom(r.Context()))
	ms, err := ds.MatchObserved(r.Context(), kq.Query, kq.Mode, kq.K, tr)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.recordSlow(r.URL.Path, ds, "match", "", tr)
	body := matchResult(kq.K, ms, withValues)
	if req.Explain || explainRequested(r) {
		body = explained(body, tr, ds)
	}
	writeJSON(w, http.StatusOK, body)
}

// rangeItem is one range query — single body and batch/jobs item shape.
type rangeItem struct {
	Query  []float64 `json:"query"`
	Length int       `json:"length"`
	Radius float64   `json:"radius"`
	// Exact computes true DTW distances for matches admitted through the
	// Lemma 2 guarantee instead of reporting the ST upper bound.
	Exact bool `json:"exact"`
	// Explain returns the query's trace alongside the result (single and
	// single-form job endpoints; accepted but ignored on batch items).
	Explain bool `json:"explain"`
}

type rangeMatchResponse struct {
	matchResponse
	Guaranteed bool `json:"guaranteed"`
}

// rangeResult shapes a range answer exactly like the single endpoint.
func rangeResult(ms []onex.RangeMatch) any {
	out := make([]rangeMatchResponse, 0, len(ms))
	for _, m := range ms {
		out = append(out, rangeMatchResponse{toMatchResponse(m.Match, false), m.Guaranteed})
	}
	return map[string]any{"count": len(out), "results": out}
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req rangeItem
	if err := s.decodeStrict(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	tr := obs.NewTrace(requestIDFrom(r.Context()))
	ms, err := ds.RangeObserved(r.Context(), req.Query, req.Length, req.Radius, req.Exact, tr)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.recordSlow(r.URL.Path, ds, "range", "", tr)
	body := rangeResult(ms)
	if req.Explain || explainRequested(r) {
		body = explained(body, tr, ds)
	}
	writeJSON(w, http.StatusOK, body)
}

// seasonalItem is one seasonal query: the batch/jobs item shape (the single
// endpoint takes the same parameters as GET query strings). A nil Series
// (or any negative id) means dataset-wide.
type seasonalItem struct {
	Series *int `json:"series"`
	Length int  `json:"length"`
	// Explain returns the query's trace alongside the result (single-form
	// job endpoint; accepted but ignored on batch items).
	Explain bool `json:"explain"`
}

func (it seasonalItem) seriesID() int {
	if it.Series == nil {
		return -1
	}
	return *it.Series
}

// seasonalResult shapes a seasonal answer exactly like the single endpoint.
func seasonalResult(patterns []onex.Pattern) any {
	return map[string]any{"count": len(patterns), "patterns": patterns}
}

func (s *Server) handleSeasonal(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query()
	length, err := strconv.Atoi(q.Get("length"))
	if err != nil {
		writeErr(w, badRequest("length must be an integer"))
		return
	}
	seriesID := -1 // dataset-wide
	if sid := q.Get("series"); sid != "" {
		if seriesID, err = strconv.Atoi(sid); err != nil || seriesID < 0 {
			writeErr(w, badRequest("series must be a non-negative integer"))
			return
		}
	}
	tr := obs.NewTrace(requestIDFrom(r.Context()))
	patterns, err := ds.SeasonalObserved(seriesID, length, tr)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.recordSlow(r.URL.Path, ds, "seasonal", "", tr)
	body := seasonalResult(patterns)
	if explainRequested(r) {
		body = explained(body, tr, ds)
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query()
	var deg onex.Degree
	switch q.Get("degree") {
	case "S", "s":
		deg = onex.Strict
	case "M", "m":
		deg = onex.Medium
	case "L", "l":
		deg = onex.Loose
	default:
		writeErr(w, badRequest("degree must be S, M or L"))
		return
	}
	length := -1
	if ls := q.Get("length"); ls != "" {
		var err error
		if length, err = strconv.Atoi(ls); err != nil {
			writeErr(w, badRequest("length must be an integer"))
			return
		}
	}
	rng, err := ds.Recommend(deg, length)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Loose's upper bound is +Inf (any larger threshold behaves the same),
	// which JSON cannot carry — report it as null ("unbounded") instead of
	// letting the encoder fail after the 200 header is out.
	var high any
	if !math.IsInf(rng.High, 1) {
		high = rng.High
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"degree": deg.String(), "low": rng.Low, "high": high,
	})
}

// ---- stats ------------------------------------------------------------

func (s *Server) handleDatasetStats(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ds.Info())
}

// handleHubStats serves GET /v1/stats: hub-wide counters (cache hit/miss,
// per-dataset query work tallies including bound-pruning counts), the job
// manager's lifecycle counters, and one latency histogram per route.
func (s *Server) handleHubStats(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"hub":            s.hub.Stats(),
		"jobs":           s.jobs.Stats(),
		"latency":        s.metrics.Snapshot(),
		"defaultDataset": s.defaultName,
		"uptimeSeconds":  time.Since(s.started).Seconds(),
	}
	// Fleet health only appears once at least one shard worker has been
	// contacted, so local-only deployments keep the historical shape.
	if workers := shardrpc.Fleet().Snapshot(); len(workers) > 0 {
		body["workers"] = workers
	}
	writeJSON(w, http.StatusOK, body)
}
