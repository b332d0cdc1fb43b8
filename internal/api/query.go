package api

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"time"

	"onex"
	"onex/internal/hub"
	"onex/internal/obs"
	"onex/internal/shardrpc"
)

// item is one query of a family as its JSON shape — the body of the
// family's single endpoint and the per-item shape of its batch and jobs
// envelopes. It is all a family contributes to the HTTP layer: how the JSON
// becomes an onex.Request, and whether it asked for its trace. The way back
// (Result → JSON) reads the family off the request (resultJSON).
type item interface {
	// request validates the item into the request the hub answers.
	request() (onex.Request, error)
	// explain reports the body's "explain" opt-in: return the query's trace
	// alongside the result (single and single-form job endpoints; accepted
	// but ignored on batch items — a batch answers many queries through one
	// engine call and has no per-item trace).
	explain() bool
}

// matchItem is one match/k-NN query.
type matchItem struct {
	Query   []float64 `json:"query"`
	Mode    string    `json:"mode"` // "any" (default) or "exact"
	K       int       `json:"k"`    // 0/1 = best match; >1 = k-NN
	Explain bool      `json:"explain"`
}

func (it matchItem) explain() bool { return it.Explain }

func (it matchItem) request() (onex.Request, error) {
	req := onex.Request{Family: onex.FamilyMatch, Query: it.Query, Mode: onex.MatchAny, K: it.K}
	switch it.Mode {
	case "", "any":
	case "exact":
		req.Mode = onex.MatchExact
	default:
		return req, badRequest(`mode must be "any" or "exact"`)
	}
	if it.K < 0 {
		return req, badRequest("k must be ≥ 0")
	}
	return req, nil
}

// rangeItem is one range query.
type rangeItem struct {
	Query  []float64 `json:"query"`
	Length int       `json:"length"`
	Radius float64   `json:"radius"`
	// Exact computes true DTW distances for matches admitted through the
	// Lemma 2 guarantee instead of reporting the ST upper bound.
	Exact   bool `json:"exact"`
	Explain bool `json:"explain"`
}

func (it rangeItem) explain() bool { return it.Explain }

func (it rangeItem) request() (onex.Request, error) {
	return onex.Request{Family: onex.FamilyRange, Query: it.Query, Length: it.Length, Radius: it.Radius, Exact: it.Exact}, nil
}

// seasonalItem is one seasonal query: the batch/jobs item shape (the single
// endpoint takes the same parameters as GET query strings). A nil Series
// (or any negative id) means dataset-wide.
type seasonalItem struct {
	Series  *int `json:"series"`
	Length  int  `json:"length"`
	Explain bool `json:"explain"`
}

func (it seasonalItem) explain() bool { return it.Explain }

func (it seasonalItem) request() (onex.Request, error) {
	req := onex.Request{Family: onex.FamilySeasonal, SeriesID: -1, Length: it.Length}
	if it.Series != nil {
		req.SeriesID = *it.Series
	}
	return req, nil
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

type rangeMatchResponse struct {
	matchResponse
	Guaranteed bool `json:"guaranteed"`
}

// resultJSON shapes an answer exactly like its family's single endpoint —
// match: a bare match object for k ≤ 1, {"matches": [...]} for k-NN; range:
// {"count","results"}; seasonal: {"count","patterns"}. Batch items and job
// results reuse it so every form's answer is bit-identical to the sync one.
// withValues (?values=true) adds the matched windows to match answers.
func resultJSON(req onex.Request, r onex.Result, withValues bool) any {
	switch req.Family {
	case onex.FamilyMatch:
		if req.K <= 1 {
			return toMatchResponse(r.Matches[0], withValues)
		}
		out := make([]matchResponse, 0, len(r.Matches))
		for _, m := range r.Matches {
			out = append(out, toMatchResponse(m, withValues))
		}
		return map[string]any{"matches": out}
	case onex.FamilyRange:
		out := make([]rangeMatchResponse, 0, len(r.Ranges))
		for _, m := range r.Ranges {
			out = append(out, rangeMatchResponse{toMatchResponse(m.Match, false), m.Guaranteed})
		}
		return map[string]any{"count": len(out), "results": out}
	default:
		return map[string]any{"count": len(r.Patterns), "patterns": r.Patterns}
	}
}

// valuesRequested reports the ?values=true opt-in.
func valuesRequested(r *http.Request) bool { return r.URL.Query().Get("values") == "true" }

// answer runs one request traced — under ctx, which bounds it and carries
// the request id to remote shard workers — feeds the slow-query buffer and
// shapes the family's response body, wrapped with the trace when explain is
// set. Sync handlers and single-form job bodies (jobID non-empty) share it;
// family is the slow-log label.
func (s *Server) answer(ctx context.Context, route string, ds *hub.Dataset, family string, req onex.Request,
	jobID string, explain, withValues bool) (any, error) {

	tr := obs.NewTrace(requestIDFrom(ctx))
	r := ds.Exec(obs.ContextWithTrace(ctx, tr), req)
	if r.Err != nil {
		return nil, r.Err
	}
	s.recordSlow(route, ds, family, jobID, tr)
	body := resultJSON(req, r, withValues)
	if explain {
		body = explained(body, tr, ds)
	}
	return body, nil
}

// handleQuery serves a family's synchronous POST endpoint
// (/v1/datasets/{name}/match and …/range): the body is one item.
func handleQuery[I item](s *Server, family string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ds, err := s.dataset(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		var it I
		if err := s.decodeStrict(w, r, &it); err != nil {
			writeErr(w, err)
			return
		}
		req, err := it.request()
		if err != nil {
			writeErr(w, err)
			return
		}
		body, err := s.answer(r.Context(), r.URL.Path, ds, family, req, "", it.explain() || explainRequested(r), valuesRequested(r))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, body)
	}
}

// handleSeasonal serves GET /v1/datasets/{name}/seasonal: the item arrives
// as query-string parameters.
func (s *Server) handleSeasonal(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query()
	req := onex.Request{Family: onex.FamilySeasonal, SeriesID: -1} // dataset-wide
	if req.Length, err = strconv.Atoi(q.Get("length")); err != nil {
		writeErr(w, badRequest("length must be an integer"))
		return
	}
	if sid := q.Get("series"); sid != "" {
		if req.SeriesID, err = strconv.Atoi(sid); err != nil || req.SeriesID < 0 {
			writeErr(w, badRequest("series must be a non-negative integer"))
			return
		}
	}
	body, err := s.answer(r.Context(), r.URL.Path, ds, "seasonal", req, "", explainRequested(r), false)
	if err != nil {
		writeErr(w, err)
		return
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
