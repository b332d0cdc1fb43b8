package api

import (
	"context"
	"net/http"

	"onex"
	"onex/internal/hub"
	"onex/internal/jobs"
)

// jobChunk is how many batch items a job runs between cancel checks and
// progress updates: big enough to keep the scatter executor's cross-query
// parallelism fed, small enough that a DELETE lands within a few items'
// latency.
const jobChunk = 8

// batchItemOut is one positional result of a batch: exactly one of Result
// (the same JSON the family's single endpoint would return) or Error+Code.
type batchItemOut struct {
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	Code   string `json:"code,omitempty"`
}

func itemErr(err error) batchItemOut {
	_, code := classify(err)
	return batchItemOut{Error: err.Error(), Code: code}
}

// envelope assembles the uniform batch response.
func envelope(items []batchItemOut) any {
	errs := 0
	for _, it := range items {
		if it.Error != "" {
			errs++
		}
	}
	return map[string]any{"count": len(items), "errors": errs, "results": items}
}

// checkCanceled reports a pending cancel on jc (nil for synchronous
// batches, which are not cancelable).
func checkCanceled(jc *jobs.Context) bool { return jc != nil && jc.Canceled() }

// runMatchBatch executes match/k-NN items through the hub's batch path
// (shared scatter executor and result cache) in jobChunk slices, reporting
// progress and honoring cancellation between slices. ctx carries the
// request id to remote shard workers and bounds their RPCs: synchronous
// handlers pass the request context, job bodies a detached one (the
// originating request ends at the 202).
func runMatchBatch(ctx context.Context, ds *hub.Dataset, items []matchItem, withValues bool, jc *jobs.Context) (any, error) {
	out := make([]batchItemOut, len(items))
	// Validate everything first so a bad item costs nothing.
	qs := make([]onex.KNNQuery, len(items))
	for i, it := range items {
		kq, err := it.toKNN()
		if err != nil {
			out[i] = itemErr(err)
			continue
		}
		qs[i] = kq
	}
	if jc != nil {
		jc.Progress(0, len(items))
	}
	for lo := 0; lo < len(items); lo += jobChunk {
		if checkCanceled(jc) {
			return nil, jobs.ErrCanceled
		}
		hi := min(lo+jobChunk, len(items))
		// Skip already-failed validations inside the chunk.
		chunk := make([]onex.KNNQuery, 0, hi-lo)
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if out[i].Error == "" {
				chunk = append(chunk, qs[i])
				idx = append(idx, i)
			}
		}
		if len(chunk) > 0 {
			rs, err := ds.KNNBatch(ctx, chunk)
			if err != nil {
				return nil, err
			}
			for j, r := range rs {
				i := idx[j]
				if r.Err != nil {
					out[i] = itemErr(r.Err)
					continue
				}
				out[i] = batchItemOut{Result: matchResult(qs[i].K, r.Matches, withValues)}
			}
		}
		if jc != nil {
			jc.Progress(hi, len(items))
		}
	}
	return envelope(out), nil
}

// runRangeBatch is runMatchBatch for the range family.
func runRangeBatch(ctx context.Context, ds *hub.Dataset, items []rangeItem, jc *jobs.Context) (any, error) {
	out := make([]batchItemOut, len(items))
	qs := make([]onex.RangeQuery, len(items))
	for i, it := range items {
		qs[i] = onex.RangeQuery{Query: it.Query, Length: it.Length, Radius: it.Radius, Exact: it.Exact}
	}
	if jc != nil {
		jc.Progress(0, len(items))
	}
	for lo := 0; lo < len(items); lo += jobChunk {
		if checkCanceled(jc) {
			return nil, jobs.ErrCanceled
		}
		hi := min(lo+jobChunk, len(items))
		rs, err := ds.RangeBatch(ctx, qs[lo:hi])
		if err != nil {
			return nil, err
		}
		for j, r := range rs {
			if r.Err != nil {
				out[lo+j] = itemErr(r.Err)
				continue
			}
			out[lo+j] = batchItemOut{Result: rangeResult(r.Matches)}
		}
		if jc != nil {
			jc.Progress(hi, len(items))
		}
	}
	return envelope(out), nil
}

// runSeasonalBatch is runMatchBatch for the seasonal family.
func runSeasonalBatch(ds *hub.Dataset, items []seasonalItem, jc *jobs.Context) (any, error) {
	out := make([]batchItemOut, len(items))
	qs := make([]onex.SeasonalQuery, len(items))
	for i, it := range items {
		qs[i] = onex.SeasonalQuery{SeriesID: it.seriesID(), Length: it.Length}
	}
	if jc != nil {
		jc.Progress(0, len(items))
	}
	for lo := 0; lo < len(items); lo += jobChunk {
		if checkCanceled(jc) {
			return nil, jobs.ErrCanceled
		}
		hi := min(lo+jobChunk, len(items))
		rs, err := ds.SeasonalBatch(qs[lo:hi])
		if err != nil {
			return nil, err
		}
		for j, r := range rs {
			if r.Err != nil {
				out[lo+j] = itemErr(r.Err)
				continue
			}
			out[lo+j] = batchItemOut{Result: seasonalResult(r.Patterns)}
		}
		if jc != nil {
			jc.Progress(hi, len(items))
		}
	}
	return envelope(out), nil
}

// ---- HTTP handlers ----------------------------------------------------

type matchBatchRequest struct {
	Queries []matchItem `json:"queries"`
}

// handleMatchBatch serves POST /v1/datasets/{name}/match/batch with the
// uniform envelope: {"queries":[{"query":…,"mode":…,"k":…}, …]}.
func (s *Server) handleMatchBatch(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req matchBatchRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, badRequest("queries must be non-empty"))
		return
	}
	out, err := runMatchBatch(r.Context(), ds, req.Queries, r.URL.Query().Get("values") == "true", nil)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

type rangeBatchRequest struct {
	Queries []rangeItem `json:"queries"`
}

// handleRangeBatch serves POST /v1/datasets/{name}/range/batch with the
// uniform envelope.
func (s *Server) handleRangeBatch(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req rangeBatchRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, badRequest("queries must be non-empty"))
		return
	}
	out, err := runRangeBatch(r.Context(), ds, req.Queries, nil)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

type seasonalBatchRequest struct {
	Queries []seasonalItem `json:"queries"`
}

// handleSeasonalBatch serves POST /v1/datasets/{name}/seasonal/batch with
// the uniform envelope.
func (s *Server) handleSeasonalBatch(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req seasonalBatchRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, badRequest("queries must be non-empty"))
		return
	}
	out, err := runSeasonalBatch(ds, req.Queries, nil)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}
