package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"

	"onex/internal/jobs"
	"onex/internal/obs"
)

// jobContext builds the context a job body runs under: detached from the
// originating request (which ends at the 202-accepted response) but still
// carrying its request id, so outbound shard-worker calls stay correlated
// with the submission in worker logs.
func jobContext(reqID string) context.Context {
	return obs.ContextWithRequestID(context.Background(), reqID)
}

// jobView is a job snapshot plus the uniform error fields for terminal
// failures — the body of every /v1/jobs response.
type jobView struct {
	jobs.Snapshot
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

func viewJob(j *jobs.Job) jobView {
	snap := j.Snapshot()
	v := jobView{Snapshot: snap}
	if snap.Err != nil {
		v.Error = snap.Err.Error()
		if snap.State == jobs.StateCanceled.String() {
			v.Code = CodeCanceled
		} else {
			_, v.Code = classify(snap.Err)
		}
	}
	return v
}

// submitJob queues run and answers 202 with the job snapshot and a
// Location header for polling.
func (s *Server) submitJob(w http.ResponseWriter, family, dataset string, run func(*jobs.Context) (any, error)) {
	j, err := s.jobs.Submit(family, dataset, run)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, viewJob(j))
}

// jobBody decodes a jobs-endpoint body that is either the family's single
// query shape or its batch shape ({"queries": [...]}). It returns the raw
// message and whether the batch key was present.
func (s *Server) jobBody(w http.ResponseWriter, r *http.Request) (json.RawMessage, bool, error) {
	var probe struct {
		Queries json.RawMessage `json:"queries"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, false, badRequest("invalid JSON: " + err.Error())
	}
	if dec.More() {
		return nil, false, badRequest("invalid JSON: trailing data after request object")
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, false, badRequest("invalid JSON: " + err.Error())
	}
	return raw, probe.Queries != nil, nil
}

// decodeInto strictly re-decodes raw into v (unknown fields rejected).
func decodeInto(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid JSON: " + err.Error())
	}
	return nil
}

// handleMatchJob serves POST /v1/datasets/{name}/match/jobs: the body is
// either a single match query or the uniform batch envelope; the job's
// result is bit-identical to what the corresponding synchronous endpoint
// would have returned. Progress advances per batch chunk; DELETE cancels
// between chunks.
func (s *Server) handleMatchJob(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	raw, isBatch, err := s.jobBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	withValues := r.URL.Query().Get("values") == "true"
	if isBatch {
		var req matchBatchRequest
		if err := decodeInto(raw, &req); err != nil {
			writeErr(w, err)
			return
		}
		if len(req.Queries) == 0 {
			writeErr(w, badRequest("queries must be non-empty"))
			return
		}
		ctx := jobContext(requestIDFrom(r.Context()))
		s.submitJob(w, "match", ds.Name(), func(jc *jobs.Context) (any, error) {
			return runMatchBatch(ctx, ds, req.Queries, withValues, jc)
		})
		return
	}
	var req matchItem
	if err := decodeInto(raw, &req); err != nil {
		writeErr(w, err)
		return
	}
	kq, err := req.toKNN()
	if err != nil {
		writeErr(w, err)
		return
	}
	reqID := requestIDFrom(r.Context())
	route := r.URL.Path
	explain := req.Explain || explainRequested(r)
	s.submitJob(w, "match", ds.Name(), func(jc *jobs.Context) (any, error) {
		return runSingle(jc, func() (any, error) {
			tr := obs.NewTrace(reqID)
			ms, err := ds.MatchObserved(jobContext(reqID), kq.Query, kq.Mode, kq.K, tr)
			if err != nil {
				return nil, err
			}
			s.recordSlow(route, ds, "match", jc.JobID(), tr)
			out := matchResult(kq.K, ms, withValues)
			if explain {
				out = explained(out, tr, ds)
			}
			return out, nil
		})
	})
}

// handleRangeJob serves POST /v1/datasets/{name}/range/jobs (single or
// batch body, same contract as handleMatchJob).
func (s *Server) handleRangeJob(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	raw, isBatch, err := s.jobBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if isBatch {
		var req rangeBatchRequest
		if err := decodeInto(raw, &req); err != nil {
			writeErr(w, err)
			return
		}
		if len(req.Queries) == 0 {
			writeErr(w, badRequest("queries must be non-empty"))
			return
		}
		ctx := jobContext(requestIDFrom(r.Context()))
		s.submitJob(w, "range", ds.Name(), func(jc *jobs.Context) (any, error) {
			return runRangeBatch(ctx, ds, req.Queries, jc)
		})
		return
	}
	var req rangeItem
	if err := decodeInto(raw, &req); err != nil {
		writeErr(w, err)
		return
	}
	reqID := requestIDFrom(r.Context())
	route := r.URL.Path
	explain := req.Explain || explainRequested(r)
	s.submitJob(w, "range", ds.Name(), func(jc *jobs.Context) (any, error) {
		return runSingle(jc, func() (any, error) {
			tr := obs.NewTrace(reqID)
			ms, err := ds.RangeObserved(jobContext(reqID), req.Query, req.Length, req.Radius, req.Exact, tr)
			if err != nil {
				return nil, err
			}
			s.recordSlow(route, ds, "range", jc.JobID(), tr)
			out := rangeResult(ms)
			if explain {
				out = explained(out, tr, ds)
			}
			return out, nil
		})
	})
}

// handleSeasonalJob serves POST /v1/datasets/{name}/seasonal/jobs (single
// {"series","length"} or batch body).
func (s *Server) handleSeasonalJob(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	raw, isBatch, err := s.jobBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if isBatch {
		var req seasonalBatchRequest
		if err := decodeInto(raw, &req); err != nil {
			writeErr(w, err)
			return
		}
		if len(req.Queries) == 0 {
			writeErr(w, badRequest("queries must be non-empty"))
			return
		}
		s.submitJob(w, "seasonal", ds.Name(), func(jc *jobs.Context) (any, error) {
			return runSeasonalBatch(ds, req.Queries, jc)
		})
		return
	}
	var req seasonalItem
	if err := decodeInto(raw, &req); err != nil {
		writeErr(w, err)
		return
	}
	reqID := requestIDFrom(r.Context())
	route := r.URL.Path
	explain := req.Explain || explainRequested(r)
	s.submitJob(w, "seasonal", ds.Name(), func(jc *jobs.Context) (any, error) {
		return runSingle(jc, func() (any, error) {
			tr := obs.NewTrace(reqID)
			patterns, err := ds.SeasonalObserved(req.seriesID(), req.Length, tr)
			if err != nil {
				return nil, err
			}
			s.recordSlow(route, ds, "seasonal", jc.JobID(), tr)
			out := seasonalResult(patterns)
			if explain {
				out = explained(out, tr, ds)
			}
			return out, nil
		})
	})
}

// runSingle wraps a one-shot query as a job body: progress 0/1 → 1/1, with
// a cancel check before the (uninterruptible) query starts.
func runSingle(jc *jobs.Context, f func() (any, error)) (any, error) {
	jc.Progress(0, 1)
	if jc.Canceled() {
		return nil, jobs.ErrCanceled
	}
	out, err := f()
	if err != nil {
		return nil, err
	}
	jc.Progress(1, 1)
	return out, nil
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	js := s.jobs.List()
	views := make([]jobView, 0, len(js))
	for _, j := range js {
		views = append(views, viewJob(j))
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(views), "jobs": views})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, apiError{http.StatusNotFound, CodeNotFound,
			"unknown job id (results are evicted after their TTL)"})
		return
	}
	writeJSON(w, http.StatusOK, viewJob(j))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeErr(w, apiError{http.StatusNotFound, CodeNotFound,
			"unknown job id (results are evicted after their TTL)"})
		return
	}
	writeJSON(w, http.StatusOK, viewJob(j))
}
