package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"onex/internal/jobs"
	"onex/internal/obs"
)

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

// submitJob queues run and answers 202 with the job snapshot and a Location
// header for polling. The body runs under one context built here: detached
// from the originating request (which ends at the 202) but carrying its
// request id, so outbound shard-worker calls stay correlated with the
// submission in worker logs, and canceled the moment the job is (DELETE, or
// shutdown) — so the engine stops computing and the worker slot frees,
// instead of the query running to completion behind a job already reported
// canceled. A body that returns that cancellation ends the job as canceled.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, family, dataset string,
	run func(context.Context, *jobs.Context) (any, error)) {

	reqID := requestIDFrom(r.Context())
	j, err := s.jobs.Submit(family, dataset, func(jc *jobs.Context) (any, error) {
		ctx, cancel := context.WithCancel(obs.ContextWithRequestID(context.Background(), reqID))
		defer cancel()
		go func() {
			select {
			case <-jc.Cancel:
				cancel()
			case <-ctx.Done():
			}
		}()
		out, err := run(ctx, jc)
		if errors.Is(err, context.Canceled) {
			err = jobs.ErrCanceled
		}
		return out, err
	})
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

// handleJob serves a family's POST /v1/datasets/{name}/…/jobs: the body is
// either a single item or the uniform batch envelope; the job's result is
// bit-identical to what the corresponding synchronous endpoint would have
// returned. Progress is 0/1 → 1/1 for a single item and advances per chunk
// for a batch; DELETE stops either mid-query.
func handleJob[I item](s *Server, family string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
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
		withValues := valuesRequested(r)
		if isBatch {
			var req batchRequest[I]
			if err := decodeInto(raw, &req); err != nil {
				writeErr(w, err)
				return
			}
			if len(req.Queries) == 0 {
				writeErr(w, errEmptyBatch)
				return
			}
			s.submitJob(w, r, family, ds.Name(), func(ctx context.Context, jc *jobs.Context) (any, error) {
				return runBatch(ctx, ds, req.Queries, withValues, jc)
			})
			return
		}
		var it I
		if err := decodeInto(raw, &it); err != nil {
			writeErr(w, err)
			return
		}
		req, err := it.request()
		if err != nil {
			writeErr(w, err)
			return
		}
		route := r.URL.Path
		explain := it.explain() || explainRequested(r)
		s.submitJob(w, r, family, ds.Name(), func(ctx context.Context, jc *jobs.Context) (any, error) {
			jc.Progress(0, 1)
			out, err := s.answer(ctx, route, ds, family, req, jc.JobID(), explain, withValues)
			if err != nil {
				return nil, err
			}
			jc.Progress(1, 1)
			return out, nil
		})
	}
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
