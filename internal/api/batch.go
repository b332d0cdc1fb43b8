package api

import (
	"context"
	"net/http"

	"onex"
	"onex/internal/hub"
	"onex/internal/jobs"
)

// jobChunk is how many batch items run between cancel checks and progress
// updates: big enough to keep the scatter executor's cross-query
// parallelism fed, small enough that a job's progress moves.
const jobChunk = 8

// batchRequest is the uniform batch envelope of every family:
// {"queries":[item, …]}.
type batchRequest[I item] struct {
	Queries []I `json:"queries"`
}

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

// runBatch executes a family's items through the hub's batch path (shared
// scatter executor and result cache) in jobChunk slices and assembles the
// uniform response {"count","errors","results"}. ctx bounds the engine work
// and carries the request id to remote shard workers; once it ends the
// batch stops — mid-chunk inside the engine, otherwise at the next chunk —
// with ctx's error. jc, nil for synchronous batches, receives progress.
func runBatch[I item](ctx context.Context, ds *hub.Dataset, items []I, withValues bool, jc *jobs.Context) (any, error) {
	progress := func(done int) {
		if jc != nil {
			jc.Progress(done, len(items))
		}
	}
	out := make([]batchItemOut, len(items))
	errs := 0
	fail := func(i int, err error) { out[i] = itemErr(err); errs++ }
	// Validate everything first so a bad item costs nothing.
	reqs := make([]onex.Request, len(items))
	for i, it := range items {
		var err error
		if reqs[i], err = it.request(); err != nil {
			fail(i, err)
		}
	}
	progress(0)
	for lo := 0; lo < len(items); lo += jobChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+jobChunk, len(items))
		// Skip already-failed validations inside the chunk.
		chunk := make([]onex.Request, 0, hi-lo)
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if out[i].Error == "" {
				chunk = append(chunk, reqs[i])
				idx = append(idx, i)
			}
		}
		rs, err := ds.ExecBatch(ctx, chunk)
		if err != nil {
			return nil, err
		}
		for j, r := range rs {
			if i := idx[j]; r.Err != nil {
				fail(i, r.Err)
			} else {
				out[i] = batchItemOut{Result: resultJSON(reqs[i], r, withValues)}
			}
		}
		progress(hi)
	}
	return map[string]any{"count": len(out), "errors": errs, "results": out}, nil
}

// errEmptyBatch refuses an envelope without items.
var errEmptyBatch = badRequest("queries must be non-empty")

// handleBatch serves a family's POST …/batch endpoint with the uniform
// envelope: {"queries":[{…}, …]}.
func handleBatch[I item](s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ds, err := s.dataset(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		var req batchRequest[I]
		if err := s.decodeStrict(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		if len(req.Queries) == 0 {
			writeErr(w, errEmptyBatch)
			return
		}
		out, err := runBatch(r.Context(), ds, req.Queries, valuesRequested(r), nil)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	}
}
