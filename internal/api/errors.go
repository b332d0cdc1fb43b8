package api

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"

	"onex"
	"onex/internal/hub"
	"onex/internal/jobs"
	"onex/internal/shardrpc"
)

// Machine-readable error codes, carried in every error envelope's "code"
// field (and in per-item batch errors). Clients should branch on these, not
// on the human-readable message.
const (
	CodeInvalidArgument = "invalid_argument" // 400: malformed request or parameters
	CodeForbidden       = "forbidden"        // 403: filesystem sources without -allow-fs
	CodeNotFound        = "not_found"        // 404: unknown dataset or job
	CodeAlreadyExists   = "already_exists"   // 409: dataset name taken
	CodeNotReady        = "not_ready"        // 409: dataset still building
	CodeConflict        = "conflict"         // 409: concurrent maintenance collision
	CodeTooLarge        = "too_large"        // 413: body over the size cap
	CodeBuildFailed     = "build_failed"     // 500: dataset build failed
	CodeInternal        = "internal"         // 500: unexpected server-side failure
	CodeUnavailable     = "unavailable"      // 503: shutting down or job table full
	CodeCanceled        = "canceled"         // job canceled via DELETE or shutdown
)

// apiError is an error with a pinned HTTP status and machine code.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e apiError) Error() string { return e.msg }

// badRequest builds the common 400 invalid_argument error.
func badRequest(msg string) apiError {
	return apiError{http.StatusBadRequest, CodeInvalidArgument, msg}
}

// classify maps any error onto its HTTP status and machine code. The
// default is 400/invalid_argument: errors bubbling out of the engine
// (unindexed length, empty query, non-finite values) are client mistakes.
func classify(err error) (status int, code string) {
	var ae apiError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &ae):
		return ae.status, ae.code
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge, CodeTooLarge
	case errors.Is(err, hub.ErrNotFound):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, hub.ErrExists):
		return http.StatusConflict, CodeAlreadyExists
	case errors.Is(err, hub.ErrNotReady):
		return http.StatusConflict, CodeNotReady
	case errors.Is(err, hub.ErrConflict):
		return http.StatusConflict, CodeConflict
	case errors.Is(err, hub.ErrFailed):
		return http.StatusInternalServerError, CodeBuildFailed
	case errors.Is(err, jobs.ErrCanceled):
		return http.StatusServiceUnavailable, CodeCanceled
	case errors.Is(err, jobs.ErrTableFull), errors.Is(err, jobs.ErrClosed),
		errors.Is(err, hub.ErrClosed), errors.Is(err, onex.ErrBuildCanceled),
		errors.Is(err, shardrpc.ErrUnavailable):
		// A shard worker that stays unreachable through the retry budget is a
		// (hopefully transient) serving-infrastructure failure: 503 so clients
		// retry, never 400.
		// A drift-triggered rebuild inside an append/extend handler aborts
		// with ErrBuildCanceled when the hub shuts down mid-request — a
		// server condition, not a client error. Likewise a full job table.
		return http.StatusServiceUnavailable, CodeUnavailable
	}
	return http.StatusBadRequest, CodeInvalidArgument
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("onex-server: response encode", "error", err)
	}
}

// writeErr renders err as the uniform {"error", "code"} envelope with the
// status classify assigns. When w is the middleware's status recorder the
// machine code is fed back so the request log line carries it.
func writeErr(w http.ResponseWriter, err error) {
	status, code := classify(err)
	if rec, ok := w.(interface{ setErrCode(string) }); ok {
		rec.setErrCode(code)
	}
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}
