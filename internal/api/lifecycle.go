package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"

	"onex"
	"onex/internal/hub"
)

// decodeStrict reads one JSON value: unknown fields are rejected, the body
// is capped at s.maxBody, and trailing garbage is an error.
func (s *Server) decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequest("invalid JSON: " + err.Error())
	}
	if dec.More() {
		return badRequest("invalid JSON: trailing data after request object")
	}
	return nil
}

type seriesJSON struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

type registerRequest struct {
	Name      string       `json:"name"`
	Generator string       `json:"generator"`
	Path      string       `json:"path"`
	Snapshot  string       `json:"snapshot"`
	Series    []seriesJSON `json:"series"`
	Scale     float64      `json:"scale"`
	Seed      int64        `json:"seed"`
	ST        float64      `json:"st"`
	Lengths   int          `json:"lengths"`
	// Parallelism bounds the dataset's build and query worker fan-out
	// (0 = GOMAXPROCS; answers are identical for every value).
	Parallelism int `json:"parallelism"`
	// Shards hash-partitions the dataset's series across engine shards
	// built concurrently and queried by scatter-gather (0/1 = one shard;
	// answers are identical at every count — see /v1/datasets/{name}/stats
	// for the per-shard breakdown).
	Shards int `json:"shards"`
	// DcTopK bounds the per-representative sparse retention of the
	// inter-representative distance index (0 = the engine default of 32;
	// negative = dense-equivalent). Purely a memory knob: answers are
	// bit-identical at every setting.
	DcTopK int `json:"dcTopK"`
	// ShardWorkers lists remote worker base URLs serving the dataset's
	// shards over the worker protocol (shard s goes to worker s mod len).
	// Answers stay bit-identical to in-process serving. Like path/snapshot
	// sources, the field makes the server open outbound connections to
	// operator-named addresses and is therefore gated behind -allow-fs.
	ShardWorkers []string `json:"shardWorkers"`
	Wait         bool     `json:"wait"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Name == "" {
		writeErr(w, badRequest("name is required"))
		return
	}
	if req.Parallelism < 0 {
		writeErr(w, badRequest("parallelism must be ≥ 0"))
		return
	}
	// Clamp client-requested fan-out: parallel.Resolve accepts any positive
	// value (it only oversubscribes), but a remote tenant must not be able
	// to make every query spawn thousands of goroutines.
	if limit := 4 * runtime.GOMAXPROCS(0); req.Parallelism > limit {
		req.Parallelism = limit
	}
	if req.Shards < 0 {
		writeErr(w, badRequest("shards must be ≥ 0"))
		return
	}
	// Cap the shard count: the engine clamps to the series count anyway,
	// but a remote tenant must not get to size O(shards) allocations before
	// that clamp is known.
	if req.Shards > maxShards {
		writeErr(w, badRequest(fmt.Sprintf("shards must be ≤ %d", maxShards)))
		return
	}
	if (req.Path != "" || req.Snapshot != "") && !s.allowFS {
		writeErr(w, apiError{http.StatusForbidden, CodeForbidden,
			"filesystem sources (path/snapshot) are disabled; start the server with -allow-fs"})
		return
	}
	if len(req.ShardWorkers) > 0 && !s.allowFS {
		writeErr(w, apiError{http.StatusForbidden, CodeForbidden,
			"shardWorkers is disabled (it opens outbound worker connections); start the server with -allow-fs"})
		return
	}
	for _, u := range req.ShardWorkers {
		if u == "" {
			writeErr(w, badRequest("shardWorkers entries must be non-empty base URLs"))
			return
		}
	}
	st := req.ST
	if st == 0 && req.Snapshot == "" {
		st = 0.2 // the paper's sweet spot (Sec. 6.3)
	}
	lengths := req.Lengths
	if lengths == 0 {
		lengths = 16
	}
	spec := hub.Spec{
		Generator: req.Generator,
		Path:      req.Path,
		Snapshot:  req.Snapshot,
		Scale:     req.Scale,
		Seed:      req.Seed,
		Opts: onex.Options{ST: st, Seed: req.Seed, Parallelism: req.Parallelism,
			Shards: req.Shards, DcTopK: req.DcTopK, ShardWorkers: req.ShardWorkers},
		LengthCount: lengths,
	}
	for _, sr := range req.Series {
		spec.Series = append(spec.Series, onex.Series{Label: sr.Label, Values: sr.Values})
	}
	ds, err := s.hub.Register(req.Name, spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Wait {
		if err := ds.Wait(r.Context()); err != nil {
			_, code := classify(err)
			writeJSON(w, http.StatusInternalServerError, map[string]any{
				"error": err.Error(), "code": code, "dataset": ds.Info(),
			})
			return
		}
		writeJSON(w, http.StatusCreated, ds.Info())
		return
	}
	writeJSON(w, http.StatusAccepted, ds.Info())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	datasets := s.hub.List()
	infos := make([]hub.Info, 0, len(datasets))
	for _, ds := range datasets {
		infos = append(infos, ds.Info())
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(infos), "datasets": infos})
}

func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ds.Info())
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	purge := false
	switch v := r.URL.Query().Get("purge"); v {
	case "", "false", "0":
	case "true", "1":
		purge = true
	default:
		writeErr(w, badRequest("purge must be true or false"))
		return
	}
	if err := s.hub.Drop(r.PathValue("name"), purge); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": r.PathValue("name"), "purged": purge})
}

type extendRequest struct {
	Series []seriesJSON `json:"series"`
}

func (s *Server) handleExtend(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req extendRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Series) == 0 {
		writeErr(w, badRequest("series must be non-empty"))
		return
	}
	series := make([]onex.Series, 0, len(req.Series))
	for _, sr := range req.Series {
		series = append(series, onex.Series{Label: sr.Label, Values: sr.Values})
	}
	if err := ds.Extend(series); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ds.Info())
}

type appendRequest struct {
	// SeriesID targets an existing series of the dataset (0-based, as
	// reported by match results). A pointer distinguishes "missing" from 0.
	SeriesID *int      `json:"seriesId"`
	Points   []float64 `json:"points"`
}

// handleAppend serves POST /v1/datasets/{name}/append: streaming point
// ingestion onto one existing series. The grown base swaps in atomically
// (generation bump, cache invalidation, re-snapshot); in-flight queries
// keep answering on the previous base.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	ds, err := s.dataset(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req appendRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.SeriesID == nil {
		writeErr(w, badRequest("seriesId is required"))
		return
	}
	if *req.SeriesID < 0 {
		writeErr(w, badRequest("seriesId must be ≥ 0"))
		return
	}
	if len(req.Points) == 0 {
		writeErr(w, badRequest("points must be non-empty"))
		return
	}
	if err := ds.Append(*req.SeriesID, req.Points); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ds.Info())
}
