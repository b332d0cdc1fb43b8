// Package shardrpc is the remote ShardTransport of the scatter-gather
// engine: a Worker serves one or more shards' indexes over the REST idiom
// of cmd/onex-server (`-role worker`), and a Client drives one shard on
// such a worker from the coordinator, implementing query.ShardTransport.
//
// # Protocol
//
// Shard state is keyed by (dataset, generation, shard) — the idempotency
// key. The generation is a random nonce the coordinator mints per shipped
// incarnation of a shard's state, so re-shipping the same generation is a
// no-op (the worker answers with the cached stats) and two coordinators,
// or one coordinator before and after a maintenance step, can never alias
// each other's state. Workers retain the two newest generations per
// (dataset, shard), so queries racing a maintenance swap still answer.
//
//	GET  /worker/v1/healthz
//	GET  /worker/v1/metrics                                   Prometheus text 0.0.4
//	PUT  /worker/v1/shards/{dataset}/{gen}/{shard}            ship a ShardSpec stream
//	POST /worker/v1/shards/{dataset}/{gen}/{shard}/scan       ScanRequest
//	POST /worker/v1/shards/{dataset}/{gen}/{shard}/verifyk    VerifyKRequest
//	POST /worker/v1/shards/{dataset}/{gen}/{shard}/range      RangeRequest
//
// The PUT body is the binary spec stream of core.EncodeShardSpec
// (application/octet-stream: magic "ONEXSPEC", a version, the key, the
// shard's series and grouping restriction, a CRC32), decoded straight from
// the request body. The worker reads the key first: a key that disagrees
// with the route is 400, and a resident key answers its stats without the
// rest being read. A stream that does not decode is 400, one over the
// size limit 413, and a spec BuildLocalShard refuses 422 build_failed.
// Query bodies and every answer are JSON.
//
// Query calls against an unknown key answer 404 with code
// "unknown_generation" — the signal that the worker restarted (or expired
// the generation) and the client must re-ship the spec and retry.
//
// Every call is a phase: scan is a best-match's one call per shard and
// searched length (k = 1), scan and verifyk are a k-NN's one each at a
// length where its heap is full (k = 0 at the cut) and up to two each at
// the length that fills it (k nearest first; the shard walks its own
// members of the candidate groups inside each verifyk call, early
// abandoning against the heap it is seeded with and its own finds — see
// query.LocalShard.VerifyK), and range is a range query's one. The
// best-match group walk stays on the coordinator, which holds every
// series. Cutoffs and distances that can be ±Inf travel as
// math.Float64bits (see query.ShardTransport for the bit-exactness
// contract).
//
// The X-Request-Id header propagates from the coordinator and tags every
// worker-side log line, so a distributed query is greppable end to end.
package shardrpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"onex/internal/core"
	"onex/internal/metrics"
	"onex/internal/obs"
	"onex/internal/query"
)

// maxSpecBytes bounds a shipped shard spec stream (1 GiB — specs carry the
// shard's series values and grouping restriction).
const maxSpecBytes = 1 << 30

// maxRequestBytes bounds a query request body (64 MiB).
const maxRequestBytes = 64 << 20

// gensRetained is how many generations a worker keeps per (dataset, shard).
// Two covers the swap window of one maintenance step: the coordinator ships
// the new generation, then stops querying the old one.
const gensRetained = 2

// shardKey is the idempotency key of one shipped shard incarnation.
type shardKey struct {
	dataset string
	gen     string
	shard   int
}

// datasetShard identifies a shard slot across generations (retention).
type datasetShard struct {
	dataset string
	shard   int
}

// entry is one resident (or building) shard index. ready closes when the
// build finishes; ls/err are valid only after that.
type entry struct {
	ready chan struct{}
	ls    *query.LocalShard
	stats query.ShardStats
	err   error
}

// Worker serves shard indexes shipped by coordinators. Safe for concurrent
// use; shard builds are single-flighted per key (a re-shipped PUT of a
// building generation waits for the in-flight build instead of repeating
// it), and a failed build is forgotten so a retry rebuilds.
type Worker struct {
	logger  *slog.Logger
	started time.Time

	// Exposition state for GET /worker/v1/metrics.
	ops      metrics.Registry             // per-op latency histograms
	opCounts metrics.CounterMap[opStatus] // op × HTTP status counters
	ships    metrics.CounterMap[string]   // ship outcomes: built/cached/failed

	mu     sync.Mutex
	shards map[shardKey]*entry
	// gens tracks the build order of generations per shard slot, oldest
	// first, for retention.
	gens map[datasetShard][]string
}

// opStatus keys the op×status request counters.
type opStatus struct {
	op     string
	status int
}

// NewWorker returns a worker with no resident shards. logger may be nil
// (discards are replaced by slog.Default()).
func NewWorker(logger *slog.Logger) *Worker {
	if logger == nil {
		logger = slog.Default()
	}
	return &Worker{
		logger:  logger,
		started: time.Now(),
		shards:  make(map[shardKey]*entry),
		gens:    make(map[datasetShard][]string),
	}
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /worker/v1/healthz", w.timed("healthz", w.handleHealthz))
	mux.HandleFunc("GET /worker/v1/metrics", w.timed("metrics", w.handleMetrics))
	mux.HandleFunc("PUT /worker/v1/shards/{dataset}/{gen}/{shard}", w.timed("put_shard", w.handleShip))
	mux.HandleFunc("POST /worker/v1/shards/{dataset}/{gen}/{shard}/scan", w.timed("scan", w.handleScan))
	mux.HandleFunc("POST /worker/v1/shards/{dataset}/{gen}/{shard}/verifyk", w.timed("verifyk", w.handleVerifyK))
	mux.HandleFunc("POST /worker/v1/shards/{dataset}/{gen}/{shard}/range", w.timed("range", w.handleRange))
	return mux
}

// ShardCount reports the resident shard incarnations (observability/tests).
func (w *Worker) ShardCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.shards)
}

// timed wraps a worker route with the request-id plumbing, panic
// recovery, per-op metrics, and one structured log line per request — the
// worker-side half of the coordinator's request tracing (satellite of the
// X-Request-Id contract). A panicking op answers 500 with the standard
// {"error","code":"internal"} envelope (when nothing was written yet) and
// leaves an error log line with the request id instead of tearing down the
// connection silently.
func (w *Worker) timed(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := obs.SanitizeRequestID(r.Header.Get("X-Request-Id"))
		if reqID != "" {
			rw.Header().Set("X-Request-Id", reqID)
			r = r.WithContext(obs.ContextWithRequestID(r.Context(), reqID))
		}
		rec := &statusWriter{ResponseWriter: rw}
		func() {
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				w.logger.Error("worker panic",
					"requestId", reqID,
					"op", op,
					"panic", fmt.Sprint(p),
					"stack", string(debug.Stack()),
				)
				if rec.status == 0 {
					writeErr(rec, http.StatusInternalServerError, "internal", "internal worker error")
				}
			}()
			h(rec, r)
		}()
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(start)
		w.ops.Observe(op, dur)
		w.opCounts.Add(opStatus{op: op, status: status})
		// Probe/scrape chatter (healthz every second per coordinator) logs
		// at debug so shard traffic stays greppable; failures still surface.
		logf := w.logger.Info
		if (op == "healthz" || op == "metrics") && status < 400 {
			logf = w.logger.Debug
		}
		logf("worker request",
			"requestId", reqID,
			"op", op,
			"dataset", r.PathValue("dataset"),
			"gen", r.PathValue("gen"),
			"shard", r.PathValue("shard"),
			"status", status,
			"durMs", float64(dur.Microseconds())/1e3,
		)
	}
}

// statusWriter captures the response status for the request log line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// wireError is the JSON error shape of the worker surface (mirrors the
// coordinator API's {"error", "code"}).
type wireError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, wireError{Error: msg, Code: code})
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	n := len(w.shards)
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, map[string]any{"status": "ok", "shards": n})
}

// handleMetrics serves the worker's Prometheus text 0.0.4 exposition:
// per-op latency histograms, op×status and ship-outcome counters, and
// resident-state gauges. Gauges are computed at scrape time under w.mu.
func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	resident := len(w.shards)
	var residentBytes int64
	retained := 0
	for _, e := range w.shards {
		select {
		case <-e.ready:
			if e.err == nil {
				residentBytes += e.stats.IndexBytes
			}
		default: // build in flight; counts as resident, no size yet
		}
	}
	for _, gens := range w.gens {
		retained += len(gens)
	}
	w.mu.Unlock()

	var buf bytes.Buffer
	pw := metrics.NewPromWriter(&buf)

	pw.Header("onex_worker_op_duration_seconds", "Worker request latency by op.", "histogram")
	w.ops.Each(func(name string, h *metrics.Histogram) {
		pw.Hist("onex_worker_op_duration_seconds", []metrics.Label{{Name: "op", Value: name}}, h)
	})

	pw.Header("onex_worker_ops_total", "Worker requests by op and HTTP status.", "counter")
	ops := w.opCounts.Snapshot()
	opKeys := make([]opStatus, 0, len(ops))
	for k := range ops {
		opKeys = append(opKeys, k)
	}
	sort.Slice(opKeys, func(i, j int) bool {
		if opKeys[i].op != opKeys[j].op {
			return opKeys[i].op < opKeys[j].op
		}
		return opKeys[i].status < opKeys[j].status
	})
	for _, k := range opKeys {
		pw.Sample("onex_worker_ops_total", []metrics.Label{
			{Name: "op", Value: k.op},
			{Name: "status", Value: strconv.Itoa(k.status)},
		}, float64(ops[k]))
	}

	pw.Header("onex_worker_ships_total", "Shard ship requests by outcome (built, cached, failed).", "counter")
	ships := w.ships.Snapshot()
	outcomes := make([]string, 0, len(ships))
	for k := range ships {
		outcomes = append(outcomes, k)
	}
	sort.Strings(outcomes)
	for _, k := range outcomes {
		pw.Sample("onex_worker_ships_total", []metrics.Label{{Name: "outcome", Value: k}}, float64(ships[k]))
	}

	pw.Header("onex_worker_resident_shards", "Resident shard incarnations (including builds in flight).", "gauge")
	pw.Sample("onex_worker_resident_shards", nil, float64(resident))
	pw.Header("onex_worker_resident_bytes", "Estimated bytes of resident shard indexes.", "gauge")
	pw.Sample("onex_worker_resident_bytes", nil, float64(residentBytes))
	pw.Header("onex_worker_retained_generations", "Built generations retained across shard slots.", "gauge")
	pw.Sample("onex_worker_retained_generations", nil, float64(retained))
	pw.Header("onex_worker_uptime_seconds", "Seconds since the worker started.", "gauge")
	pw.Sample("onex_worker_uptime_seconds", nil, time.Since(w.started).Seconds())
	pw.Header("onex_worker_goroutines", "Current goroutine count.", "gauge")
	pw.Sample("onex_worker_goroutines", nil, float64(runtime.NumGoroutine()))

	if err := pw.Err(); err != nil {
		writeErr(rw, http.StatusInternalServerError, "internal", "render metrics: "+err.Error())
		return
	}
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(buf.Bytes())
}

// pathKey parses the shard key from the route.
func pathKey(r *http.Request) (shardKey, error) {
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 {
		return shardKey{}, fmt.Errorf("shardrpc: bad shard index %q", r.PathValue("shard"))
	}
	k := shardKey{dataset: r.PathValue("dataset"), gen: r.PathValue("gen"), shard: shard}
	if k.dataset == "" || k.gen == "" {
		return shardKey{}, fmt.Errorf("shardrpc: empty dataset or generation")
	}
	return k, nil
}

// handleShip builds (or returns the already-built) shard index for the
// shipped spec stream. Idempotent per (dataset, gen, shard): the stream's
// key is read first, and a resident key answers with its stats without the
// rest of the body being read; a concurrent PUT of the same key waits on the
// single in-flight build; a failed build is forgotten so retrying
// re-ships.
func (w *Worker) handleShip(rw http.ResponseWriter, r *http.Request) {
	key, err := pathKey(r)
	if err != nil {
		writeErr(rw, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	// Protocol errors (a stream that does not decode, a spec key
	// disagreeing with the route) are 400s and never create an entry —
	// only a well-keyed spec reaches the singleflighted build, whose
	// failures are 422 and retryable.
	body := &io.LimitedReader{R: r.Body, N: maxSpecBytes + 1}
	sr, err := core.NewSpecReader(body)
	if err != nil {
		refuseStream(rw, body, err)
		return
	}
	if k := sr.Key(); k.Dataset != key.dataset || k.Generation != key.gen || k.Shard != key.shard {
		writeErr(rw, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("shardrpc: spec key %s/%s/%d does not match route %s/%s/%d",
				k.Dataset, k.Generation, k.Shard, key.dataset, key.gen, key.shard))
		return
	}
	if w.answerResident(rw, r, key) {
		return
	}
	spec, err := sr.Decode()
	if err != nil {
		refuseStream(rw, body, err)
		return
	}

	// A concurrent PUT of the same key may have claimed it while this one
	// decoded.
	w.mu.Lock()
	if e, ok := w.shards[key]; ok {
		w.mu.Unlock()
		w.ships.Add("cached")
		w.respondReady(rw, r, e)
		return
	}
	e := &entry{ready: make(chan struct{})}
	w.shards[key] = e
	w.mu.Unlock()

	if len(spec.Series) == 0 {
		// The engine keeps a shard the hash leaves empty in-process; a
		// shipped one holds nothing to query.
		e.err = fmt.Errorf("%w: no series", query.ErrBadSpec)
	} else {
		e.ls, e.err = query.BuildLocalShard(spec)
	}
	if e.err == nil {
		e.stats = e.ls.Stats()
	}
	close(e.ready)

	w.mu.Lock()
	if e.err != nil {
		// Forget failed builds: the key must stay retryable.
		delete(w.shards, key)
	} else {
		w.retain(key)
	}
	w.mu.Unlock()

	if e.err != nil {
		w.ships.Add("failed")
		w.logger.Error("shard build failed", "dataset", key.dataset, "gen", key.gen,
			"shard", key.shard, "error", e.err)
		writeErr(rw, http.StatusUnprocessableEntity, "build_failed", e.err.Error())
		return
	}
	w.ships.Add("built")
	w.logger.Info("shard resident", "dataset", key.dataset, "gen", key.gen,
		"shard", key.shard, "series", e.stats.Series, "groups", e.stats.Groups,
		"subsequences", e.stats.Subsequences)
	writeJSON(rw, http.StatusOK, map[string]any{"stats": e.stats})
}

// answerResident answers a PUT of a key the worker holds (or is building)
// like the first PUT of it was answered, and reports whether it did.
func (w *Worker) answerResident(rw http.ResponseWriter, r *http.Request, key shardKey) bool {
	w.mu.Lock()
	e, ok := w.shards[key]
	w.mu.Unlock()
	if !ok {
		return false
	}
	w.ships.Add("cached")
	w.respondReady(rw, r, e)
	return true
}

// refuseStream answers a spec stream that did not decode: 413 when it ran
// past the size limit, 400 otherwise.
func refuseStream(rw http.ResponseWriter, body *io.LimitedReader, err error) {
	if body.N == 0 {
		writeErr(rw, http.StatusRequestEntityTooLarge, "too_large", "shard spec exceeds size limit")
		return
	}
	writeErr(rw, http.StatusBadRequest, "bad_request", "shardrpc: decode spec: "+err.Error())
}

// retain records key's generation and evicts generations beyond the
// retention window for its shard slot. Caller holds w.mu.
func (w *Worker) retain(key shardKey) {
	slot := datasetShard{dataset: key.dataset, shard: key.shard}
	gens := w.gens[slot]
	for _, g := range gens {
		if g == key.gen {
			return // re-ship of a retained generation
		}
	}
	gens = append(gens, key.gen)
	for len(gens) > gensRetained {
		delete(w.shards, shardKey{dataset: key.dataset, gen: gens[0], shard: key.shard})
		gens = gens[1:]
	}
	w.gens[slot] = append([]string(nil), gens...)
}

// respondReady waits for an in-flight build of e and answers like the
// original PUT would.
func (w *Worker) respondReady(rw http.ResponseWriter, r *http.Request, e *entry) {
	select {
	case <-e.ready:
	case <-r.Context().Done():
		writeErr(rw, http.StatusServiceUnavailable, "canceled", r.Context().Err().Error())
		return
	}
	if e.err != nil {
		writeErr(rw, http.StatusUnprocessableEntity, "build_failed", e.err.Error())
		return
	}
	writeJSON(rw, http.StatusOK, map[string]any{"stats": e.stats})
}

// lookup resolves the route's shard, waiting out an in-flight build.
// A missing key answers 404/unknown_generation — the re-ship signal.
func (w *Worker) lookup(rw http.ResponseWriter, r *http.Request) *query.LocalShard {
	key, err := pathKey(r)
	if err != nil {
		writeErr(rw, http.StatusBadRequest, "bad_request", err.Error())
		return nil
	}
	w.mu.Lock()
	e := w.shards[key]
	w.mu.Unlock()
	if e == nil {
		writeErr(rw, http.StatusNotFound, "unknown_generation",
			fmt.Sprintf("shardrpc: no resident state for %s/%s/%d", key.dataset, key.gen, key.shard))
		return nil
	}
	select {
	case <-e.ready:
	case <-r.Context().Done():
		writeErr(rw, http.StatusServiceUnavailable, "canceled", r.Context().Err().Error())
		return nil
	}
	if e.err != nil {
		writeErr(rw, http.StatusNotFound, "unknown_generation", "shardrpc: shard build failed; re-ship")
		return nil
	}
	return e.ls
}

// decodeReq decodes a bounded JSON request body.
func decodeReq(rw http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeErr(rw, http.StatusBadRequest, "bad_request", "read request: "+err.Error())
		return false
	}
	if len(body) > maxRequestBytes {
		writeErr(rw, http.StatusRequestEntityTooLarge, "too_large", "request exceeds size limit")
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeErr(rw, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return false
	}
	return true
}

// answer writes a transport response, mapping query-layer validation
// errors to 400 (the coordinator validated already, so these indicate a
// protocol bug, not a flaky worker) and cancellations to 503.
func answer(rw http.ResponseWriter, r *http.Request, v any, err error) {
	switch {
	case err == nil:
		writeJSON(rw, http.StatusOK, v)
	case r.Context().Err() != nil:
		writeErr(rw, http.StatusServiceUnavailable, "canceled", r.Context().Err().Error())
	default:
		writeErr(rw, http.StatusBadRequest, "bad_request", err.Error())
	}
}

// workerObs builds a query response's observability payload. The wall time
// (handler entry → answer, i.e. lookup + decode + op) is always returned —
// one integer, and it is what lets the coordinator split call wall into
// worker compute vs wire overhead even untraced. A span (offsets in this
// handler's timebase) is attached only when the coordinator opted in via
// the X-Onex-Trace header; attrs is evaluated lazily so untraced requests
// never build the attribute slice.
func workerObs(r *http.Request, start time.Time, op string, attrs func() []obs.Attr) *query.WorkerObs {
	wall := time.Since(start).Microseconds()
	wo := &query.WorkerObs{WallMicros: wall}
	if r.Header.Get(traceHeader) != "" {
		wo.Spans = []obs.Span{{Name: "worker-" + op, DurMicros: wall, Attrs: attrs()}}
	}
	return wo
}

func (w *Worker) handleScan(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ls := w.lookup(rw, r)
	if ls == nil {
		return
	}
	var req query.ScanRequest
	if !decodeReq(rw, r, &req) {
		return
	}
	resp, err := ls.Scan(r.Context(), req)
	if err == nil {
		resp.Obs = workerObs(r, start, "scan", func() []obs.Attr {
			return append(query.WorkAttrs(resp.Trace),
				obs.Attr{Key: "length", Value: int64(req.Length)},
				obs.Attr{Key: "k", Value: int64(req.K)},
				obs.Attr{Key: "hits", Value: int64(len(resp.Hits))})
		})
	}
	answer(rw, r, resp, err)
}

func (w *Worker) handleVerifyK(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ls := w.lookup(rw, r)
	if ls == nil {
		return
	}
	var req query.VerifyKRequest
	if !decodeReq(rw, r, &req) {
		return
	}
	resp, err := ls.VerifyK(r.Context(), req)
	if err == nil {
		resp.Obs = workerObs(r, start, "verifyk", func() []obs.Attr {
			return []obs.Attr{
				{Key: "length", Value: int64(req.Length)},
				{Key: "candidates", Value: int64(len(req.Candidates))},
				{Key: "hits", Value: int64(len(resp.Hits))},
				{Key: "prunedByKim", Value: int64(resp.PrunedByKim)},
				{Key: "dtwComputed", Value: int64(resp.DTWComputed)},
			}
		})
	}
	answer(rw, r, resp, err)
}

func (w *Worker) handleRange(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ls := w.lookup(rw, r)
	if ls == nil {
		return
	}
	var req query.RangeRequest
	if !decodeReq(rw, r, &req) {
		return
	}
	resp, err := ls.Range(r.Context(), req)
	if err == nil {
		resp.Obs = workerObs(r, start, "range", func() []obs.Attr {
			return append(query.WorkAttrs(resp.Trace),
				obs.Attr{Key: "length", Value: int64(req.Length)},
				obs.Attr{Key: "results", Value: int64(len(resp.Results))})
		})
	}
	answer(rw, r, resp, err)
}
