package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"onex/internal/obs"
	"onex/internal/query"
)

// ErrUnavailable marks a worker call that exhausted its retries: the worker
// is down, unreachable, or persistently failing. The API layer maps it to
// 503/unavailable.
var ErrUnavailable = errors.New("shardrpc: worker unavailable")

// ErrResponseTooLarge marks a worker answer over the response size limit
// (maxRequestBytes — a range result too wide for one response). The
// condition is a property of the request, not of the worker's health, so the
// call fails at once: retrying would move the same bytes again.
var ErrResponseTooLarge = errors.New("shardrpc: worker response exceeds size limit")

// DefaultTimeout bounds one worker call attempt.
const DefaultTimeout = 30 * time.Second

// DefaultRetries is how many times a failed attempt is retried (so a call
// makes at most 1+DefaultRetries attempts).
const DefaultRetries = 3

// retryBackoff is the base backoff before retry n (doubles each retry).
const retryBackoff = 50 * time.Millisecond

// traceHeader is the coordinator's opt-in for worker-side span recording:
// when a live obs.Trace rides the call context, the client sets it and the
// worker returns its spans in the response's obs payload. Keeping the
// opt-in out of the request structs leaves the wire shapes unchanged for
// untraced queries.
const traceHeader = "X-Onex-Trace"

// ClientOptions tune a worker client; zero values select the defaults.
type ClientOptions struct {
	// Timeout bounds each call attempt (default DefaultTimeout).
	Timeout time.Duration
	// Retries caps retry attempts after the first (default DefaultRetries;
	// negative disables retries).
	Retries int
	// HTTPClient overrides the transport (tests); default http.Client.
	HTTPClient *http.Client
}

// Client drives one shard resident on a remote worker, implementing
// query.ShardTransport over the worker REST protocol. It retains the
// shipped ShardSpec so it can re-ship after a worker restart: a query call
// that answers 404/unknown_generation re-PUTs the spec (idempotent — the
// key is the spec's (dataset, generation, shard)) and retries, which is
// what makes mid-query worker restarts invisible to the coordinator.
//
// Safe for concurrent use; re-shipping is serialized so a burst of
// unknown_generation answers after a restart ships the state once.
type Client struct {
	base    string
	http    *http.Client
	timeout time.Duration
	retries int
	// respLimit bounds a response body (maxRequestBytes; tests lower it).
	respLimit int64

	spec  query.ShardSpec
	info  query.ShardInfo
	paths struct {
		ship, scan, scanFixed, verifyK, members, rng string
	}

	shipMu sync.Mutex // serializes re-ship after a worker restart

	mu    sync.Mutex // guards stats
	stats query.ShardStats
}

// NewClient ships spec to the worker at baseURL (e.g. "http://host:port")
// and returns a transport over it. Construction fails fast if the worker is
// unreachable after the configured retries or rejects the spec.
func NewClient(baseURL string, spec query.ShardSpec, opts ClientOptions) (*Client, error) {
	base := strings.TrimRight(baseURL, "/")
	if base == "" {
		return nil, fmt.Errorf("shardrpc: empty worker URL")
	}
	if spec.Dataset == "" || spec.Generation == "" {
		return nil, fmt.Errorf("shardrpc: shard spec needs a dataset name and generation")
	}
	c := &Client{
		base:      base,
		http:      opts.HTTPClient,
		timeout:   opts.Timeout,
		retries:   opts.Retries,
		respLimit: maxRequestBytes,
		spec:      spec,
		info:      specInfo(spec),
	}
	if c.http == nil {
		c.http = &http.Client{}
	}
	if c.timeout <= 0 {
		c.timeout = DefaultTimeout
	}
	if c.retries == 0 {
		c.retries = DefaultRetries
	} else if c.retries < 0 {
		c.retries = 0
	}
	root := fmt.Sprintf("%s/worker/v1/shards/%s/%s/%d", base,
		url.PathEscape(spec.Dataset), url.PathEscape(spec.Generation), spec.Shard)
	c.paths.ship = root
	c.paths.scan = root + "/scan"
	c.paths.scanFixed = root + "/scanfixed"
	c.paths.verifyK = root + "/verifyk"
	c.paths.members = root + "/members"
	c.paths.rng = root + "/range"

	if err := c.shipWithRetry(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// specInfo derives the shard's layout slice from its spec (series are
// shipped ascending; owned global ids per length are collected ascending).
func specInfo(spec query.ShardSpec) query.ShardInfo {
	info := query.ShardInfo{
		Shard:  spec.Shard,
		Series: make([]int, 0, len(spec.Series)),
		Owned:  make(map[int][]int, len(spec.Lengths)),
	}
	for _, s := range spec.Series {
		info.Series = append(info.Series, s.ID)
	}
	for _, sl := range spec.Lengths {
		gids := make([]int, 0, len(sl.Groups))
		for _, g := range sl.Groups {
			if g.Owned {
				gids = append(gids, g.GlobalID)
			}
		}
		sort.Ints(gids)
		info.Owned[sl.Length] = gids
	}
	return info
}

// Info implements query.ShardTransport.
func (c *Client) Info() query.ShardInfo { return c.info }

// Stats implements query.ShardTransport (the stats the worker reported at
// the last successful ship).
func (c *Client) Stats() query.ShardStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close implements query.ShardTransport.
func (c *Client) Close() error {
	c.http.CloseIdleConnections()
	return nil
}

// Generation exposes the shipped state's generation nonce (tests,
// observability).
func (c *Client) Generation() string { return c.spec.Generation }

// httpError is a non-2xx worker answer.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("shardrpc: worker answered %d (%s): %s", e.status, e.code, e.msg)
}

// unknownGeneration reports whether err is the worker's re-ship signal.
func unknownGeneration(err error) bool {
	var he *httpError
	return errors.As(err, &he) && he.code == "unknown_generation"
}

// terminal reports whether err is one no retry can change: the worker
// rejected the request itself (4xx other than a timeout), or its answer is
// over the size limit.
func terminal(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status >= 400 && he.status < 500 && he.status != http.StatusRequestTimeout
	}
	return errors.Is(err, ErrResponseTooLarge)
}

// callStats accumulates one call's attempt roll-up for the rpc span and
// the fleet-health counters.
type callStats struct {
	attempts  int
	reships   int
	backoff   time.Duration
	reqBytes  int64
	respBytes int64
}

// once runs one bounded HTTP attempt, propagating the request id and
// feeding the attempt's outcome into the fleet-health registry. cs (may be
// nil) accumulates the bytes moved.
func (c *Client) once(ctx context.Context, method, path string, in, out any, cs *callStats) error {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("shardrpc: encode request: %w", err)
	}
	if cs != nil {
		cs.reqBytes += int64(len(body))
	}
	req, err := http.NewRequestWithContext(actx, method, path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("shardrpc: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id := obs.RequestIDFromContext(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	if obs.TraceFromContext(ctx) != nil {
		req.Header.Set(traceHeader, "1")
	}
	// From here the attempt counts against the worker's health: the timeout
	// marker distinguishes our per-attempt deadline firing from the parent
	// context being canceled.
	start := time.Now()
	timedOut := func() bool {
		return errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil
	}
	resp, err := c.http.Do(req)
	if err != nil {
		Fleet().observeAttempt(c.base, time.Since(start), true, timedOut())
		return fmt.Errorf("shardrpc: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, c.respLimit+1))
	if err != nil {
		Fleet().observeAttempt(c.base, time.Since(start), true, timedOut())
		return fmt.Errorf("shardrpc: read response: %w", err)
	}
	if int64(len(raw)) > c.respLimit {
		// The worker answered in full; it is alive, the answer is too big.
		Fleet().observeAttempt(c.base, time.Since(start), false, false)
		return fmt.Errorf("%w: %s %s: over %d bytes", ErrResponseTooLarge, method, path, c.respLimit)
	}
	if cs != nil {
		cs.respBytes += int64(len(raw))
	}
	// Any complete HTTP answer below 5xx means the worker is alive and
	// serving — unknown_generation (404) is protocol-normal after a restart.
	Fleet().observeAttempt(c.base, time.Since(start), resp.StatusCode >= 500, false)
	if resp.StatusCode != http.StatusOK {
		var we wireError
		_ = json.Unmarshal(raw, &we)
		if we.Code == "" {
			we.Code = "http_" + fmt.Sprint(resp.StatusCode)
			we.Error = strings.TrimSpace(string(raw))
		}
		return &httpError{status: resp.StatusCode, code: we.Code, msg: we.Error}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("shardrpc: decode response: %w", err)
		}
	}
	return nil
}

// shipOnce PUTs the retained spec and refreshes the cached stats.
func (c *Client) shipOnce(ctx context.Context) error {
	var resp struct {
		Stats query.ShardStats `json:"stats"`
	}
	if err := c.once(ctx, http.MethodPut, c.paths.ship, c.spec, &resp, nil); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats = resp.Stats
	c.mu.Unlock()
	return nil
}

// shipWithRetry ships the spec with the standard retry/backoff loop.
func (c *Client) shipWithRetry(ctx context.Context) error {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, retryBackoff<<(attempt-1)); err != nil {
				return err
			}
		}
		err := c.shipOnce(ctx)
		if err == nil {
			return nil
		}
		lastErr = err
		if terminal(err) {
			// The worker rejected the spec itself; retrying won't help.
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("%w: ship %s: %v", ErrUnavailable, c.paths.ship, lastErr)
}

// reship re-PUTs the spec after an unknown_generation answer (worker
// restart or retention eviction), serialized so concurrent queries ship
// once. The PUT is idempotent on (dataset, generation, shard), so losing
// the serialization race costs one cheap cache-hit round trip.
func (c *Client) reship(ctx context.Context) error {
	c.shipMu.Lock()
	defer c.shipMu.Unlock()
	return c.shipOnce(ctx)
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// obsCarrier extracts the worker observability payload from any transport
// response.
type obsCarrier interface{ ObsPayload() *query.WorkerObs }

// call POSTs one transport request with bounded retry/backoff. Transient
// failures (network errors, 5xx) back off and retry; unknown_generation
// re-ships the shard state and retries immediately — together these make a
// worker restart mid-query invisible, because every worker request is
// idempotent: scans and member evaluations are pure functions of
// (generation state, request), so a duplicate attempt after an ambiguous
// failure returns the same bits. Non-retryable answers (4xx protocol
// errors, a response over the size limit) and context cancellation surface
// immediately; exhausted retries wrap ErrUnavailable.
//
// When the context carries a live obs.Trace, the whole call runs under an
// "rpc-<op>" span whose attrs decompose it (attempts, retries, re-ships,
// backoff slept, bytes moved, worker compute vs wire time), and the
// worker's own spans from the response payload are folded into the trace
// rebased so they nest inside the rpc span by time containment. Tracing is
// strictly observational — the untraced path allocates nothing extra and
// the bytes on the wire differ only by a request header.
func (c *Client) call(ctx context.Context, op, path string, in, out any) error {
	rec := obs.TraceFromContext(ctx)
	var sc obs.SpanScope
	if rec != nil {
		sc = rec.StartSpan("rpc-" + op)
	}
	start := time.Now()
	var cs callStats
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			d := retryBackoff << (attempt - 1)
			if err := sleep(ctx, d); err != nil {
				c.abortCall(sc, &cs)
				return err
			}
			cs.backoff += d
		}
		cs.attempts++
		err := c.once(ctx, http.MethodPost, path, in, out, &cs)
		if err == nil {
			c.finishCall(rec, sc, start, &cs, out)
			return nil
		}
		if ctx.Err() != nil {
			c.abortCall(sc, &cs)
			return ctx.Err()
		}
		if unknownGeneration(err) {
			// Worker lost our state (restart/eviction): re-ship and burn
			// no backoff — the next attempt hits a freshly built shard.
			cs.reships++
			if serr := c.reship(ctx); serr != nil {
				lastErr = serr
				continue
			}
			lastErr = err
			continue
		}
		if terminal(err) {
			c.abortCall(sc, &cs)
			return err
		}
		lastErr = err
	}
	c.abortCall(sc, &cs)
	return fmt.Errorf("%w: %s: %v", ErrUnavailable, path, lastErr)
}

// finishCall closes out a successful call: the fleet model gets the
// retry/re-ship counters and the wall-vs-worker time split, and — when
// traced — the rpc span gets its attrs and the worker's spans are folded
// into the trace. Worker span offsets are in the worker handler's
// timebase; anchoring them so they END at the fold point (the handler wall
// equals the payload's WallMicros) places them inside the rpc span with
// the wire overhead ahead of them.
func (c *Client) finishCall(rec *obs.Trace, sc obs.SpanScope, start time.Time, cs *callStats, out any) {
	var wo *query.WorkerObs
	if oc, ok := out.(obsCarrier); ok {
		wo = oc.ObsPayload()
	}
	var workerMicros int64
	if wo != nil {
		workerMicros = wo.WallMicros
	}
	wall := time.Since(start)
	Fleet().observeCall(c.base, wall, workerMicros, cs.attempts-1, cs.reships)
	if rec == nil {
		return
	}
	if wo != nil && len(wo.Spans) > 0 {
		anchor := rec.ElapsedMicros() - workerMicros
		if anchor < 0 {
			anchor = 0
		}
		for _, ws := range wo.Spans {
			ws.StartMicros += anchor
			rec.AddSpan(ws)
		}
	}
	wire := wall.Microseconds() - workerMicros
	if wire < 0 {
		wire = 0
	}
	sc.Attr("shard", int64(c.spec.Shard)).
		Attr("attempts", int64(cs.attempts)).
		Attr("retries", int64(cs.attempts-1)).
		Attr("reships", int64(cs.reships)).
		Attr("backoffMs", cs.backoff.Milliseconds()).
		Attr("reqBytes", cs.reqBytes).
		Attr("respBytes", cs.respBytes).
		Attr("workerMicros", workerMicros).
		Attr("wireMicros", wire).
		End()
}

// abortCall closes the rpc span on a failed call and folds its retry and
// re-ship counters into the fleet model (the attempts themselves were
// recorded individually by once).
func (c *Client) abortCall(sc obs.SpanScope, cs *callStats) {
	retries := cs.attempts - 1
	if retries < 0 {
		retries = 0
	}
	Fleet().observeCallFailed(c.base, retries, cs.reships)
	sc.Attr("shard", int64(c.spec.Shard)).
		Attr("attempts", int64(cs.attempts)).
		Attr("reships", int64(cs.reships)).
		Attr("backoffMs", cs.backoff.Milliseconds()).
		Attr("error", 1).
		End()
}

// ScanBest implements query.ShardTransport.
func (c *Client) ScanBest(ctx context.Context, req query.ScanBestRequest) (query.ScanBestResponse, error) {
	var resp query.ScanBestResponse
	err := c.call(ctx, "scan", c.paths.scan, req, &resp)
	return resp, err
}

// ScanFixed implements query.ShardTransport.
func (c *Client) ScanFixed(ctx context.Context, req query.ScanFixedRequest) (query.ScanFixedResponse, error) {
	var resp query.ScanFixedResponse
	err := c.call(ctx, "scanfixed", c.paths.scanFixed, req, &resp)
	return resp, err
}

// VerifyK implements query.ShardTransport.
func (c *Client) VerifyK(ctx context.Context, req query.VerifyKRequest) (query.VerifyKResponse, error) {
	var resp query.VerifyKResponse
	err := c.call(ctx, "verifyk", c.paths.verifyK, req, &resp)
	return resp, err
}

// EvalMembers implements query.ShardTransport.
func (c *Client) EvalMembers(ctx context.Context, req query.EvalMembersRequest) (query.EvalMembersResponse, error) {
	var resp query.EvalMembersResponse
	err := c.call(ctx, "members", c.paths.members, req, &resp)
	return resp, err
}

// Range implements query.ShardTransport.
func (c *Client) Range(ctx context.Context, req query.RangeRequest) (query.RangeResponse, error) {
	var resp query.RangeResponse
	err := c.call(ctx, "range", c.paths.rng, req, &resp)
	return resp, err
}
