package shardrpc

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"onex/internal/obs"
	"onex/internal/query"
)

func scanReq() query.ScanBestRequest {
	return query.ScanBestRequest{
		Length: 4, Query: []float64{1, 2, 3, 4},
	}
}

// TestWorkerMetricsEndpoint: /worker/v1/metrics serves the Prometheus text
// families after real traffic, with monotone cumulative histogram buckets.
func TestWorkerMetricsEndpoint(t *testing.T) {
	w := NewWorker(testLogger())
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	if resp, raw := doJSON(t, http.MethodPut, shipURL(srv.URL, "d", "g1"), testSpec("d", "g1")); resp.StatusCode != http.StatusOK {
		t.Fatalf("ship = %d %s", resp.StatusCode, raw)
	}
	// Duplicate ship exercises the "cached" outcome counter.
	doJSON(t, http.MethodPut, shipURL(srv.URL, "d", "g1"), testSpec("d", "g1"))
	if resp, raw := doJSON(t, http.MethodPost, shipURL(srv.URL, "d", "g1")+"/scan", scanReq()); resp.StatusCode != http.StatusOK {
		t.Fatalf("scan = %d %s", resp.StatusCode, raw)
	}

	resp, err := http.Get(srv.URL + "/worker/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, family := range []string{
		"onex_worker_op_duration_seconds",
		"onex_worker_ops_total",
		"onex_worker_ships_total",
		"onex_worker_resident_shards",
		"onex_worker_resident_bytes",
		"onex_worker_retained_generations",
		"onex_worker_uptime_seconds",
		"onex_worker_goroutines",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("missing family %s", family)
		}
	}
	for _, sample := range []string{
		`onex_worker_ops_total{op="scan",status="200"} 1`,
		`onex_worker_ships_total{outcome="built"} 1`,
		`onex_worker_ships_total{outcome="cached"} 1`,
		`onex_worker_resident_shards 1`,
		`onex_worker_retained_generations 1`,
	} {
		if !strings.Contains(body, sample) {
			t.Errorf("missing sample %q in:\n%s", sample, body)
		}
	}

	// Cumulative buckets for op="scan" must be non-decreasing and end at +Inf
	// equal to the count.
	var last, inf, count float64
	var buckets int
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, `onex_worker_op_duration_seconds_bucket{op="scan",`):
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("bucket decreased: %q after %v", line, last)
			}
			last = v
			buckets++
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, `onex_worker_op_duration_seconds_count{op="scan"}`):
			count, _ = strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		}
	}
	if buckets == 0 {
		t.Fatal("no scan histogram buckets")
	}
	if inf != count || count != 1 {
		t.Fatalf("+Inf bucket %v != count %v (want 1)", inf, count)
	}
}

// TestWorkerPanicRecovery: a panicking handler answers the uniform 500
// envelope instead of killing the connection, and the op counter records it.
func TestWorkerPanicRecovery(t *testing.T) {
	w := NewWorker(testLogger())
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", w.timed("boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatalf("panic killed the response: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d %s", resp.StatusCode, raw)
	}
	if code := errCode(t, raw); code != "internal" {
		t.Fatalf("panic envelope code = %q", code)
	}
	if got := w.opCounts.Snapshot()[opStatus{"boom", 500}]; got != 1 {
		t.Fatalf("op counter after panic = %d, want 1", got)
	}
}

// TestClientTraceSpans: a traced call records an rpc-<op> span with the
// attempt/byte decomposition and folds the worker's own span into the trace
// nested inside it; untraced calls send no trace header at all.
func TestClientTraceSpans(t *testing.T) {
	var traceHeaders, calls atomic.Int64
	worker := NewWorker(testLogger()).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/scan") {
			calls.Add(1)
			if r.Header.Get(traceHeader) != "" {
				traceHeaders.Add(1)
			}
		}
		worker.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	c, err := NewClient(srv.URL, testSpec("d", "g1"), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Untraced: no header on the wire, nothing recorded.
	if _, err := c.ScanBest(t.Context(), scanReq()); err != nil {
		t.Fatal(err)
	}
	if traceHeaders.Load() != 0 {
		t.Fatal("untraced call sent the trace header")
	}

	tr := obs.NewTrace("r1")
	ctx := obs.ContextWithTrace(t.Context(), tr)
	if _, err := c.ScanBest(ctx, scanReq()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || traceHeaders.Load() != 1 {
		t.Fatalf("calls=%d traced=%d", calls.Load(), traceHeaders.Load())
	}

	v := tr.Snapshot()
	var rpc, workerSpan *obs.Span
	for i := range v.Spans {
		switch v.Spans[i].Name {
		case "rpc-scan":
			rpc = &v.Spans[i]
		case "worker-scan":
			workerSpan = &v.Spans[i]
		}
	}
	if rpc == nil || workerSpan == nil {
		t.Fatalf("spans = %+v", v.Spans)
	}
	attrs := map[string]int64{}
	for _, a := range rpc.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["attempts"] != 1 || attrs["retries"] != 0 || attrs["reships"] != 0 {
		t.Fatalf("rpc attrs = %+v", attrs)
	}
	if attrs["reqBytes"] <= 0 || attrs["respBytes"] <= 0 {
		t.Fatalf("byte attrs missing: %+v", attrs)
	}
	if attrs["workerMicros"] != workerSpan.DurMicros {
		t.Fatalf("workerMicros attr %d != worker span dur %d", attrs["workerMicros"], workerSpan.DurMicros)
	}
	// Time containment: the folded worker span sits inside the rpc span.
	if workerSpan.StartMicros < rpc.StartMicros ||
		workerSpan.StartMicros+workerSpan.DurMicros > rpc.StartMicros+rpc.DurMicros+1 {
		t.Fatalf("worker span [%d,+%d] not inside rpc span [%d,+%d]",
			workerSpan.StartMicros, workerSpan.DurMicros, rpc.StartMicros, rpc.DurMicros)
	}
}

// TestClientRetryFeedsFleet: transient 503s retry and the fleet registry's
// lifetime counters pick up the attempts, errors and retries.
func TestClientRetryFeedsFleet(t *testing.T) {
	var mu sync.Mutex
	failures := 2
	worker := NewWorker(testLogger()).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/scan") {
			mu.Lock()
			fail := failures > 0
			if fail {
				failures--
			}
			mu.Unlock()
			if fail {
				rw.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(rw, `{"error":"flaky","code":"unavailable"}`)
				return
			}
		}
		worker.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	c, err := NewClient(srv.URL, testSpec("d", "g1"), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := Fleet().Totals()
	tr := obs.NewTrace("r")
	if _, err := c.ScanBest(obs.ContextWithTrace(t.Context(), tr), scanReq()); err != nil {
		t.Fatal(err)
	}
	d := Fleet().Totals()
	d.Attempts -= before.Attempts
	d.Errors -= before.Errors
	d.Retries -= before.Retries
	d.QueryCalls -= before.QueryCalls
	if d.Attempts != 3 || d.Errors != 2 || d.Retries != 2 || d.QueryCalls != 1 {
		t.Fatalf("fleet deltas = %+v", d)
	}

	var found bool
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name != "rpc-scan" {
			continue
		}
		found = true
		attrs := map[string]int64{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["attempts"] != 3 || attrs["retries"] != 2 || attrs["backoffMs"] < 100 {
			t.Fatalf("retried rpc span attrs = %+v", attrs)
		}
	}
	if !found {
		t.Fatal("no rpc-scan span recorded")
	}
}

// TestFleetTransitions: the up/down rule — down after downAfter consecutive
// failures, up again on the first success — and the status roll-up.
func TestFleetTransitions(t *testing.T) {
	f := &FleetHealth{workers: make(map[string]*workerHealth)}
	const u = "http://w1"
	f.observeAttempt(u, time.Millisecond, false, false)
	if st := f.Snapshot()[0]; !st.Up || st.Attempts != 1 {
		t.Fatalf("after success: %+v", st)
	}
	for i := 0; i < downAfter-1; i++ {
		f.observeAttempt(u, time.Millisecond, true, false)
		if st := f.Snapshot()[0]; !st.Up {
			t.Fatalf("down after only %d failures", i+1)
		}
	}
	f.observeAttempt(u, time.Millisecond, true, true)
	st := f.Snapshot()[0]
	if st.Up || st.ConsecutiveFailures != downAfter || st.Timeouts != 1 {
		t.Fatalf("after %d failures: %+v", downAfter, st)
	}
	if st.Errors != downAfter || st.Attempts != downAfter+1 {
		t.Fatalf("counters: %+v", st)
	}
	if want := float64(downAfter) / float64(downAfter+1); math.Abs(st.RollingErrorRate-want) > 1e-9 {
		t.Fatalf("rolling error rate = %v, want %v", st.RollingErrorRate, want)
	}
	if st.LastSuccess == "" {
		t.Fatal("lastSuccess empty after a success")
	}

	f.observeProbe(u, true)
	if st := f.Snapshot()[0]; !st.Up || st.ConsecutiveFailures != 0 {
		t.Fatalf("probe success did not restore up: %+v", st)
	}
	// Probes feed the window and transitions but not the attempt counters.
	if st := f.Snapshot()[0]; st.Attempts != downAfter+1 {
		t.Fatalf("probe bumped attempts: %+v", st)
	}
}

// TestFleetProbeLoop: the background loop probes known workers and flips
// them down when healthz starts failing, and back up when it recovers.
func TestFleetProbeLoop(t *testing.T) {
	var failing atomic.Bool
	worker := NewWorker(testLogger()).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			rw.WriteHeader(http.StatusInternalServerError)
			return
		}
		worker.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	f := &FleetHealth{
		workers:   make(map[string]*workerHealth),
		probeHTTP: srv.Client(),
	}
	// Register the worker the way real traffic would.
	f.observeAttempt(srv.URL, time.Millisecond, false, false)

	stop := f.StartProbes(5 * time.Millisecond)
	defer stop()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st := f.Snapshot(); len(st) == 1 && st[0].Up == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("worker never became %s: %+v", what, f.Snapshot())
	}

	failing.Store(true)
	waitFor(false, "down")
	failing.Store(false)
	waitFor(true, "up")

	// Stop is idempotent and releases the loop.
	stop()
	stop()
}
