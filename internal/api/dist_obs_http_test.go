package api

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"onex/internal/shardrpc"
)

// distTestServer boots n real shardrpc workers on loopback and a server
// whose default dataset fans out to them.
func distTestServer(t *testing.T, n int) (*Server, *httptest.Server, []string) {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	urls := make([]string, n)
	for i := range urls {
		ws := httptest.NewServer(shardrpc.NewWorker(logger).Handler())
		t.Cleanup(ws.Close)
		urls[i] = ws.URL
	}
	cfg := testConfig()
	cfg.Shards = 2
	cfg.ShardWorkers = urls
	cfg.CacheEntries = -1 // every query runs the cascade
	cfg.HealthProbe = 25 * time.Millisecond
	srv, hs := testServer(t, cfg)
	return srv, hs, urls
}

// TestDistributedExplain: distributed explain responses are tagged with the
// remote transport and worker set, the trace contains the rpc and folded
// worker spans, and the cascade attrs of the worker spans plus the
// coordinator's refine spans (the best-match group walk runs on the
// coordinator) agree exactly with both the trace work counters and the
// /v1/stats deltas.
func TestDistributedExplain(t *testing.T) {
	srv, hs, urls := distTestServer(t, 2)
	name := srv.DefaultName()
	q := queryFor(t, srv)

	before := queryWork(t, hs.URL)
	body := postJSON(t, hs.URL+"/v1/datasets/"+name+"/match",
		map[string]any{"query": q, "explain": true}, http.StatusOK)
	after := queryWork(t, hs.URL)

	if got, _ := body["transport"].(string); got != "remote" {
		t.Errorf("transport = %q, want remote", got)
	}
	workers, _ := body["workers"].([]any)
	if len(workers) != len(urls) {
		t.Errorf("workers = %v, want the %d worker URLs", workers, len(urls))
	}

	tr := traceFrom(t, body)
	spans, _ := tr["spans"].([]any)
	var rpcSpans, workerSpans int
	spanSums, refined := map[string]float64{}, map[string]float64{}
	for _, raw := range spans {
		sp, _ := raw.(map[string]any)
		nm, _ := sp["name"].(string)
		sums := spanSums
		switch {
		case strings.HasPrefix(nm, "rpc-"):
			rpcSpans++
			continue
		case strings.HasPrefix(nm, "worker-"):
			workerSpans++
		case nm == "refine":
			sums = refined
		default:
			continue
		}
		attrs, _ := sp["attrs"].([]any)
		for _, ra := range attrs {
			a, _ := ra.(map[string]any)
			k, _ := a["key"].(string)
			v, _ := a["value"].(float64)
			sums[k] += v
		}
	}
	if rpcSpans == 0 || workerSpans == 0 {
		t.Fatalf("distributed trace has %d rpc / %d worker spans: %v", rpcSpans, workerSpans, spans)
	}

	work := workOf(tr)
	for _, k := range []string{"repsExamined", "prunedByKim", "dtwComputed"} {
		wv, _ := work[k].(float64)
		if delta := after[k] - before[k]; wv != delta {
			t.Errorf("work[%q] = %v, /v1/stats delta = %v", k, wv, delta)
		}
		if sum := spanSums[k] + refined[k]; sum != wv {
			t.Errorf("worker+refine span sum %q = %v, trace work = %v", k, sum, wv)
		}
	}
	if wv, _ := work["membersTested"].(float64); wv != refined["membersTested"] {
		t.Errorf("membersTested = %v, refine span sum = %v", wv, refined["membersTested"])
	}

	// The slow log tags distributed entries with the transport and workers.
	slow := getJSON(t, hs.URL+"/v1/debug/slow", http.StatusOK)
	entries, _ := slow["slow"].([]any)
	if len(entries) == 0 {
		t.Fatal("slow buffer empty after a distributed query")
	}
	var tagged bool
	for _, raw := range entries {
		e, _ := raw.(map[string]any)
		if e["transport"] == "remote" {
			if ws, _ := e["workers"].([]any); len(ws) == len(urls) {
				tagged = true
			}
		}
	}
	if !tagged {
		t.Errorf("no slow entry tagged transport=remote with the worker set: %v", entries)
	}
}

// TestFleetHealthSurfaces: after distributed traffic, /v1/stats exposes the
// per-worker fleet health and /metrics the onex_worker_* families.
func TestFleetHealthSurfaces(t *testing.T) {
	srv, hs, urls := distTestServer(t, 2)
	name := srv.DefaultName()
	q := queryFor(t, srv)
	postJSON(t, hs.URL+"/v1/datasets/"+name+"/match", map[string]any{"query": q}, http.StatusOK)

	stats := getJSON(t, hs.URL+"/v1/stats", http.StatusOK)
	workers, _ := stats["workers"].([]any)
	if len(workers) == 0 {
		t.Fatalf("/v1/stats has no workers section: %v", stats)
	}
	byURL := map[string]map[string]any{}
	for _, raw := range workers {
		w, _ := raw.(map[string]any)
		u, _ := w["url"].(string)
		byURL[u] = w
	}
	for _, u := range urls {
		w := byURL[u]
		if w == nil {
			t.Fatalf("worker %s missing from /v1/stats workers: %v", u, workers)
		}
		if up, _ := w["up"].(bool); !up {
			t.Errorf("worker %s reported down: %v", u, w)
		}
		if attempts, _ := w["attempts"].(float64); attempts < 1 {
			t.Errorf("worker %s has no recorded attempts: %v", u, w)
		}
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, family := range []string{
		"onex_worker_up", "onex_worker_call_duration_seconds",
		"onex_worker_call_attempts_total", "onex_worker_retries_total",
		"onex_worker_reships_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from coordinator /metrics", family)
		}
	}
	for _, u := range urls {
		if !strings.Contains(body, `onex_worker_up{worker="`+u+`"} 1`) {
			t.Errorf("onex_worker_up for %s not 1 in:\n%s", u, body)
		}
	}
}

// TestLocalTransportTagging: in-process datasets are tagged local with no
// worker set, keeping the distributed fields from leaking into local runs.
func TestLocalTransportTagging(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	name := srv.DefaultName()
	q := queryFor(t, srv)

	body := postJSON(t, hs.URL+"/v1/datasets/"+name+"/match",
		map[string]any{"query": q, "explain": true}, http.StatusOK)
	if got, _ := body["transport"].(string); got != "local" {
		t.Errorf("transport = %q, want local", got)
	}
	if _, ok := body["workers"]; ok {
		t.Errorf("local explain leaked a workers field: %v", body)
	}

	slow := getJSON(t, hs.URL+"/v1/debug/slow", http.StatusOK)
	entries, _ := slow["slow"].([]any)
	if len(entries) == 0 {
		t.Fatal("slow buffer empty")
	}
	e, _ := entries[0].(map[string]any)
	if e["transport"] != "local" {
		t.Errorf("local slow entry transport = %v", e["transport"])
	}
	if _, ok := e["workers"]; ok {
		t.Errorf("local slow entry leaked workers: %v", e)
	}
}
