package api

import (
	"net/http"
	"testing"
)

// TestErrorCodes pins the machine-readable code on each error class.
func TestErrorCodes(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()

	cases := []struct {
		name     string
		resp     map[string]any
		wantCode string
	}{
		{"unknown dataset",
			postJSON(t, hs.URL+"/v1/datasets/nope/match", matchItem{Query: q}, http.StatusNotFound),
			CodeNotFound},
		{"bad mode",
			postJSON(t, base+"/match", matchItem{Query: q, Mode: "zig"}, http.StatusBadRequest),
			CodeInvalidArgument},
		{"duplicate register",
			postJSON(t, hs.URL+"/v1/datasets",
				registerRequest{Name: srv.DefaultName(), Generator: "ECG"}, http.StatusConflict),
			CodeAlreadyExists},
		{"forbidden fs source",
			postJSON(t, hs.URL+"/v1/datasets",
				registerRequest{Name: "fs", Path: "/etc/passwd"}, http.StatusForbidden),
			CodeForbidden},
		{"unknown job",
			getJSON(t, hs.URL+"/v1/jobs/j-0", http.StatusNotFound),
			CodeNotFound},
	}
	for _, c := range cases {
		if c.resp["code"] != c.wantCode {
			t.Errorf("%s: code = %v, want %v", c.name, c.resp["code"], c.wantCode)
		}
		if msg, _ := c.resp["error"].(string); msg == "" {
			t.Errorf("%s: missing error message", c.name)
		}
	}
}

// TestUniformBatchEnvelopes drives the range and seasonal batch endpoints
// plus the match batch's per-item options and checks the shared envelope.
func TestUniformBatchEnvelopes(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()

	out := postJSON(t, base+"/range/batch", map[string]any{"queries": []rangeItem{
		{Query: q, Length: len(q), Radius: 0.5},
		{Query: q, Length: len(q), Radius: 0.5, Exact: true},
		{Query: q, Length: -1, Radius: 0.5},
	}}, http.StatusOK)
	if out["count"].(float64) != 3 || out["errors"].(float64) != 1 {
		t.Fatalf("range batch envelope: %v", out)
	}
	items := out["results"].([]any)
	if items[0].(map[string]any)["result"] == nil {
		t.Error("range batch item 0 missing result")
	}
	if bad := items[2].(map[string]any); bad["code"] != CodeInvalidArgument {
		t.Errorf("range batch bad item: %v", bad)
	}

	out = postJSON(t, base+"/seasonal/batch", map[string]any{"queries": []map[string]any{
		{"length": len(q)},
		{"series": 0, "length": len(q)},
		{"series": 0, "length": -9},
	}}, http.StatusOK)
	if out["count"].(float64) != 3 || out["errors"].(float64) != 1 {
		t.Fatalf("seasonal batch envelope: %v", out)
	}

	// Uniform match shape with per-item options.
	out = postJSON(t, base+"/match/batch", map[string]any{"queries": []matchItem{
		{Query: q, Mode: "exact"},
		{Query: q, K: 3},
		{Query: q, Mode: "warp"},
	}}, http.StatusOK)
	if out["errors"].(float64) != 1 {
		t.Fatalf("uniform match batch envelope: %v", out)
	}
	items = out["results"].([]any)
	if m := items[1].(map[string]any)["result"].(map[string]any); len(m["matches"].([]any)) != 3 {
		t.Errorf("k-NN batch item: %v", items[1])
	}
	if bad := items[2].(map[string]any); bad["code"] != CodeInvalidArgument {
		t.Errorf("bad-mode item: %v", bad)
	}

	// Options live on the items; a top-level mode is an unknown field.
	postJSON(t, base+"/match/batch", map[string]any{
		"queries": []matchItem{{Query: q}}, "mode": "exact",
	}, http.StatusBadRequest)

	// Empty batches are rejected on every family.
	for _, path := range []string{"/match/batch", "/range/batch", "/seasonal/batch"} {
		postJSON(t, base+path, map[string]any{"queries": []any{}}, http.StatusBadRequest)
	}
}

// TestStatsSurface checks /v1/stats exposes the latency histograms keyed
// by route pattern alongside job and cache counters.
func TestStatsSurface(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()

	for i := 0; i < 3; i++ {
		postJSON(t, base+"/match", matchItem{Query: q}, http.StatusOK)
	}
	job := postJSON(t, base+"/match/jobs", matchItem{Query: q}, http.StatusAccepted)
	waitJob(t, hs.URL, job["id"].(string))

	stats := getJSON(t, hs.URL+"/v1/stats", http.StatusOK)
	lat, ok := stats["latency"].(map[string]any)
	if !ok {
		t.Fatal("/v1/stats missing latency map")
	}
	h, ok := lat["POST /v1/datasets/{name}/match"].(map[string]any)
	if !ok {
		t.Fatalf("latency map missing the match route: %v", lat)
	}
	if h["count"].(float64) < 3 {
		t.Errorf("match histogram count = %v, want ≥ 3", h["count"])
	}
	for _, k := range []string{"p50Millis", "p90Millis", "p99Millis", "meanMillis"} {
		if _, ok := h[k]; !ok {
			t.Errorf("histogram missing %s: %v", k, h)
		}
	}
	jm, ok := stats["jobs"].(map[string]any)
	if !ok || jm["submitted"].(float64) < 1 {
		t.Errorf("/v1/stats jobs counters: %v", stats["jobs"])
	}
	hubStats := stats["hub"].(map[string]any)
	if _, ok := hubStats["cache"]; !ok {
		t.Error("/v1/stats hub missing cache counters")
	}
	qc, ok := hubStats["query"].(map[string]any)
	if !ok {
		t.Fatal("/v1/stats hub missing query work counters")
	}
	if qc["queries"].(float64) < 1 {
		t.Errorf("hub query counter = %v", qc["queries"])
	}
}
