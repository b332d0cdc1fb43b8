package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testConfig() Config {
	return Config{Generator: "ItalyPower", ST: 0.25, Lengths: 6, Scale: 0.2, Seed: 1}
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Routes())
	t.Cleanup(hs.Close)
	return srv, hs
}

// newTestHTTP wires an httptest server around srv without tying srv's
// lifetime to the test (for shutdown-semantics tests that Close early).
func newTestHTTP(t *testing.T, srv *Server) string {
	t.Helper()
	hs := httptest.NewServer(srv.Routes())
	t.Cleanup(hs.Close)
	return hs.URL
}

func doJSON(t *testing.T, method, url string, body any, wantCode int) map[string]any {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: code %d, want %d (body %s)", method, url, resp.StatusCode, wantCode, raw)
	}
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s %s: non-JSON body %q: %v", method, url, raw, err)
		}
	}
	return out
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	return doJSON(t, http.MethodGet, url, nil, wantCode)
}

func postJSON(t *testing.T, url string, body any, wantCode int) map[string]any {
	t.Helper()
	return doJSON(t, http.MethodPost, url, body, wantCode)
}

// queryFor returns a query vector of an indexed length of the default
// dataset.
func queryFor(t *testing.T, srv *Server) []float64 {
	t.Helper()
	info, err := srv.DefaultInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Lengths) == 0 {
		t.Fatal("default dataset has no indexed lengths")
	}
	l := info.Lengths[len(info.Lengths)/2]
	q := make([]float64, l)
	for i := range q {
		q[i] = 0.5
	}
	return q
}

// ---- query families ----------------------------------------------------

func TestServerHealth(t *testing.T) {
	_, hs := testServer(t, testConfig())
	health := getJSON(t, hs.URL+"/healthz", http.StatusOK)
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
	// The pre-/v1 routes are gone, not gated.
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unversioned /stats: code %d, want 404", resp.StatusCode)
	}
}

func TestV1Match(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()
	out := postJSON(t, base+"/match", matchItem{Query: q, Mode: "exact"}, http.StatusOK)
	if out["length"].(float64) != float64(len(q)) {
		t.Errorf("match length = %v, want %d", out["length"], len(q))
	}
	out = postJSON(t, base+"/match", matchItem{Query: q, Mode: "any", K: 3}, http.StatusOK)
	if ms, ok := out["matches"].([]any); !ok || len(ms) != 3 {
		t.Errorf("k-NN returned %v", out)
	}
}

func TestV1RangeSeasonalRecommend(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	l := len(q)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()
	out := postJSON(t, base+"/range", rangeItem{Query: q, Length: l, Radius: 0.5}, http.StatusOK)
	if _, ok := out["count"].(float64); !ok {
		t.Errorf("range response: %v", out)
	}
	postJSON(t, base+"/range", rangeItem{Query: q, Length: l, Radius: -1}, http.StatusBadRequest)

	out = getJSON(t, fmt.Sprintf("%s/seasonal?length=%d", base, l), http.StatusOK)
	if _, ok := out["count"].(float64); !ok {
		t.Errorf("seasonal response: %v", out)
	}
	getJSON(t, fmt.Sprintf("%s/seasonal?series=0&length=%d", base, l), http.StatusOK)
	getJSON(t, base+"/seasonal?length=abc", http.StatusBadRequest)
	getJSON(t, fmt.Sprintf("%s/seasonal?series=xyz&length=%d", base, l), http.StatusBadRequest)

	out = getJSON(t, base+"/recommend?degree=S", http.StatusOK)
	if out["degree"] != "S" || out["low"].(float64) != 0 {
		t.Errorf("recommend = %v", out)
	}
	// Loose's +Inf upper bound must arrive as null, not as an encoding
	// failure behind an already-sent 200 (regression: empty body).
	out = getJSON(t, base+"/recommend?degree=L", http.StatusOK)
	if out["degree"] != "L" || out["low"].(float64) <= 0 || out["high"] != nil {
		t.Errorf("recommend L = %v, want positive low and null high", out)
	}
	getJSON(t, base+"/recommend?degree=Q", http.StatusBadRequest)
	getJSON(t, base+"/recommend?degree=M&length=abc", http.StatusBadRequest)
}

// ---- v1 lifecycle ------------------------------------------------------

func TestV1RegisterListQueryDrop(t *testing.T) {
	_, hs := testServer(t, testConfig())

	// Register a second dataset and wait for the build inline.
	out := postJSON(t, hs.URL+"/v1/datasets", registerRequest{
		Name: "ecg", Generator: "ECG", Scale: 0.05, ST: 0.25, Lengths: 5, Seed: 2, Wait: true,
	}, http.StatusCreated)
	if out["state"] != "ready" {
		t.Fatalf("registered dataset state = %v", out["state"])
	}

	list := getJSON(t, hs.URL+"/v1/datasets", http.StatusOK)
	if list["count"].(float64) != 2 {
		t.Errorf("list count = %v, want 2", list["count"])
	}

	info := getJSON(t, hs.URL+"/v1/datasets/ecg", http.StatusOK)
	lengths := info["lengths"].([]any)
	l := int(lengths[len(lengths)/2].(float64))
	q := make([]float64, l)
	for i := range q {
		q[i] = 0.4
	}
	// Query both datasets through the v1 routes.
	postJSON(t, hs.URL+"/v1/datasets/ecg/match", matchItem{Query: q, Mode: "exact"}, http.StatusOK)
	postJSON(t, hs.URL+"/v1/datasets/ecg/range", rangeItem{Query: q, Length: l, Radius: 0.4}, http.StatusOK)
	getJSON(t, fmt.Sprintf("%s/v1/datasets/ecg/seasonal?length=%d", hs.URL, l), http.StatusOK)
	getJSON(t, hs.URL+"/v1/datasets/ecg/recommend?degree=M", http.StatusOK)
	st := getJSON(t, hs.URL+"/v1/datasets/ecg/stats", http.StatusOK)
	if st["name"] != "ecg" || st["state"] != "ready" {
		t.Errorf("dataset stats = %v", st)
	}
	getJSON(t, hs.URL+"/v1/datasets/ItalyPower", http.StatusOK)

	// Drop and verify it is gone.
	doJSON(t, http.MethodDelete, hs.URL+"/v1/datasets/ecg", nil, http.StatusOK)
	getJSON(t, hs.URL+"/v1/datasets/ecg", http.StatusNotFound)
	postJSON(t, hs.URL+"/v1/datasets/ecg/match", matchItem{Query: q}, http.StatusNotFound)
	doJSON(t, http.MethodDelete, hs.URL+"/v1/datasets/ecg", nil, http.StatusNotFound)
}

func TestV1RegisterInlineSeries(t *testing.T) {
	_, hs := testServer(t, testConfig())
	series := make([]seriesJSON, 6)
	for i := range series {
		v := make([]float64, 20)
		for j := range v {
			v[j] = float64((i+1)*j%7) / 7
		}
		series[i] = seriesJSON{Label: "row", Values: v}
	}
	out := postJSON(t, hs.URL+"/v1/datasets", registerRequest{
		Name: "inline", Series: series, ST: 0.3, Lengths: 4, Wait: true,
	}, http.StatusCreated)
	if out["series"].(float64) != 6 {
		t.Errorf("inline series count = %v", out["series"])
	}
}

func TestV1RegisterErrors(t *testing.T) {
	_, hs := testServer(t, testConfig())
	// Missing name.
	postJSON(t, hs.URL+"/v1/datasets", registerRequest{Generator: "ECG"}, http.StatusBadRequest)
	// No source.
	postJSON(t, hs.URL+"/v1/datasets", registerRequest{Name: "x"}, http.StatusBadRequest)
	// Two sources.
	postJSON(t, hs.URL+"/v1/datasets",
		registerRequest{Name: "x", Generator: "ECG",
			Series: []seriesJSON{{Values: []float64{1, 2}}}}, http.StatusBadRequest)
	// Filesystem sources are forbidden unless the server opts in.
	postJSON(t, hs.URL+"/v1/datasets",
		registerRequest{Name: "x", Path: "/etc/passwd"}, http.StatusForbidden)
	postJSON(t, hs.URL+"/v1/datasets",
		registerRequest{Name: "x", Snapshot: "/etc/passwd"}, http.StatusForbidden)
	// Invalid name.
	postJSON(t, hs.URL+"/v1/datasets", registerRequest{Name: "no spaces", Generator: "ECG"}, http.StatusBadRequest)
	// Duplicate of the default dataset.
	postJSON(t, hs.URL+"/v1/datasets",
		registerRequest{Name: "ItalyPower", Generator: "ItalyPower"}, http.StatusConflict)
	// Unknown generator fails the build; with wait the error surfaces as 500.
	postJSON(t, hs.URL+"/v1/datasets",
		registerRequest{Name: "bogus", Generator: "NotADataset", Wait: true}, http.StatusInternalServerError)
	// ... and the dataset reports failed afterwards.
	info := getJSON(t, hs.URL+"/v1/datasets/bogus", http.StatusOK)
	if info["state"] != "failed" {
		t.Errorf("bogus dataset state = %v", info["state"])
	}
	// Queries against the failed dataset return 500.
	postJSON(t, hs.URL+"/v1/datasets/bogus/match", matchItem{Query: []float64{1}}, http.StatusInternalServerError)
}

// ---- validation drift --------------------------------------------------

func TestRequestValidation(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)

	assertErrorShape := func(t *testing.T, resp *http.Response, wantCode int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("code %d, want %d", resp.StatusCode, wantCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("error body is not JSON: %v", err)
		}
		if msg, ok := out["error"].(string); !ok || msg == "" {
			t.Fatalf(`error body missing "error": %v`, out)
		}
	}

	// Unknown fields are rejected on every JSON endpoint.
	match := hs.URL + "/v1/datasets/ItalyPower/match"
	resp, err := http.Post(match, "application/json",
		strings.NewReader(`{"query":[1,2],"bogus":true}`))
	if err != nil {
		t.Fatal(err)
	}
	assertErrorShape(t, resp, http.StatusBadRequest)
	resp, err = http.Post(hs.URL+"/v1/datasets", "application/json",
		strings.NewReader(`{"name":"x","generator":"ECG","surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	assertErrorShape(t, resp, http.StatusBadRequest)

	// Trailing garbage after the JSON object.
	resp, err = http.Post(match, "application/json",
		strings.NewReader(`{"query":[1,2]} extra`))
	if err != nil {
		t.Fatal(err)
	}
	assertErrorShape(t, resp, http.StatusBadRequest)

	// Truncated body.
	resp, err = http.Post(match, "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	assertErrorShape(t, resp, http.StatusBadRequest)

	// Oversized body → 413.
	srvSmall, hsSmall := testServer(t, func() Config {
		c := testConfig()
		c.MaxBody = 64
		return c
	}())
	_ = srvSmall
	big := make([]float64, 64)
	data, _ := json.Marshal(matchItem{Query: big})
	resp, err = http.Post(hsSmall.URL+"/v1/datasets/ItalyPower/match", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	assertErrorShape(t, resp, http.StatusRequestEntityTooLarge)

	// Bad mode / negative k.
	postJSON(t, match, matchItem{Query: q, Mode: "bogus"}, http.StatusBadRequest)
	postJSON(t, match, matchItem{Query: q, K: -1}, http.StatusBadRequest)
	// Empty query.
	postJSON(t, match, matchItem{}, http.StatusBadRequest)
	// Wrong method.
	resp, err = http.Get(match)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET …/match: code %d, want 405", resp.StatusCode)
	}
	// Bad purge value.
	doJSON(t, http.MethodDelete, hs.URL+"/v1/datasets/ItalyPower?purge=maybe", nil, http.StatusBadRequest)
	// Empty extend.
	postJSON(t, hs.URL+"/v1/datasets/ItalyPower/extend", extendRequest{}, http.StatusBadRequest)
}

// ---- cache + concurrency (acceptance criteria) -------------------------

func TestV1CacheHitCounters(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	for i := 0; i < 3; i++ {
		postJSON(t, hs.URL+"/v1/datasets/ItalyPower/match", matchItem{Query: q}, http.StatusOK)
	}
	stats := getJSON(t, hs.URL+"/v1/stats", http.StatusOK)
	cache := stats["hub"].(map[string]any)["cache"].(map[string]any)
	if hits := cache["hits"].(float64); hits < 2 {
		t.Errorf("hub cache hits = %v, want ≥ 2 (identical repeated /match must be cached)", hits)
	}
	ds := getJSON(t, hs.URL+"/v1/datasets/ItalyPower/stats", http.StatusOK)
	if hits := ds["cacheHits"].(float64); hits < 2 {
		t.Errorf("dataset cache hits = %v, want ≥ 2", hits)
	}
}

func TestV1ConcurrentMatchWhileExtend(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	client := &http.Client{}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qq := append([]float64(nil), q...)
				qq[0] += float64(i%5) * 0.01
				data, _ := json.Marshal(matchItem{Query: qq})
				resp, err := client.Post(hs.URL+"/v1/datasets/ItalyPower/match",
					"application/json", bytes.NewReader(data))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: code %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	newSeries := make([]seriesJSON, 1)
	for e := 0; e < 3; e++ {
		v := make([]float64, 24)
		for j := range v {
			v[j] = float64((e+2)*j%5) / 5
		}
		newSeries[0] = seriesJSON{Label: "new", Values: v}
		postJSON(t, hs.URL+"/v1/datasets/ItalyPower/extend", extendRequest{Series: newSeries}, http.StatusOK)
	}
	close(stop)
	wg.Wait()

	info, err := srv.DefaultInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 3 {
		t.Errorf("generation = %d, want 3 (one per extend)", info.Generation)
	}
}

func TestV1SnapshotDropReload(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.SnapshotDir = dir
	_, hs := testServer(t, cfg)

	out := postJSON(t, hs.URL+"/v1/datasets", registerRequest{
		Name: "snap", Generator: "ItalyPower", Scale: 0.15, ST: 0.25, Lengths: 5, Wait: true,
	}, http.StatusCreated)
	if out["fromSnapshot"] == true {
		t.Fatal("first build claims to come from a snapshot")
	}
	if _, err := os.Stat(filepath.Join(dir, "snap.onex")); err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}

	doJSON(t, http.MethodDelete, hs.URL+"/v1/datasets/snap", nil, http.StatusOK)
	out = postJSON(t, hs.URL+"/v1/datasets", registerRequest{
		Name: "snap", Generator: "ItalyPower", Scale: 0.15, ST: 0.25, Lengths: 5, Wait: true,
	}, http.StatusCreated)
	if out["fromSnapshot"] != true {
		t.Error("re-register after drop did not reload the snapshot")
	}

	// purge=true deletes the snapshot; the next build is from scratch.
	doJSON(t, http.MethodDelete, hs.URL+"/v1/datasets/snap?purge=true", nil, http.StatusOK)
	if _, err := os.Stat(filepath.Join(dir, "snap.onex")); !os.IsNotExist(err) {
		t.Errorf("snapshot survived purge: %v", err)
	}
}

func TestV1RegisterFromSnapshotWithAllowFS(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.SnapshotDir = dir
	cfg.AllowFS = true
	_, hs := testServer(t, cfg)

	// The default dataset was snapshotted at startup; re-register it under
	// a new name straight from that file.
	snap := filepath.Join(dir, "ItalyPower.onex")
	if _, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	}
	out := postJSON(t, hs.URL+"/v1/datasets", registerRequest{
		Name: "clone", Snapshot: snap, Wait: true,
	}, http.StatusCreated)
	if out["fromSnapshot"] != true || out["state"] != "ready" {
		t.Errorf("snapshot registration = %v", out)
	}
}

// ---- startup ----------------------------------------------------------

func TestNewServerErrors(t *testing.T) {
	bad := testConfig()
	bad.Generator = "NotADataset"
	if _, err := New(bad); err == nil {
		t.Error("unknown dataset: want error")
	}
	missing := testConfig()
	missing.DataPath = "/no/such/file.tsv"
	if _, err := New(missing); err == nil {
		t.Error("missing file: want error")
	}
	badST := testConfig()
	badST.ST = -1
	if _, err := New(badST); err == nil {
		t.Error("bad ST: want error")
	}
}

func TestDatasetNameFromPath(t *testing.T) {
	cases := map[string]string{
		"/data/ECG200.tsv":      "ECG200.tsv",
		"weird name!!.tsv":      "weird_name__.tsv",
		"/tmp/.hidden":          "d.hidden",
		"C:\\data\\f.tsv":       "f.tsv",
		strings.Repeat("x", 80): strings.Repeat("x", 64),
	}
	for in, want := range cases {
		if got := DatasetNameFromPath(in); got != want {
			t.Errorf("DatasetNameFromPath(%q) = %q, want %q", in, got, want)
		}
	}
}
