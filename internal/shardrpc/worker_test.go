package shardrpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"onex/internal/obs"
	"onex/internal/query"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testSpec handcrafts a minimal valid shard spec: one series, one indexed
// length, one owned group whose members are the series' windows.
func testSpec(dataset, gen string) query.ShardSpec {
	values := []float64{0.1, 0.3, 0.2, 0.5, 0.4, 0.6, 0.5, 0.8, 0.7, 0.9}
	const length = 4
	rep := append([]float64(nil), values[:length]...)
	var members []query.SpecMember
	for start := 0; start+length <= len(values); start++ {
		members = append(members, query.SpecMember{
			Series: 0, Start: start, EDToRep: float64(start) * 0.01,
		})
	}
	return query.ShardSpec{
		Dataset:    dataset,
		Generation: gen,
		Shard:      0,
		Shards:     1,
		ST:         0.3,
		Series:     []query.SpecSeries{{ID: 0, Label: "a", Values: values}},
		Lengths: []query.SpecLength{{
			Length: length,
			Groups: []query.SpecGroup{{GlobalID: 0, Owned: true, Rep: rep, Members: members}},
		}},
	}
}

func shipURL(base, dataset, gen string) string {
	return fmt.Sprintf("%s/worker/v1/shards/%s/%s/0", base, dataset, gen)
}

func doJSON(t *testing.T, method, url string, in any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func errCode(t *testing.T, raw []byte) string {
	t.Helper()
	var we struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(raw, &we); err != nil {
		t.Fatalf("error body is not the uniform envelope: %s", raw)
	}
	return we.Code
}

func TestWorkerHealthz(t *testing.T) {
	srv := httptest.NewServer(NewWorker(testLogger()).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/worker/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestWorkerShipIdempotent: re-PUTting the same (dataset, generation,
// shard) is a cheap cache hit answering the same stats — the property that
// makes ship retries and the re-ship race safe.
func TestWorkerShipIdempotent(t *testing.T) {
	w := NewWorker(testLogger())
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	spec := testSpec("d", "g1")
	url := shipURL(srv.URL, "d", "g1")

	var stats [2]query.ShardStats
	for i := range stats {
		resp, raw := doJSON(t, http.MethodPut, url, spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ship %d = %d: %s", i, resp.StatusCode, raw)
		}
		var out struct {
			Stats query.ShardStats `json:"stats"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		stats[i] = out.Stats
	}
	if stats[0] != stats[1] {
		t.Fatalf("idempotent ship changed stats: %+v vs %+v", stats[0], stats[1])
	}
	if got := w.ShardCount(); got != 1 {
		t.Fatalf("ShardCount = %d after duplicate ship, want 1", got)
	}
}

// TestWorkerUnknownGeneration: queries against state the worker does not
// hold answer 404/unknown_generation — the client's re-ship signal.
func TestWorkerUnknownGeneration(t *testing.T) {
	srv := httptest.NewServer(NewWorker(testLogger()).Handler())
	defer srv.Close()
	resp, raw := doJSON(t, http.MethodPost, shipURL(srv.URL, "d", "nope")+"/scan",
		query.ScanBestRequest{Length: 4, Query: []float64{1, 2, 3, 4}})
	if resp.StatusCode != http.StatusNotFound || errCode(t, raw) != "unknown_generation" {
		t.Fatalf("scan of unshipped generation = %d %s", resp.StatusCode, raw)
	}
}

// TestWorkerBadSpec: a spec whose key disagrees with the route is rejected
// outright; a spec that fails to build answers 422 and is forgotten, so the
// same key stays retryable with a good spec.
func TestWorkerBadSpec(t *testing.T) {
	w := NewWorker(testLogger())
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	mismatched := testSpec("other", "g1")
	resp, raw := doJSON(t, http.MethodPut, shipURL(srv.URL, "d", "g1"), mismatched)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched spec key = %d %s", resp.StatusCode, raw)
	}

	invalid := testSpec("d", "g1")
	invalid.Series = nil // BuildLocalShard rejects empty shards
	resp, raw = doJSON(t, http.MethodPut, shipURL(srv.URL, "d", "g1"), invalid)
	if resp.StatusCode != http.StatusUnprocessableEntity || errCode(t, raw) != "build_failed" {
		t.Fatalf("invalid spec = %d %s", resp.StatusCode, raw)
	}
	if got := w.ShardCount(); got != 0 {
		t.Fatalf("failed build left %d resident shards", got)
	}

	resp, raw = doJSON(t, http.MethodPut, shipURL(srv.URL, "d", "g1"), testSpec("d", "g1"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after failed build = %d %s", resp.StatusCode, raw)
	}
}

// TestWorkerGenerationRetention: the worker retains only the newest
// generations per (dataset, shard) slot; evicted generations answer
// unknown_generation so clients re-ship.
func TestWorkerGenerationRetention(t *testing.T) {
	w := NewWorker(testLogger())
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	for _, gen := range []string{"g1", "g2", "g3"} {
		resp, raw := doJSON(t, http.MethodPut, shipURL(srv.URL, "d", gen), testSpec("d", gen))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ship %s = %d %s", gen, resp.StatusCode, raw)
		}
	}
	scanReq := query.ScanBestRequest{Length: 4, Query: []float64{1, 2, 3, 4}}
	resp, raw := doJSON(t, http.MethodPost, shipURL(srv.URL, "d", "g1")+"/scan", scanReq)
	if resp.StatusCode != http.StatusNotFound || errCode(t, raw) != "unknown_generation" {
		t.Fatalf("evicted generation g1 = %d %s", resp.StatusCode, raw)
	}
	for _, gen := range []string{"g2", "g3"} {
		resp, _ := doJSON(t, http.MethodPost, shipURL(srv.URL, "d", gen)+"/scan", scanReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retained generation %s = %d", gen, resp.StatusCode)
		}
	}
	if got := w.ShardCount(); got != 2 {
		t.Fatalf("ShardCount = %d after retention eviction, want 2", got)
	}
}

// TestWorkerConcurrentShip: concurrent PUTs of the same key build once and
// everyone gets the same answer (singleflight). Meaningful under -race.
func TestWorkerConcurrentShip(t *testing.T) {
	w := NewWorker(testLogger())
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := doJSON(t, http.MethodPut, shipURL(srv.URL, "d", "g1"), testSpec("d", "g1"))
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("concurrent ship = %d %s", resp.StatusCode, raw)
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := w.ShardCount(); got != 1 {
		t.Fatalf("ShardCount = %d after concurrent ships, want 1", got)
	}
}

// TestClientRequestIDPropagation: the client stamps outbound calls with the
// context's request id and the worker echoes it back.
func TestClientRequestIDPropagation(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	worker := NewWorker(testLogger()).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Header.Get("X-Request-Id")]++
		mu.Unlock()
		worker.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	c, err := NewClient(srv.URL, testSpec("d", "g1"), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := obs.ContextWithRequestID(t.Context(), "req-test-42")
	if _, err := c.ScanBest(ctx, query.ScanBestRequest{
		Length: 4, Query: []float64{1, 2, 3, 4},
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen["req-test-42"] == 0 {
		t.Fatalf("worker never saw the request id: %v", seen)
	}
	if c.Generation() != "g1" {
		t.Fatalf("Generation = %q", c.Generation())
	}
	if st := c.Stats(); st.Series != 1 || st.Subsequences == 0 {
		t.Fatalf("cached stats look wrong: %+v", st)
	}
	info := c.Info()
	if info.Shard != 0 || len(info.Series) != 1 || len(info.Owned[4]) != 1 {
		t.Fatalf("client info diverged from spec: %+v", info)
	}
}
