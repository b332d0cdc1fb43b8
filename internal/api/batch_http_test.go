package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// exactBatch is a match/batch body asking each query in exact mode.
func exactBatch(qs ...[]float64) batchRequest[matchItem] {
	var req batchRequest[matchItem]
	for _, q := range qs {
		req.Queries = append(req.Queries, matchItem{Query: q, Mode: "exact"})
	}
	return req
}

// postJSONRaw posts a body and returns only the status code, verifying the
// response is well-formed JSON (used from racing goroutines where any of
// several codes is acceptable).
func postJSONRaw(client *http.Client, url string, body any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, fmt.Errorf("status %d with malformed body: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, nil
}

func TestV1MatchBatch(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	// JSON cannot carry NaN, so the malformed entries a client can actually
	// send are empty and unindexable-length queries (NaN handling is covered
	// by FuzzBestMatchBatch at the API layer).
	bad := []float64{1, 2, 3}
	out := postJSON(t, hs.URL+"/v1/datasets/ItalyPower/match/batch",
		exactBatch(q, q, bad, []float64{}), http.StatusOK)
	if out["count"].(float64) != 4 {
		t.Fatalf("count = %v", out["count"])
	}
	if out["errors"].(float64) != 2 {
		t.Fatalf("errors = %v, want 2 (unindexed length + empty query)", out["errors"])
	}
	results := out["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("results len = %d", len(results))
	}
	if e := results[0].(map[string]any)["error"]; e != nil {
		t.Fatalf("result 0 unexpectedly errored: %v", e)
	}
	first := results[0].(map[string]any)["result"].(map[string]any)
	if first["length"].(float64) != float64(len(q)) {
		t.Errorf("result 0 length = %v, want %d", first["length"], len(q))
	}
	// The two results must be identical (same query) and the bad ones carry
	// per-entry errors without failing the request.
	second := results[1].(map[string]any)["result"].(map[string]any)
	if first["seriesId"] != second["seriesId"] || first["start"] != second["start"] ||
		first["distance"] != second["distance"] {
		t.Errorf("identical queries got different answers: %v vs %v", first, second)
	}
	for i := 2; i < 4; i++ {
		entry := results[i].(map[string]any)
		if entry["error"] == nil || entry["error"] == "" {
			t.Errorf("result %d: missing per-query error: %v", i, entry)
		}
	}
}

func TestV1MatchBatchValidation(t *testing.T) {
	_, hs := testServer(t, testConfig())
	url := hs.URL + "/v1/datasets/ItalyPower/match/batch"
	postJSON(t, url, exactBatch(), http.StatusBadRequest)
	postJSON(t, hs.URL+"/v1/datasets/nope/match/batch", exactBatch([]float64{1, 2}), http.StatusNotFound)
	postJSON(t, url, map[string]any{"queries": exactBatch([]float64{1, 2}).Queries, "bogus": 1}, http.StatusBadRequest)
	// The retired array-of-arrays shape is a decode error like any other.
	postJSON(t, url, map[string]any{"queries": [][]float64{{1, 2}}}, http.StatusBadRequest)
}

// TestV1MatchBatchRacingDrop drives the batch endpoint from several
// goroutines while the dataset is dropped and re-registered: every response
// must be a well-formed 200, 404 (dropped) or 409 (re-register in flight /
// not ready) — never a panic, hang or malformed body.
func TestV1MatchBatchRacingDrop(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	url := hs.URL + "/v1/datasets/ItalyPower/match/batch"

	var wg sync.WaitGroup
	stop := make(chan struct{})
	codes := make(chan int, 4096)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := postJSONRaw(client, url, exactBatch(q, q))
				if err != nil {
					t.Errorf("batch request failed: %v", err)
					return
				}
				switch resp {
				case http.StatusOK, http.StatusNotFound, http.StatusConflict,
					http.StatusInternalServerError, http.StatusServiceUnavailable:
				default:
					t.Errorf("unexpected status %d", resp)
				}
				select {
				case codes <- resp:
				default:
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		doJSON(t, http.MethodDelete, hs.URL+"/v1/datasets/ItalyPower", nil, http.StatusOK)
		postJSON(t, hs.URL+"/v1/datasets", registerRequest{
			Name: "ItalyPower", Generator: "ItalyPower", ST: 0.25, Lengths: 6,
			Scale: 0.2, Seed: 1, Wait: true,
		}, http.StatusCreated)
	}
	close(stop)
	wg.Wait()
	close(codes)
	saw := map[int]int{}
	for c := range codes {
		saw[c]++
	}
	if saw[http.StatusOK] == 0 {
		t.Errorf("no successful batch during the race (codes: %v)", saw)
	}
}
