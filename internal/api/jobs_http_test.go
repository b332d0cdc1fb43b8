package api

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"onex"
	"onex/internal/hub"
)

// waitJob polls GET /v1/jobs/{id} until the job reaches a terminal state.
func waitJob(t *testing.T, hsURL, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		out := getJSON(t, hsURL+"/v1/jobs/"+id, http.StatusOK)
		switch out["state"] {
		case "done", "failed", "canceled":
			return out
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state")
	return nil
}

func TestJobSingleMatchEquivalentToSync(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()

	sync := postJSON(t, base+"/match", matchItem{Query: q, Mode: "exact"}, http.StatusOK)

	job := postJSON(t, base+"/match/jobs", matchItem{Query: q, Mode: "exact"}, http.StatusAccepted)
	id, _ := job["id"].(string)
	if id == "" || job["state"] == "done" && job["result"] == nil {
		t.Fatalf("job submission response: %v", job)
	}
	if job["op"] != "match" || job["dataset"] != srv.DefaultName() {
		t.Errorf("job labels: %v", job)
	}
	done := waitJob(t, hs.URL, id)
	if done["state"] != "done" {
		t.Fatalf("job state = %v (%v)", done["state"], done["error"])
	}
	if done["progress"].(float64) != 1 {
		t.Errorf("done job progress = %v, want 1", done["progress"])
	}
	if !reflect.DeepEqual(done["result"], map[string]any(sync)) {
		t.Errorf("async result differs from sync:\nasync %v\nsync  %v", done["result"], sync)
	}
}

func TestJobBatchEquivalentToSyncBatch(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()

	body := map[string]any{"queries": []matchItem{
		{Query: q, Mode: "exact"},
		{Query: q, Mode: "any", K: 3},
		// Unindexed length under exact mode: per-item error (under "any" it
		// would legitimately match across other indexed lengths).
		{Query: []float64{1, 2, 3}, Mode: "exact"},
	}}
	sync := postJSON(t, base+"/match/batch", body, http.StatusOK)

	job := postJSON(t, base+"/match/jobs", body, http.StatusAccepted)
	done := waitJob(t, hs.URL, job["id"].(string))
	if done["state"] != "done" {
		t.Fatalf("job state = %v (%v)", done["state"], done["error"])
	}
	if !reflect.DeepEqual(done["result"], map[string]any(sync)) {
		t.Errorf("async batch differs from sync batch:\nasync %v\nsync  %v", done["result"], sync)
	}
	res := done["result"].(map[string]any)
	if res["errors"].(float64) != 1 {
		t.Errorf("batch errors = %v, want 1", res["errors"])
	}
	items := res["results"].([]any)
	bad := items[2].(map[string]any)
	if bad["code"] != CodeInvalidArgument || bad["error"] == "" {
		t.Errorf("per-item error envelope = %v", bad)
	}
}

func TestJobRangeAndSeasonalFamilies(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()

	syncRange := postJSON(t, base+"/range",
		rangeItem{Query: q, Length: len(q), Radius: 0.5, Exact: true}, http.StatusOK)
	job := postJSON(t, base+"/range/jobs",
		rangeItem{Query: q, Length: len(q), Radius: 0.5, Exact: true}, http.StatusAccepted)
	done := waitJob(t, hs.URL, job["id"].(string))
	if done["state"] != "done" || !reflect.DeepEqual(done["result"], map[string]any(syncRange)) {
		t.Errorf("range job: state %v, result %v, want %v", done["state"], done["result"], syncRange)
	}

	syncSeasonal := getJSON(t, fmt.Sprintf("%s/seasonal?length=%d", base, len(q)), http.StatusOK)
	job = postJSON(t, base+"/seasonal/jobs", map[string]any{"length": len(q)}, http.StatusAccepted)
	done = waitJob(t, hs.URL, job["id"].(string))
	if done["state"] != "done" || !reflect.DeepEqual(done["result"], map[string]any(syncSeasonal)) {
		t.Errorf("seasonal job: state %v, result %v, want %v", done["state"], done["result"], syncSeasonal)
	}

	// Batch forms of both families.
	rb := postJSON(t, base+"/range/jobs", map[string]any{"queries": []rangeItem{
		{Query: q, Length: len(q), Radius: 0.4},
		{Query: q, Length: -1, Radius: 0.4}, // fails alone
	}}, http.StatusAccepted)
	done = waitJob(t, hs.URL, rb["id"].(string))
	if done["state"] != "done" {
		t.Fatalf("range batch job: %v", done)
	}
	if errs := done["result"].(map[string]any)["errors"].(float64); errs != 1 {
		t.Errorf("range batch errors = %v, want 1", errs)
	}

	sb := postJSON(t, base+"/seasonal/jobs", map[string]any{"queries": []map[string]any{
		{"length": len(q)},
		{"series": 0, "length": len(q)},
	}}, http.StatusAccepted)
	done = waitJob(t, hs.URL, sb["id"].(string))
	if done["state"] != "done" {
		t.Fatalf("seasonal batch job: %v", done)
	}
	if errs := done["result"].(map[string]any)["errors"].(float64); errs != 0 {
		t.Errorf("seasonal batch errors = %v, want 0", errs)
	}
}

func TestJobValidationAndNotFound(t *testing.T) {
	srv, hs := testServer(t, testConfig())
	q := queryFor(t, srv)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()

	// Validation happens before submission: a bad request never creates a
	// job.
	out := postJSON(t, base+"/match/jobs", matchItem{Query: q, Mode: "bogus"}, http.StatusBadRequest)
	if out["code"] != CodeInvalidArgument {
		t.Errorf("bad mode code = %v", out["code"])
	}
	postJSON(t, base+"/match/jobs", map[string]any{"queries": []matchItem{}}, http.StatusBadRequest)
	postJSON(t, hs.URL+"/v1/datasets/nosuch/match/jobs", matchItem{Query: q}, http.StatusNotFound)
	// Batch items are query objects; bare arrays do not decode.
	postJSON(t, base+"/match/jobs", map[string]any{"queries": [][]float64{q}}, http.StatusBadRequest)

	list := getJSON(t, hs.URL+"/v1/jobs", http.StatusOK)
	if list["count"].(float64) != 0 {
		t.Errorf("rejected submissions created jobs: %v", list)
	}

	out = getJSON(t, hs.URL+"/v1/jobs/j-nope", http.StatusNotFound)
	if out["code"] != CodeNotFound {
		t.Errorf("unknown job code = %v", out["code"])
	}
	doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/j-nope", nil, http.StatusNotFound)

	// A failing query surfaces as a failed job with the uniform error
	// fields.
	job := postJSON(t, base+"/range/jobs", rangeItem{Query: q, Length: -5, Radius: 0.1}, http.StatusAccepted)
	done := waitJob(t, hs.URL, job["id"].(string))
	if done["state"] != "failed" || done["error"] == "" || done["code"] != CodeInvalidArgument {
		t.Errorf("failed job envelope = %v", done)
	}
}

// TestJobCancelOverHTTP pins DELETE semantics: with one worker busy on a
// large batch, a queued job cancels deterministically; canceling a
// terminal job is a no-op that reports the terminal state.
func TestJobCancelOverHTTP(t *testing.T) {
	cfg := testConfig()
	cfg.JobWorkers = 1
	cfg.CacheEntries = -1 // keep the busy job actually computing
	srv, hs := testServer(t, cfg)
	q := queryFor(t, srv)
	base := hs.URL + "/v1/datasets/" + srv.DefaultName()

	// Occupy the single worker with a hefty exact-range batch: a huge
	// radius admits every window, so each item pays exact DTW on the full
	// membership and the batch outlives the next two HTTP round-trips by a
	// wide margin (~140ms of compute vs single-digit-ms round-trips).
	items := make([]rangeItem, 1024)
	for i := range items {
		qq := append([]float64(nil), q...)
		qq[0] += float64(i) * 1e-6
		items[i] = rangeItem{Query: qq, Length: len(q), Radius: 2.0, Exact: true}
	}
	busy := postJSON(t, base+"/range/jobs", map[string]any{"queries": items}, http.StatusAccepted)

	// The second job sits queued behind it; DELETE must cancel it before it
	// ever runs.
	victim := postJSON(t, base+"/match/jobs", matchItem{Query: q}, http.StatusAccepted)
	out := doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/"+victim["id"].(string), nil, http.StatusOK)
	if out["state"] != "canceled" || out["code"] != CodeCanceled {
		t.Errorf("canceled job envelope = %v", out)
	}

	// Cancel the running batch too: it must land between chunks.
	doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/"+busy["id"].(string), nil, http.StatusOK)
	done := waitJob(t, hs.URL, busy["id"].(string))
	if done["state"] != "canceled" && done["state"] != "done" {
		t.Fatalf("busy job state = %v after cancel", done["state"])
	}

	// A running single-form job stops computing when canceled, freeing the
	// one worker for the job queued behind it. "heavy" makes one exact range
	// query long (every window admitted, each paying a 96×96 DTW); what a
	// whole run of it costs is read off the dataset's work tally.
	series := make([]onex.Series, 48)
	for i := range series {
		v := make([]float64, 400)
		for j := range v {
			v[j] = math.Sin(float64(j)/9+float64(i)) + 0.3*math.Sin(float64(j*(i+2))/5)
		}
		series[i] = onex.Series{Values: v}
	}
	heavy, err := srv.Hub().Register("heavy", hub.Spec{Series: series,
		Opts: onex.Options{ST: 0.3, Lengths: []int{96}, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := heavy.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	long := rangeItem{Query: make([]float64, 96), Length: 96, Radius: 2.0, Exact: true}
	whole := postJSON(t, hs.URL+"/v1/datasets/heavy/range/jobs", long, http.StatusAccepted)
	if out := waitJob(t, hs.URL, whole["id"].(string)); out["state"] != "done" {
		t.Fatalf("uncanceled heavy job: %v", out)
	}
	wholeDTW := heavy.Info().Query.DTWComputed
	if wholeDTW < 10_000 {
		t.Fatalf("a whole heavy query ran only %d DTWs; the fixture is too light to cancel mid-query", wholeDTW)
	}
	for round := 0; round < 3; round++ {
		busy := postJSON(t, hs.URL+"/v1/datasets/heavy/range/jobs", long, http.StatusAccepted)
		behind := postJSON(t, base+"/match/jobs", matchItem{Query: q}, http.StatusAccepted)
		for state := busy["state"]; state != "running"; {
			if state != "queued" {
				t.Fatalf("round %d: heavy job is %v before it could be canceled", round, state)
			}
			state = getJSON(t, hs.URL+"/v1/jobs/"+busy["id"].(string), http.StatusOK)["state"]
		}
		out := doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/"+busy["id"].(string), nil, http.StatusOK)
		if out["state"] != "canceled" {
			t.Fatalf("round %d: canceled running job is %v", round, out["state"])
		}
		if out := waitJob(t, hs.URL, behind["id"].(string)); out["state"] != "done" {
			t.Fatalf("round %d: job behind the canceled one: %v", round, out)
		}
		// The worker took the next job, so the canceled body has returned —
		// and it did so without running its query out: had it, the tally
		// would have grown by a whole query's DTWs.
		if grown := heavy.Info().Query.DTWComputed - wholeDTW; grown != 0 {
			t.Fatalf("round %d: the canceled job kept computing: %d more DTWs (a whole query is %d)", round, grown, wholeDTW)
		}
	}
	// Every job is terminal: no job context (or its cancel watcher) lives on.
	stacks := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		n := bytes.Count(stacks[:runtime.Stack(stacks, true)], []byte("api.(*Server).submitJob"))
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines of finished jobs are still alive", n)
		}
	}

	// Canceling a terminal job is a no-op.
	fin := postJSON(t, base+"/match/jobs", matchItem{Query: q}, http.StatusAccepted)
	waitJob(t, hs.URL, fin["id"].(string))
	out = doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/"+fin["id"].(string), nil, http.StatusOK)
	if out["state"] != "done" {
		t.Errorf("cancel of done job flipped state to %v", out["state"])
	}

	stats := getJSON(t, hs.URL+"/v1/stats", http.StatusOK)
	jm := stats["jobs"].(map[string]any)
	if jm["submitted"].(float64) < 10 || jm["canceled"].(float64) < 4 {
		t.Errorf("job counters missing from /v1/stats: %v", jm)
	}
}

// TestJobRacingDropAndShutdown drives jobs against a dataset being dropped
// and a server shutting down: no panic, no hang, every job lands in a
// coherent terminal state.
func TestJobRacingDropAndShutdown(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = -1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No t.Cleanup(srv.Close): closing is the point of the test.
	hs := newTestHTTP(t, srv)
	info, err := srv.DefaultInfo()
	if err != nil {
		t.Fatal(err)
	}
	l := info.Lengths[len(info.Lengths)/2]
	q := make([]float64, l)
	for i := range q {
		q[i] = 0.5
	}
	base := hs + "/v1/datasets/" + srv.DefaultName()

	items := make([]rangeItem, 64)
	for i := range items {
		qq := append([]float64(nil), q...)
		qq[0] += float64(i) * 1e-6
		items[i] = rangeItem{Query: qq, Length: l, Radius: 0.6, Exact: true}
	}
	job := postJSON(t, base+"/range/jobs", map[string]any{"queries": items}, http.StatusAccepted)

	// Drop the dataset out from under the running job: items answered after
	// the drop carry not_found errors, but the job itself stays coherent.
	doJSON(t, http.MethodDelete, base, nil, http.StatusOK)
	done := waitJob(t, hs, job["id"].(string))
	switch done["state"] {
	case "done", "failed", "canceled":
	default:
		t.Fatalf("job state after drop = %v", done["state"])
	}

	// Now a job in flight when the server closes must come out canceled.
	out := postJSON(t, hs+"/v1/datasets", registerRequest{
		Name: "again", Generator: "ItalyPower", Scale: 0.2, ST: 0.25, Lengths: 6, Seed: 1, Wait: true,
	}, http.StatusCreated)
	if out["state"] != "ready" {
		t.Fatalf("re-register state = %v", out["state"])
	}
	job = postJSON(t, hs+"/v1/datasets/again/range/jobs",
		map[string]any{"queries": items}, http.StatusAccepted)
	id := job["id"].(string)
	srv.Close()
	j, ok := srv.jobs.Get(id)
	if !ok {
		t.Fatal("job vanished on close")
	}
	deadline := time.Now().Add(10 * time.Second)
	for !j.State().Terminal() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	snap := j.Snapshot()
	if snap.State != "canceled" && snap.State != "done" {
		t.Errorf("in-flight job after Close: state %v", snap.State)
	}
}
