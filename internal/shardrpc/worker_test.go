package shardrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
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

// badSpecs are shard specs no query could run against, each a mutation of
// testSpec. Before BuildLocalShard validated them, the window and length
// cases built and then panicked on every query (a 500 through the worker),
// and the id-order cases built silently.
var badSpecs = map[string]func(*query.ShardSpec){
	"length zero":     func(s *query.ShardSpec) { s.Lengths[0].Length = 0 },
	"length repeated": func(s *query.ShardSpec) { s.Lengths = append(s.Lengths, s.Lengths[0]) },
	"short rep":       func(s *query.ShardSpec) { g := &s.Lengths[0].Groups[0]; g.Rep = g.Rep[:3] },
	"NaN rep":         func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Rep[1] = math.NaN() },
	"Inf series":      func(s *query.ShardSpec) { s.Series[0].Values[2] = math.Inf(1) },
	"start past end":  func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[0].Start = 7 },
	"start negative":  func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[0].Start = -3 },
	"start overflows": func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[0].Start = math.MaxInt },
	"series repeated": func(s *query.ShardSpec) { s.Series = append(s.Series, s.Series[0]) },
	"ids repeated": func(s *query.ShardSpec) {
		s.Lengths[0].Groups = append(s.Lengths[0].Groups, s.Lengths[0].Groups[0])
	},
	"ids descend": func(s *query.ShardSpec) {
		g := s.Lengths[0].Groups[0]
		g.GlobalID = 2
		s.Lengths[0].Groups = []query.SpecGroup{g, s.Lengths[0].Groups[0]}
		s.Lengths[0].Groups[1].GlobalID = 1
	},
}

// TestWorkerRejectsUnqueryableSpec: each bad spec is refused when shipped —
// ErrBadSpec from BuildLocalShard, a 422 build_failed from the worker, no
// resident state, and the generation answers queries with the re-ship 404.
// Non-finite values cannot cross the JSON wire at all, so those cases stop
// at BuildLocalShard.
func TestWorkerRejectsUnqueryableSpec(t *testing.T) {
	for name, mutate := range badSpecs {
		t.Run(name, func(t *testing.T) {
			spec := testSpec("d", "g1")
			mutate(&spec)
			if _, err := query.BuildLocalShard(spec); !errors.Is(err, query.ErrBadSpec) {
				t.Fatalf("BuildLocalShard = %v, want ErrBadSpec", err)
			}
			if _, err := json.Marshal(spec); err != nil {
				return
			}
			w := NewWorker(testLogger())
			srv := httptest.NewServer(w.Handler())
			defer srv.Close()
			resp, raw := doJSON(t, http.MethodPut, shipURL(srv.URL, "d", "g1"), spec)
			if resp.StatusCode != http.StatusUnprocessableEntity || errCode(t, raw) != "build_failed" {
				t.Fatalf("ship = %d %s", resp.StatusCode, raw)
			}
			if got := w.ShardCount(); got != 0 {
				t.Fatalf("rejected spec left %d resident shards", got)
			}
			resp, raw = doJSON(t, http.MethodPost, shipURL(srv.URL, "d", "g1")+"/scan",
				query.ScanBestRequest{Length: 4, Query: []float64{1, 2, 3, 4}})
			if resp.StatusCode != http.StatusNotFound || errCode(t, raw) != "unknown_generation" {
				t.Fatalf("scan after rejected ship = %d %s", resp.StatusCode, raw)
			}
		})
	}
}

// FuzzWorkerShip throws arbitrary spec bytes at the ship route. The worker
// refuses a spec with a 4xx, or keeps it resident and answers scan,
// scanfixed, verifyk and range for each of its lengths with 200 or
// a typed 4xx — never a panic, which the route's recovery turns into a 500.
func FuzzWorkerShip(f *testing.F) {
	add := func(s query.ShardSpec) {
		body, err := json.Marshal(s)
		if err == nil {
			f.Add(body)
		}
	}
	add(testSpec("d", "g"))
	add(wideSpec("d", "g"))
	for _, mutate := range badSpecs {
		s := testSpec("d", "g")
		mutate(&s)
		add(s)
	}
	series := `"series":[{"id":0,"values":[0.1,0.3,0.2,0.5]}]`
	f.Add([]byte(`{"dataset":"d","generation":"g",` + series + `,"lengths":[{"length":2,"groups":[]}]}`))
	f.Add([]byte(`{"dataset":"d","generation":"g",` + series + `,"lengths":[{"length":2,"groups":[{"globalId":0,"owned":true,"rep":[0.1,0.3],"members":[]}]}]}`))
	f.Add([]byte(`{"dataset":"d","generation":"g",` + series + `,"lengths":[{"length":1099511627776,"groups":[]}]}`))
	f.Add([]byte(`{"dataset":"d","generation":"g",` + series + `,"lengths":[{"length":9223372036854775807,"groups":[{"globalId":0,"rep":[1],"members":[{"series":0,"start":1}]}]}]}`))
	f.Add([]byte(`{"dataset":"d","generation":"g","series":[{"id":0,"values":[NaN,1]}],"lengths":[]}`))
	f.Add([]byte(`{"dataset":"d","generation":"g","series":[{"id":0,"values":[1e999,-1e999]}],"lengths":[]}`))
	f.Add([]byte(`{"dataset":"d","generation":"g",` + series + `,"lengths":[{"length":2,"groups":[{"globalId":-4,"rep":[Infinity,0],"members":[{"series":0,"start":0}]}]}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		h := NewWorker(testLogger()).Handler()
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, "/worker/v1/shards/d/g/0"+path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
				t.Fatalf("%s %q = %d for spec %q: %s", method, path, rec.Code, body, rec.Body)
			}
			return rec
		}
		// Pin the spec's key to the route so every decodable spec reaches the
		// build; what fails to decode is shipped as is and must be a 4xx.
		var spec query.ShardSpec
		if err := json.Unmarshal(body, &spec); err == nil {
			spec.Dataset, spec.Generation, spec.Shard = "d", "g", 0
			if body, err = json.Marshal(spec); err != nil {
				t.Fatal(err)
			}
		}
		if do(http.MethodPut, "", body).Code != http.StatusOK {
			return
		}
		for i, sl := range spec.Lengths {
			if i == 4 {
				break
			}
			q := make([]float64, min(max(sl.Length, 1), 16))
			for j := range q {
				q[j] = float64(j%5) * 0.2
			}
			var cands []query.FixedHit
			for _, g := range sl.Groups {
				cands = append(cands, query.FixedHit{GroupID: g.GlobalID})
			}
			inf := math.Float64bits(math.Inf(1))
			for path, req := range map[string]any{
				"/scan":      query.ScanBestRequest{Length: sl.Length, Query: q, Workers: 2},
				"/scanfixed": query.ScanFixedRequest{Length: sl.Length, Query: q, CutoffBits: inf, Workers: 2},
				"/verifyk": query.VerifyKRequest{Length: sl.Length, Query: q, K: 3, CutoffBits: inf,
					RadiusRaw: 1, Workers: 2, Candidates: cands},
				"/range": query.RangeRequest{Length: sl.Length, Query: q, Radius: 0.5, Exact: true, Workers: 2},
			} {
				reqBody, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				do(http.MethodPost, path, reqBody)
			}
		}
	})
}
