package shardrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"onex/internal/core"
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
	return doBody(t, method, url, "application/json", body)
}

// specBody encodes spec as the ship route's stream.
func specBody(tb testing.TB, spec query.ShardSpec) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := core.EncodeShardSpec(&buf, spec); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// doShip PUTs spec's stream to url.
func doShip(t *testing.T, url string, spec query.ShardSpec) (*http.Response, []byte) {
	t.Helper()
	return doBody(t, http.MethodPut, url, "application/octet-stream", specBody(t, spec))
}

func doBody(t *testing.T, method, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
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
// makes ship retries and the re-ship race safe. The worker answers it from
// the stream's key alone: a re-PUT of only the stream's first half, which
// no decoder accepts, is still the cached answer.
func TestWorkerShipIdempotent(t *testing.T) {
	w := NewWorker(testLogger())
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	body := specBody(t, testSpec("d", "g1"))
	url := shipURL(srv.URL, "d", "g1")

	var stats [3]query.ShardStats
	for i, b := range [][]byte{body, body, body[:len(body)/2]} {
		resp, raw := doBody(t, http.MethodPut, url, "application/octet-stream", b)
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
	if stats[0] != stats[1] || stats[0] != stats[2] {
		t.Fatalf("idempotent ship changed stats: %+v vs %+v vs %+v", stats[0], stats[1], stats[2])
	}
	if got := w.ShardCount(); got != 1 {
		t.Fatalf("ShardCount = %d after duplicate ship, want 1", got)
	}
	if ships := w.ships.Snapshot(); ships["built"] != 1 || ships["cached"] != 2 {
		t.Fatalf("ship outcomes = %v, want 1 built and 2 cached", ships)
	}
	// A key the worker does not hold is decoded in full, so the same
	// half stream under another generation is refused.
	half := specBody(t, testSpec("d", "g2"))
	resp, raw := doBody(t, http.MethodPut, shipURL(srv.URL, "d", "g2"), "application/octet-stream", half[:len(half)/2])
	if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
		t.Fatalf("truncated ship of an unknown key = %d %s", resp.StatusCode, raw)
	}
}

// TestSpecStreamRoundTrip: the handcrafted specs decode from their stream
// deep-equal and re-encode to the same bytes.
func TestSpecStreamRoundTrip(t *testing.T) {
	for _, spec := range []query.ShardSpec{testSpec("d", "g"), wideSpec("d", "g")} {
		stream := specBody(t, spec)
		got, err := core.DecodeShardSpec(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, spec) || !bytes.Equal(specBody(t, got), stream) {
			t.Fatalf("spec of %d series does not round-trip", len(spec.Series))
		}
	}
}

// TestWorkerUnknownGeneration: queries against state the worker does not
// hold answer 404/unknown_generation — the client's re-ship signal.
func TestWorkerUnknownGeneration(t *testing.T) {
	srv := httptest.NewServer(NewWorker(testLogger()).Handler())
	defer srv.Close()
	resp, raw := doJSON(t, http.MethodPost, shipURL(srv.URL, "d", "nope")+"/scan",
		query.ScanRequest{Length: 4, Query: []float64{1, 2, 3, 4}, K: 1})
	if resp.StatusCode != http.StatusNotFound || errCode(t, raw) != "unknown_generation" {
		t.Fatalf("scan of unshipped generation = %d %s", resp.StatusCode, raw)
	}
}

// TestWorkerBadSpec: a stream that does not decode, or whose key disagrees
// with the route, is rejected outright (400); a spec that fails to build
// answers 422 and is forgotten, so the same key stays retryable with a good
// spec.
func TestWorkerBadSpec(t *testing.T) {
	w := NewWorker(testLogger())
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	resp, raw := doShip(t, shipURL(srv.URL, "d", "g1"), testSpec("other", "g1"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched spec key = %d %s", resp.StatusCode, raw)
	}
	body := specBody(t, testSpec("d", "g1"))
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)-1] ^= 1
	for name, b := range map[string][]byte{
		"JSON":        []byte(`{"dataset":"d","generation":"g1","shard":0}`),
		"flipped CRC": corrupt,
		"trailing":    append(append([]byte(nil), body...), 0),
	} {
		resp, raw := doBody(t, http.MethodPut, shipURL(srv.URL, "d", "g1"), "application/octet-stream", b)
		if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
			t.Fatalf("%s = %d %s", name, resp.StatusCode, raw)
		}
	}

	invalid := testSpec("d", "g1")
	invalid.Series = nil // BuildLocalShard rejects empty shards
	resp, raw = doShip(t, shipURL(srv.URL, "d", "g1"), invalid)
	if resp.StatusCode != http.StatusUnprocessableEntity || errCode(t, raw) != "build_failed" {
		t.Fatalf("invalid spec = %d %s", resp.StatusCode, raw)
	}
	if got := w.ShardCount(); got != 0 {
		t.Fatalf("failed build left %d resident shards", got)
	}

	resp, raw = doShip(t, shipURL(srv.URL, "d", "g1"), testSpec("d", "g1"))
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
		resp, raw := doShip(t, shipURL(srv.URL, "d", gen), testSpec("d", gen))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ship %s = %d %s", gen, resp.StatusCode, raw)
		}
	}
	scanReq := query.ScanRequest{Length: 4, Query: []float64{1, 2, 3, 4}, K: 1}
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
			resp, raw := doShip(t, shipURL(srv.URL, "d", "g1"), testSpec("d", "g1"))
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
	if _, err := c.Scan(ctx, query.ScanRequest{
		Length: 4, Query: []float64{1, 2, 3, 4}, K: 1,
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
// testSpec, with the status shipping it answers. Before BuildLocalShard
// validated them, the window and length cases built and then panicked on
// every query (a 500 through the worker), and the id-order cases built
// silently. The spec stream carries any float's bits, so BuildLocalShard
// alone refuses the non-finite and out-of-order values (422); a value no
// u32 field of the stream holds is refused by core.EncodeShardSpec, so no
// client ships it (status 0).
var badSpecs = map[string]struct {
	mutate func(*query.ShardSpec)
	status int
}{
	"length zero":     {func(s *query.ShardSpec) { s.Lengths[0].Length = 0 }, 422},
	"length repeated": {func(s *query.ShardSpec) { s.Lengths = append(s.Lengths, s.Lengths[0]) }, 422},
	"short rep":       {func(s *query.ShardSpec) { g := &s.Lengths[0].Groups[0]; g.Rep = g.Rep[:3] }, 422},
	"NaN rep":         {func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Rep[1] = math.NaN() }, 422},
	"Inf series":      {func(s *query.ShardSpec) { s.Series[0].Values[2] = math.Inf(1) }, 422},
	"start past end":  {func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[0].Start = 7 }, 422},
	"start negative":  {func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[0].Start = -3 }, 0},
	"start overflows": {func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[0].Start = math.MaxInt }, 0},
	"series repeated": {func(s *query.ShardSpec) { s.Series = append(s.Series, s.Series[0]) }, 422},
	"ids repeated": {func(s *query.ShardSpec) {
		s.Lengths[0].Groups = append(s.Lengths[0].Groups, s.Lengths[0].Groups[0])
	}, 422},
	"ids descend": {func(s *query.ShardSpec) {
		g := s.Lengths[0].Groups[0]
		g.GlobalID = 2
		s.Lengths[0].Groups = []query.SpecGroup{g, s.Lengths[0].Groups[0]}
		s.Lengths[0].Groups[1].GlobalID = 1
	}, 422},
	"NaN ST":            {func(s *query.ShardSpec) { s.ST = math.NaN() }, 422},
	"zero ST":           {func(s *query.ShardSpec) { s.ST = 0 }, 422},
	"NaN distance":      {func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[2].EDToRep = math.NaN() }, 422},
	"Inf distance":      {func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[6].EDToRep = math.Inf(1) }, 422},
	"-Inf distance":     {func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[0].EDToRep = math.Inf(-1) }, 422},
	"negative distance": {func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[0].EDToRep = -0.01 }, 422},
	"distances descend": {func(s *query.ShardSpec) { s.Lengths[0].Groups[0].Members[1].EDToRep = 0.5 }, 422},
}

// TestWorkerRejectsUnqueryableSpec: each bad spec is refused —
// ErrBadSpec from BuildLocalShard, and when shipped the status badSpecs
// states, no resident state, and a generation that answers queries with
// the re-ship 404.
func TestWorkerRejectsUnqueryableSpec(t *testing.T) {
	for name, bad := range badSpecs {
		t.Run(name, func(t *testing.T) {
			spec := testSpec("d", "g1")
			bad.mutate(&spec)
			if _, err := query.BuildLocalShard(spec); !errors.Is(err, query.ErrBadSpec) {
				t.Fatalf("BuildLocalShard = %v, want ErrBadSpec", err)
			}
			if err := core.EncodeShardSpec(io.Discard, spec); (err == nil) != (bad.status != 0) {
				t.Fatalf("EncodeShardSpec = %v, want an error only for status 0", err)
			}
			if bad.status == 0 {
				return
			}
			w := NewWorker(testLogger())
			srv := httptest.NewServer(w.Handler())
			defer srv.Close()
			resp, raw := doShip(t, shipURL(srv.URL, "d", "g1"), spec)
			if resp.StatusCode != bad.status || errCode(t, raw) != "build_failed" {
				t.Fatalf("ship = %d %s, want %d build_failed", resp.StatusCode, raw, bad.status)
			}
			if got := w.ShardCount(); got != 0 {
				t.Fatalf("rejected spec left %d resident shards", got)
			}
			resp, raw = doJSON(t, http.MethodPost, shipURL(srv.URL, "d", "g1")+"/scan",
				query.ScanRequest{Length: 4, Query: []float64{1, 2, 3, 4}, K: 1})
			if resp.StatusCode != http.StatusNotFound || errCode(t, raw) != "unknown_generation" {
				t.Fatalf("scan after rejected ship = %d %s", resp.StatusCode, raw)
			}
		})
	}
}

// FuzzWorkerShip throws arbitrary spec streams at the ship route. The
// worker refuses a stream with a 4xx, or keeps its spec resident and answers
// scan (k = 1 and k = 0), verifyk and range for each of its lengths with 200 or a
// typed 4xx — never a panic, which the route's recovery turns into a 500.
// Each input is shipped as is, then, when it decodes under a recomputed
// checksum, once more with its key pinned to the route, so that mutations
// reach the build and the queries behind the checksum.
func FuzzWorkerShip(f *testing.F) {
	tiny := specBody(f, testSpec("d", "g"))
	f.Add(tiny)
	f.Add(specBody(f, wideSpec("d", "g")))
	for _, bad := range badSpecs {
		s := testSpec("d", "g")
		bad.mutate(&s)
		var buf bytes.Buffer
		if core.EncodeShardSpec(&buf, s) == nil {
			f.Add(buf.Bytes())
		}
	}
	// A spec over two encoder blocks, cut at the block boundary and a byte
	// either side of it.
	long := testSpec("d", "g")
	long.Series[0].Values = make([]float64, 1<<13)
	big := specBody(f, long)
	for _, cut := range []int{1<<16 - 1, 1 << 16, 1<<16 + 1} {
		f.Add(big[:cut])
	}
	flipped := append([]byte(nil), tiny...)
	flipped[len(flipped)-2] ^= 0x80
	f.Add(flipped)
	// The series count (after the magic, the version and the key of
	// dataset "d" and generation "g") claiming 2³²−1 series.
	const seriesCount = 8 + 4 + (4 + 1) + (4 + 1) + 4 + 4 + 8
	hostile := append([]byte(nil), tiny...)
	binary.LittleEndian.PutUint32(hostile[seriesCount:], math.MaxUint32)
	f.Add(hostile)
	f.Add([]byte(`{"dataset":"d","generation":"g","series":[],"lengths":[]}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		do := func(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, "/worker/v1/shards/d/g/0"+path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
				t.Fatalf("%s %q = %d for spec %q: %s", method, path, rec.Code, body, rec.Body)
			}
			return rec
		}
		do(NewWorker(testLogger()).Handler(), http.MethodPut, "", body)
		resealed := append([]byte(nil), body...)
		if n := len(resealed) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(resealed[n:], crc32.ChecksumIEEE(resealed[:n]))
		}
		spec, err := core.DecodeShardSpec(bytes.NewReader(resealed))
		if err != nil {
			return
		}
		spec.Dataset, spec.Generation, spec.Shard = "d", "g", 0
		var buf bytes.Buffer
		if err := core.EncodeShardSpec(&buf, spec); err != nil {
			t.Fatal(err)
		}
		h := NewWorker(testLogger()).Handler()
		if do(h, http.MethodPut, "", buf.Bytes()).Code != http.StatusOK {
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
			var cands []query.ScanHit
			for _, g := range sl.Groups {
				cands = append(cands, query.ScanHit{GroupID: g.GlobalID})
			}
			inf := math.Float64bits(math.Inf(1))
			for _, call := range []struct {
				path string
				req  any
			}{
				{"/scan", query.ScanRequest{Length: sl.Length, Query: q, K: 1, CutoffBits: inf, Workers: 2}},
				{"/scan", query.ScanRequest{Length: sl.Length, Query: q, CutoffBits: inf, Workers: 2}},
				{"/verifyk", query.VerifyKRequest{Length: sl.Length, Query: q, K: 3, CutoffBits: inf,
					RadiusRaw: 1, Workers: 2, Candidates: cands}},
				{"/range", query.RangeRequest{Length: sl.Length, Query: q, Radius: 0.5, Exact: true, Workers: 2}},
			} {
				reqBody, err := json.Marshal(call.req)
				if err != nil {
					t.Fatal(err)
				}
				do(h, http.MethodPost, call.path, reqBody)
			}
		}
	})
}
