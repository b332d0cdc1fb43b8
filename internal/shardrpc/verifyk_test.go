package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"onex/internal/dist"
	"onex/internal/obs"
	"onex/internal/query"
)

const wideLength = 6

// wideSpec handcrafts a shard with enough structure for the k-NN phase: two
// series, one indexed length, five groups (global ids 0, 2, 4, 6, 8 — the
// odd ids live on some other shard) of a few dozen members each, members in
// ED order to their group's representative.
func wideSpec(dataset, gen string) query.ShardSpec {
	r := rand.New(rand.NewSource(11))
	spec := query.ShardSpec{Dataset: dataset, Generation: gen, Shard: 0, Shards: 2, ST: 0.3}
	groups := make([]query.SpecGroup, 5)
	for sid := 0; sid < 2; sid++ {
		values := make([]float64, 90)
		x := r.Float64()
		for i := range values {
			x += r.NormFloat64() * 0.1
			values[i] = x
		}
		spec.Series = append(spec.Series, query.SpecSeries{ID: 10 + sid, Values: values})
		for start := 0; start+wideLength <= len(values); start++ {
			g := &groups[(start+sid)%len(groups)]
			w := values[start : start+wideLength]
			if g.Rep == nil {
				g.Rep = append([]float64(nil), w...)
			}
			g.Members = append(g.Members, query.SpecMember{Series: 10 + sid, Start: start, EDToRep: dist.ED(w, g.Rep)})
		}
	}
	for i := range groups {
		groups[i].GlobalID, groups[i].Owned = 2*i, true
		m := groups[i].Members
		sort.SliceStable(m, func(a, b int) bool { return m[a].EDToRep < m[b].EDToRep })
	}
	spec.Lengths = []query.SpecLength{{Length: wideLength, Groups: groups}}
	return spec
}

func wideQuery() []float64 { return []float64{0.2, 0.3, 0.1, 0.4, 0.5, 0.3} }

// wideVerifyReq lists every group the shard holds, and the ones it does
// not, as candidates nothing cuts.
func wideVerifyReq(k, workers int) query.VerifyKRequest {
	req := query.VerifyKRequest{
		Length: wideLength, Query: wideQuery(), K: k,
		CutoffBits: math.Float64bits(math.Inf(1)), Workers: workers,
	}
	for gid := 0; gid < 10; gid++ {
		req.Candidates = append(req.Candidates, query.FixedHit{GroupID: gid, Dist: 0.01 * float64(gid)})
	}
	return req
}

// TestClientVerifyK: the phase over the wire answers the bits the in-process
// shard answers, one attempt, under rpc-verifyk / worker-verifyk spans.
func TestClientVerifyK(t *testing.T) {
	srv := httptest.NewServer(NewWorker(testLogger()).Handler())
	defer srv.Close()
	spec := wideSpec("d", "g1")
	c, err := NewClient(srv.URL, spec, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local, err := query.BuildLocalShard(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, k := range []int{1, 5, 500} {
			req := wideVerifyReq(k, workers)
			want, err := local.VerifyK(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace("r")
			got, err := c.VerifyK(obs.ContextWithTrace(context.Background(), tr), req)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Hits) < k && k < 100 {
				t.Fatalf("k=%d: only %d hits; the fixture verifies too little", k, len(want.Hits))
			}
			if len(got.Hits) != len(want.Hits) || got.PrunedByKim != want.PrunedByKim || got.DTWComputed != want.DTWComputed {
				t.Fatalf("k=%d workers=%d: remote %d hits/%d kim/%d dtw, local %d/%d/%d", k, workers,
					len(got.Hits), got.PrunedByKim, got.DTWComputed, len(want.Hits), want.PrunedByKim, want.DTWComputed)
			}
			for i := range want.Hits {
				if got.Hits[i] != want.Hits[i] {
					t.Fatalf("k=%d workers=%d hit %d: remote %+v, local %+v", k, workers, i, got.Hits[i], want.Hits[i])
				}
			}
			names := map[string]int{}
			for _, s := range tr.Snapshot().Spans {
				names[s.Name]++
			}
			if names["rpc-verifyk"] != 1 || names["worker-verifyk"] != 1 {
				t.Fatalf("spans = %v, want one rpc-verifyk and one worker-verifyk", names)
			}
		}
	}
}

// TestClientResponseTooLarge: an answer over the response limit is a typed
// error after ONE attempt — a property of the request, not a flaky worker to
// retry and report as unavailable.
func TestClientResponseTooLarge(t *testing.T) {
	var calls atomic.Int64
	answer := []byte(`{"results":[],"pad":"` + strings.Repeat("x", 4096) + `"}`)
	worker := NewWorker(testLogger()).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/range") {
			calls.Add(1)
			rw.Header().Set("Content-Type", "application/json")
			_, _ = rw.Write(answer)
			return
		}
		worker.ServeHTTP(rw, r)
	}))
	defer srv.Close()
	c, err := NewClient(srv.URL, testSpec("d", "g1"), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.respLimit = int64(len(answer)) - 1

	_, err = c.Range(context.Background(), query.RangeRequest{Length: 4, Query: []float64{1, 2, 3, 4}, Radius: 1})
	if !errors.Is(err, ErrResponseTooLarge) || errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrResponseTooLarge and not ErrUnavailable", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("an oversized answer was fetched %d times, want 1 (no retry)", got)
	}
	// An answer of exactly the limit still decodes.
	c.respLimit = int64(len(answer))
	if _, err := c.Range(context.Background(), query.RangeRequest{Length: 4, Query: []float64{1, 2, 3, 4}, Radius: 1}); err != nil {
		t.Fatal(err)
	}
}

// shippedWorker returns a worker handler holding wideSpec as d/g1/0.
func shippedWorker(tb testing.TB) http.Handler {
	tb.Helper()
	h := NewWorker(testLogger()).Handler()
	body, err := json.Marshal(wideSpec("d", "g1"))
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/worker/v1/shards/d/g1/0", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("ship = %d %s", rec.Code, rec.Body)
	}
	return h
}

func postVerifyK(h http.Handler, ctx context.Context, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/worker/v1/shards/d/g1/0/verifyk", bytes.NewReader(body))
	h.ServeHTTP(rec, req.WithContext(ctx))
	return rec
}

// TestWorkerVerifyKMalformed: every request the coordinator would never
// send is a typed 400; candidate ids the shard holds no member of are
// answered (empty), since every shard receives the whole list.
func TestWorkerVerifyKMalformed(t *testing.T) {
	h := shippedWorker(t)
	q := `"query":[0.2,0.3,0.1,0.4,0.5,0.3]`
	inf := "9218868437227405312" // Float64bits(+Inf)
	nan := "9221120237041090561" // Float64bits(NaN)
	bad := map[string]string{
		"not json":        `{"length":6,`,
		"k zero":          `{"length":6,` + q + `,"k":0,"cutoffBits":` + inf + `,"candidates":[{"groupId":0,"dist":1}]}`,
		"k negative":      `{"length":6,` + q + `,"k":-3,"cutoffBits":` + inf + `,"candidates":[{"groupId":0,"dist":1}]}`,
		"empty query":     `{"length":6,"query":[],"k":3,"cutoffBits":` + inf + `,"candidates":[{"groupId":0,"dist":1}]}`,
		"NaN query":       `{"length":6,"query":[NaN,1,1,1,1,1],"k":3,"cutoffBits":` + inf + `}`,
		"huge query":      `{"length":6,"query":[1e999,1,1,1,1,1],"k":3,"cutoffBits":` + inf + `}`,
		"unindexed":       `{"length":7,` + q + `,"k":3,"cutoffBits":` + inf + `,"candidates":[{"groupId":0,"dist":1}]}`,
		"NaN cutoff":      `{"length":6,` + q + `,"k":3,"cutoffBits":` + nan + `,"candidates":[{"groupId":0,"dist":1}]}`,
		"negative radius": `{"length":6,` + q + `,"k":3,"cutoffBits":` + inf + `,"radiusRaw":-1,"candidates":[{"groupId":0,"dist":1}]}`,
		"negative id":     `{"length":6,` + q + `,"k":3,"cutoffBits":` + inf + `,"candidates":[{"groupId":-1,"dist":1}]}`,
		"duplicate id":    `{"length":6,` + q + `,"k":3,"cutoffBits":` + inf + `,"candidates":[{"groupId":2,"dist":1},{"groupId":4,"dist":1},{"groupId":2,"dist":1}]}`,
	}
	for name, body := range bad {
		rec := postVerifyK(h, context.Background(), []byte(body))
		if rec.Code != http.StatusBadRequest || errCode(t, rec.Body.Bytes()) != "bad_request" {
			t.Errorf("%s: %d %s, want 400 bad_request", name, rec.Code, rec.Body)
		}
	}
	var many strings.Builder
	many.WriteString(`{"length":6,` + q + `,"k":3,"cutoffBits":` + inf + `,"candidates":[{"groupId":1,"dist":1}`)
	for gid := 1000; gid < 1200; gid++ { // far more candidates than the shard has groups
		many.WriteString(`,{"groupId":` + strconv.Itoa(gid) + `,"dist":1}`)
	}
	many.WriteString(`]}`)
	rec := postVerifyK(h, context.Background(), []byte(many.String()))
	var resp query.VerifyKResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Hits) != 0 {
		t.Fatalf("unknown group ids: %d %s, want an empty 200", rec.Code, rec.Body)
	}
}

// countdownCtx cancels after a fixed number of Err() polls.
type countdownCtx struct {
	context.Context
	left *atomic.Int64
}

func (c countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestWorkerVerifyKCanceled: a request context cancelled while the phase
// runs (the coordinator gave up) answers 503 canceled, not a partial 200.
func TestWorkerVerifyKCanceled(t *testing.T) {
	h := shippedWorker(t)
	body, err := json.Marshal(wideVerifyReq(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := countdownCtx{Context: context.Background(), left: new(atomic.Int64)}
	ctx.left.Store(2) // past the entry check and the first group, into the walk
	rec := postVerifyK(h, ctx, body)
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec.Body.Bytes()) != "canceled" {
		t.Fatalf("canceled phase = %d %s, want 503 canceled", rec.Code, rec.Body)
	}
	if rec := postVerifyK(h, context.Background(), body); rec.Code != http.StatusOK {
		t.Fatalf("the same request uncancelled = %d %s", rec.Code, rec.Body)
	}
}

// FuzzWorkerVerifyK throws arbitrary bodies at the phase route: the worker
// answers 200 or a typed 4xx — never a panic (which the route's recovery
// would turn into a 500) or any other 5xx — and a 200 names only candidate
// groups the shard holds.
func FuzzWorkerVerifyK(f *testing.F) {
	good, err := json.Marshal(wideVerifyReq(3, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"length":6,"query":[0.2,0.3,0.1,0.4,0.5,0.3],"k":0,"cutoffBits":0,"candidates":[{"groupId":0,"dist":0}]}`))
	f.Add([]byte(`{"length":6,"query":[0.2,0.3,0.1,0.4,0.5,0.3],"k":-1,"candidates":[{"groupId":-5,"dist":-1}]}`))
	f.Add([]byte(`{"length":6,"query":[0.2,0.3,0.1,0.4,0.5,0.3],"k":2,"cutoffBits":9221120237041090561,"candidates":[{"groupId":2,"dist":0},{"groupId":2,"dist":0}]}`))
	f.Add([]byte(`{"length":6,"query":[],"k":2,"cutoffBits":9218868437227405312}`))
	f.Add([]byte(`{"length":6,"query":[1e999],"k":2}`))
	f.Add([]byte(`{"length":5,"query":[1,2,3,4,5],"k":2,"candidates":[{"groupId":0,"dist":0}]}`))
	f.Add([]byte(`{"length":6,"query":[1,2,3],"k":9223372036854775807,"cutoffBits":1,"radiusRaw":1e308,"workers":-7,"candidates":[{"groupId":99999999,"dist":0},{"groupId":0,"dist":1e308},{"groupId":4,"dist":0},{"groupId":6,"dist":0},{"groupId":8,"dist":0},{"groupId":1,"dist":0},{"groupId":3,"dist":0}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	h := shippedWorker(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postVerifyK(h, context.Background(), body)
		switch {
		case rec.Code == http.StatusOK:
			var resp query.VerifyKResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable body: %v", err)
			}
			var req query.VerifyKRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("200 for a body that does not decode: %q", body)
			}
			asked := map[int]bool{}
			for _, c := range req.Candidates {
				asked[c.GroupID] = true
			}
			for _, h := range resp.Hits {
				if !asked[h.GroupID] || h.GroupID%2 != 0 || h.GroupID > 8 {
					t.Fatalf("hit %+v names a group that was not asked for or is not here", h)
				}
				if d := math.Float64frombits(h.DistBits); math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
					t.Fatalf("hit %+v carries a non-finite distance", h)
				}
			}
		case rec.Code >= 400 && rec.Code < 500:
			if errCode(t, rec.Body.Bytes()) == "" {
				t.Fatalf("%d without a typed envelope: %s", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
