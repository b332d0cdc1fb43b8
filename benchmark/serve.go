package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"onex"
	"onex/internal/api"
	"onex/internal/hub"
	"onex/internal/obs"
)

const serveDataset = "bench"

// served is the serve deployment: api.Server behind a loopback listener,
// one keep-alive HTTP client per closed-loop client.
type served struct {
	in        *inputs
	srv       *api.Server
	web       *httptest.Server
	clients   []*http.Client
	lists     [][]op
	registerS float64
}

func (s *served) close() {
	if s == nil {
		return
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if s.web != nil {
		s.web.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// JSON shapes of the /v1 surface, as docs/api.md gives them.
type (
	matchJSON struct {
		SeriesID   int     `json:"seriesId"`
		Start      int     `json:"start"`
		Length     int     `json:"length"`
		Distance   float64 `json:"distance"`
		Guaranteed bool    `json:"guaranteed"`
	}
	matchRequest struct {
		Query []float64 `json:"query"`
		Mode  string    `json:"mode"`
		K     int       `json:"k,omitempty"`
	}
	rangeRequest struct {
		Query  []float64 `json:"query"`
		Length int       `json:"length"`
		Radius float64   `json:"radius"`
	}
	batchRequest struct {
		Queries []matchRequest `json:"queries"`
	}
	jobJSON struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
)

func modeName(m onex.MatchMode) string {
	if m == onex.MatchExact {
		return "exact"
	}
	return "any"
}

func (m matchJSON) match() onex.Match {
	return onex.Match{SeriesID: m.SeriesID, Start: m.Start, Length: m.Length, Distance: m.Distance}
}

// setupServe boots the server on the smallest generator (api.New insists
// on a default dataset; nothing ever queries it), registers the generated
// series over POST /v1/datasets and waits until the dataset is ready, then
// draws the request lists.
func setupServe(rc *runCtx) (*served, error) {
	sz := rc.sz.serve
	s := &served{in: generate(sz.data, sz.removed, rc.seed)}
	srv, err := api.New(api.Config{
		Generator: "ItalyPower", Scale: 0.15, ST: st, Lengths: 3, Seed: populationSeed,
		Parallelism: 1, CacheEntries: sz.cacheEntries,
	})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	s.web = httptest.NewServer(srv.Routes())
	for i := 0; i < sz.clients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}

	type seriesJSON struct {
		Values []float64 `json:"values"`
	}
	reg := struct {
		Name        string       `json:"name"`
		Series      []seriesJSON `json:"series"`
		ST          float64      `json:"st"`
		Lengths     int          `json:"lengths"`
		Parallelism int          `json:"parallelism"`
		Seed        int64        `json:"seed"`
		Wait        bool         `json:"wait"`
	}{Name: serveDataset, ST: st, Lengths: sz.data.lengths, Parallelism: 1, Seed: populationSeed, Wait: true}
	for _, sr := range s.in.series {
		reg.Series = append(reg.Series, seriesJSON{sr.Values})
	}
	body, err := json.Marshal(reg)
	if err != nil {
		s.close()
		return nil, err
	}
	t0 := time.Now()
	resp, err := s.clients[0].Post(s.web.URL+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		s.close()
		return nil, err
	}
	var info hub.Info
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	s.registerS = time.Since(t0).Seconds()
	if err != nil || resp.StatusCode != http.StatusCreated || info.State != "ready" {
		s.close()
		return nil, fmt.Errorf("registering the dataset: status %d, state %q, %v", resp.StatusCode, info.State, err)
	}
	// The HTTP surface takes a length count and spreads it from 2; queries
	// use the lengths the server says it indexed.
	s.in.lengths = info.Lengths
	s.lists = serveLists(sz, s.in)
	return s, nil
}

// serveLists draws the fixed request mix and deals it to the clients. Every
// request but a repeat carries a query no other request has, and one pass
// holds several times more distinct cache keys than the cache has entries,
// so on every pass only the repeats can hit; they are spaced evenly, so
// that no hot query waits long enough to be evicted.
func serveLists(sz serveSizes, in *inputs) [][]op {
	qlens := in.queryLengths()
	base := "/v1/datasets/" + serveDataset
	encode := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain numbers and strings always encode
		}
		return b
	}
	matchOp := func(fam, path string, q []float64, mode onex.MatchMode) op {
		return op{fam: fam, q: q, mode: mode, path: base + path, body: encode(matchRequest{Query: q, Mode: modeName(mode)})}
	}
	mode := func(i int) onex.MatchMode {
		if i%2 == 0 {
			return onex.MatchAny
		}
		return onex.MatchExact
	}
	var ops []op
	for i, q := range in.queries(sz.unique, qlens, bothKinds) {
		o := matchOp(famMatch, "/match", q, mode(i))
		o.oracle = i < min(sz.oracle, pinnedOf(sz.unique))
		ops = append(ops, o)
	}
	for _, q := range in.queries(sz.knn, qlens, bothKinds) {
		ops = append(ops, op{fam: famKNN, q: q, mode: onex.MatchExact, k: sz.k, path: base + "/match",
			body: encode(matchRequest{Query: q, Mode: "exact", K: sz.k})})
	}
	for _, q := range in.queries(sz.ranges, qlens, inDataset) {
		ops = append(ops, op{fam: famRange, q: q, length: len(q), radius: sz.radius, path: base + "/range",
			body: encode(rangeRequest{Query: q, Length: len(q), Radius: sz.radius})})
	}
	for i := 0; i < sz.seasonal; i++ {
		sid, l := i%len(in.series), qlens[i%len(qlens)]
		ops = append(ops, op{fam: famSeasonal, series: sid, length: l,
			path: base + "/seasonal?series=" + strconv.Itoa(sid) + "&length=" + strconv.Itoa(l)})
	}
	for i := 0; i < sz.batches; i++ {
		o := op{fam: famBatch, path: base + "/match/batch"}
		var req batchRequest
		for j, q := range in.queries(sz.batchItems, qlens, bothKinds) {
			o.batch = append(o.batch, op{fam: famMatch, q: q, mode: mode(j)})
			req.Queries = append(req.Queries, matchRequest{Query: q, Mode: modeName(mode(j))})
		}
		o.body = encode(req)
		ops = append(ops, o)
	}
	for i, q := range in.queries(sz.jobs, qlens, bothKinds) {
		ops = append(ops, matchOp(famJob, "/match/jobs", q, mode(i)))
	}
	// The order belongs to the population, not to the run's seed: two
	// clients share two cores with the server, so what a request costs
	// depends on what the other client is asking meanwhile.
	in.pool.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	// The repeats go in at even spacing, round-robin over the hot set.
	hot := in.queries(sz.hot, qlens, bothKinds)
	mixed := make([]op, 0, len(ops)+sz.repeat)
	for i, o := range ops {
		for r := i * sz.repeat / len(ops); r < (i+1)*sz.repeat/len(ops); r++ {
			mixed = append(mixed, matchOp(famRepeat, "/match", hot[r%len(hot)], onex.MatchAny))
		}
		mixed = append(mixed, o)
	}
	lists := make([][]op, sz.clients)
	for i, o := range mixed {
		o.client = i % sz.clients
		lists[o.client] = append(lists[o.client], o)
	}
	return lists
}

// executor sends an op over HTTP as the op's client and reads the whole
// reply; that is where the clock stops. The reply is decoded afterwards.
func (s *served) executor() executor {
	return func(o *op, rec *obs.Trace) answer {
		client := s.clients[o.client]
		url := s.web.URL + o.path
		// A traced pass asks the server to explain match, k-NN and range
		// requests; the engine's trace comes back beside the result.
		explain := rec != nil && (o.fam == famMatch || o.fam == famRepeat || o.fam == famKNN || o.fam == famRange)
		if explain {
			url += "?explain=1"
		}
		a := answer{reqBytes: len(o.body)}
		status, body, err := roundTrip(client, o, url)
		if err != nil {
			a.err = err
			return a
		}
		if o.fam == famJob {
			// Submit, then poll until the job is terminal.
			var job jobJSON
			if status != http.StatusAccepted || json.Unmarshal(body, &job) != nil {
				a.err = fmt.Errorf("job submit: status %d: %s", status, body)
				return a
			}
			a.respBytes = len(body)
			for job.State == "queued" || job.State == "running" {
				if a.polls > 0 {
					time.Sleep(200 * time.Microsecond)
				}
				a.polls++
				resp, err := client.Get(s.web.URL + "/v1/jobs/" + job.ID)
				if err != nil {
					a.err = err
					return a
				}
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					a.err = err
					return a
				}
				a.respBytes += len(body)
				if err := json.Unmarshal(body, &job); err != nil {
					a.err = err
					return a
				}
			}
			if job.State != "done" {
				a.err = fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
				return a
			}
			a.raw = job.Result
			return a
		}
		a.respBytes = len(body)
		if status != http.StatusOK {
			a.err = fmt.Errorf("%s: status %d: %s", o.path, status, body)
			return a
		}
		a.raw, a.explained = body, explain
		return a
	}
}

func roundTrip(client *http.Client, o *op, url string) (int, []byte, error) {
	method := http.MethodPost
	if o.body == nil {
		method = http.MethodGet
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// decode turns a reply body into the program's own types, after the clock
// has stopped.
func (a *answer) decode(o *op) {
	raw := a.raw
	a.raw = nil
	if a.explained {
		var env struct {
			Result json.RawMessage `json:"result"`
			Trace  obs.View        `json:"trace"`
		}
		if a.err = json.Unmarshal(raw, &env); a.err != nil {
			return
		}
		raw, a.view = env.Result, &env.Trace
	}
	switch o.fam {
	case famKNN:
		var body struct {
			Matches []matchJSON `json:"matches"`
		}
		a.err = json.Unmarshal(raw, &body)
		for _, m := range body.Matches {
			a.matches = append(a.matches, m.match())
		}
	case famRange:
		var body struct {
			Results []matchJSON `json:"results"`
		}
		a.err = json.Unmarshal(raw, &body)
		for _, m := range body.Results {
			a.ranges = append(a.ranges, onex.RangeMatch{Match: m.match(), Guaranteed: m.Guaranteed})
		}
	case famSeasonal:
		var body struct {
			Patterns []onex.Pattern `json:"patterns"`
		}
		a.err = json.Unmarshal(raw, &body)
		a.patterns = body.Patterns
	case famBatch:
		var body struct {
			Results []struct {
				Result *matchJSON `json:"result"`
				Error  string     `json:"error"`
			} `json:"results"`
		}
		a.err = json.Unmarshal(raw, &body)
		for i, r := range body.Results {
			if r.Result == nil {
				a.batch = append(a.batch, answer{err: fmt.Errorf("item %d: %s", i, r.Error)})
				if a.err == nil {
					a.err = a.batch[i].err
				}
				continue
			}
			a.batch = append(a.batch, answer{matches: []onex.Match{r.Result.match()}})
		}
	default:
		var m matchJSON
		a.err = json.Unmarshal(raw, &m)
		a.matches = []onex.Match{m.match()}
	}
}

func runServe(rc *runCtx, res *result) error {
	sz := rc.sz.serve
	s, err := setups(rc, res, func() (*served, error) { return setupServe(rc) }, (*served).close)
	if err != nil {
		return err
	}
	defer s.close()

	ds, err := s.srv.Hub().Get(serveDataset)
	if err != nil {
		return err
	}
	base, _, err := ds.Base()
	if err != nil {
		return err
	}
	cache0 := s.srv.Hub().Stats().Cache
	tm := measure(rc, res, s.lists, s.executor(), len(s.in.series))
	cache := s.srv.Hub().Stats().Cache
	tm.reportFamily(res, famMatch, "match")
	tm.reportFamily(res, famRepeat, "repeat")
	tm.reportFamily(res, famKNN, "knn")
	tm.reportFamily(res, famRange, "range")
	res.set("throughput_ops_s", median(tm.passOps), tm.timed)

	// What the result cache holds when a pass ends depends on which requests
	// came last, and one range answer weighs as much as a thousand matches.
	// Memory is read with the cache full of best-match answers: every match,
	// batch and job request once more, more keys than the cache has entries.
	exec := s.executor()
	for _, o := range tm.ops {
		if o.fam == famMatch || o.fam == famBatch || o.fam == famJob {
			if a := exec(o, nil); a.err != nil {
				return a.err
			}
		}
	}
	res.set("heap_live_mb", heapLiveMB(), 1)

	// The workload assumes that repeats, and only repeats, hit the cache.
	passes := 1 + tm.timed + len(tm.tracedMean)
	hits := float64(cache.Hits - cache0.Hits)
	want := float64(sz.repeat*passes - sz.hot)
	res.Attempted++
	if hits < 0.9*want || hits > 1.1*want+float64(sz.hot) {
		res.fail("cache hits %.0f, want about %.0f: repeats are not what hits the cache", hits, want)
	}

	// Every answer must equal what the bare base gives for the same input.
	direct := baseExecutor(base)
	tm.compareWith(res, "bare onex.Base", direct)
	if err := oracle(rc, res, s.in.dataset(), base.Lengths(), tm.ops, tm.ref, tm.perOp); err != nil {
		return err
	}
	if !rc.traced {
		return nil
	}

	queryLayers(rc, res, tm)
	distLayers(rc, res, s.in, tm.ops)
	s.in.lengths = base.Lengths()
	if err := buildLayers(rc, res, s.in, 1); err != nil {
		return err
	}
	if err := snapshotLayers(rc, res, base); err != nil {
		return err
	}
	res.set("hub.register_s", s.registerS, 1)
	res.set("hub.cache_hit_share", hits/float64(cache.Hits-cache0.Hits+cache.Misses-cache0.Misses), int(hits))
	serveLayers(rc, res, s, ds, base, tm)
	return nil
}

// serveLayers takes the hub, api and jobs layer metrics: the hub's cost on
// a cached and on an uncached key beside the bare base's, the codec's cost
// as what a cached request spends outside the hub, body sizes, and for
// explained unique matches the share of the client's latency that neither
// the engine's spans nor the codec account for.
func serveLayers(rc *runCtx, res *result, s *served, ds *hub.Dataset, base *onex.Base, tm *timings) {
	sz := rc.sz.serve
	ctx := context.Background()
	_, end := rc.tr.begin("hub probes", 0)
	probes := s.in.queries(sz.probes, s.in.queryLengths(), bothKinds)
	var hit, miss, bare []float64
	for _, q := range probes {
		res.Attempted++
		t0 := time.Now()
		_, err1 := ds.Match(ctx, q, onex.MatchAny, 1) // a key no request used: a miss
		m := time.Since(t0)
		t0 = time.Now()
		_, err := base.BestMatch(q, onex.MatchAny) // the engine alone, as warm as the miss left it
		b := time.Since(t0)
		t0 = time.Now()
		_, err2 := ds.Match(ctx, q, onex.MatchAny, 1) // the same key again: a hit
		h := time.Since(t0)
		if err != nil || err1 != nil || err2 != nil {
			res.fail("hub probe: %v %v %v", err, err1, err2)
			continue
		}
		hit = append(hit, float64(h.Nanoseconds())/1e3)
		miss = append(miss, float64(m.Nanoseconds())/1e3)
		bare = append(bare, float64(b.Nanoseconds())/1e3)
	}
	end()
	res.set("hub.hit_us", median(hit), len(hit))
	res.set("hub.miss_overhead_us", median(miss)-median(bare), len(miss))

	repeat := tm.family(famRepeat)
	codecUS := median(repeat)*1e3 - median(hit)
	res.set("api.codec_us", codecUS, len(repeat))
	var reqB, respB, polls, jobs float64
	var unexplained []float64
	for i, o := range tm.ops {
		a := &tm.tracedAns[i]
		reqB += float64(a.reqBytes)
		respB += float64(a.respBytes)
		if o.fam == famJob {
			polls += float64(a.polls)
			jobs++
		}
		if o.fam == famMatch && a.view != nil {
			// Spans of one explained request do not overlap on this
			// unsharded dataset, so their durations add up.
			var spans float64
			for _, sp := range a.view.Spans {
				spans += float64(sp.DurMicros)
			}
			client := tm.tracedLat[i] * 1e3
			unexplained = append(unexplained, (client-spans-codecUS)/client*100)
		}
	}
	n := float64(len(tm.ops))
	res.set("api.req_bytes_per_op", reqB/n, len(tm.ops))
	res.set("api.resp_bytes_per_op", respB/n, len(tm.ops))
	res.set("api.batch_per_item_us", median(tm.family(famBatch))*1e3/float64(sz.batchItems), sz.batches)
	res.set("api.budget_unexplained_pct", median(unexplained), len(unexplained))
	res.set("jobs.submit_to_done_ms", median(tm.family(famJob)), int(jobs))
	res.set("jobs.polls_per_job", polls/jobs, int(jobs))
}
