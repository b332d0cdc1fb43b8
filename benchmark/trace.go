package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"onex/internal/obs"
)

// span is one record of the trace file: a stretch of time at a layer
// boundary, with the span that caused it. Spans of one request share Req.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0: a root
	Req     int              `json:"req,omitempty"`
	Name    string           `json:"name"`
	StartUS int64            `json:"start_us"` // since the run began
	DurUS   int64            `json:"dur_us"`
	SelfUS  int64            `json:"self_us"` // DurUS minus what its child spans cover
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps the traced run's spans in memory and writes them out when
// the run ends. The benchmark opens spans of its own around its calls into
// each layer (set-up, passes, layer probes, each request); the engine's
// obs spans of a traced request are folded in under that request's span.
// A nil tracer records nothing, so untraced runs pay nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Parent: parent, Name: name, StartUS: start.Microseconds()})
	id = len(t.spans)
	t.spans[id-1].ID = id
	t.mu.Unlock()
	return id, func() {
		d := time.Since(t.t0) - start
		t.mu.Lock()
		t.spans[id-1].DurUS = d.Microseconds()
		t.mu.Unlock()
	}
}

// request records one traced request: a span of the benchmark's own from
// send to answer and, nested under it, the engine's spans for that request.
// The engine stamps its spans from the moment it started tracing, which on
// serve is some unknown time after the client sent; the engine's trace is
// centred in the client's interval, splitting the time it does not explain
// evenly between the way in and the way out.
func (t *tracer) request(name string, parent int, sent time.Time, lat time.Duration, v *obs.View) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	start := sent.Sub(t.t0).Microseconds()
	t.spans = append(t.spans, span{Parent: parent, Req: t.reqs, Name: name, StartUS: start, DurUS: lat.Microseconds()})
	root := len(t.spans)
	t.spans[root-1].ID = root
	if v == nil {
		return
	}
	if slack := lat.Microseconds() - v.DurationMicros; slack > 0 {
		start += slack / 2
	}
	inside := nest(v.Spans)
	for i, s := range v.Spans {
		sp := span{ID: root + 1 + i, Parent: root, Req: t.reqs, Name: s.Name, StartUS: start + s.StartMicros, DurUS: s.DurMicros}
		if inside[i] >= 0 {
			sp.Parent = root + 1 + inside[i]
		}
		if len(s.Attrs) > 0 {
			sp.Attrs = make(map[string]int64, len(s.Attrs))
			for _, a := range s.Attrs {
				sp.Attrs[a.Key] = a.Value
			}
		}
		t.spans = append(t.spans, sp)
	}
}

// nest gives the engine's spans of one request, which it records flat, a
// parent each by time containment: the innermost span that starts no later
// and ends no earlier (-1: none). Spans that merely overlap, like parallel
// shard calls, are siblings.
func nest(spans []obs.Span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	end := func(i int) int64 { return spans[i].StartMicros + spans[i].DurMicros }
	sort.SliceStable(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if spans[x].StartMicros != spans[y].StartMicros {
			return spans[x].StartMicros < spans[y].StartMicros
		}
		return spans[x].DurMicros > spans[y].DurMicros // the enclosing span first
	})
	parent := make([]int, len(spans))
	var stack []int
	for _, i := range order {
		for len(stack) > 0 && end(stack[len(stack)-1]) < end(i) {
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return parent
}

// finish fills every span's self time: its duration minus the part of it
// that its direct children cover (overlapping children count once).
func (t *tracer) finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]int{}
	for i, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return t.spans[ch[a]].StartUS < t.spans[ch[b]].StartUS })
		reach, covered := s.StartUS, int64(0)
		for _, c := range ch {
			lo, hi := t.spans[c].StartUS, t.spans[c].StartUS+t.spans[c].DurUS
			if lo < reach {
				lo = reach
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		if s.SelfUS = s.DurUS - covered; s.SelfUS < 0 {
			s.SelfUS = 0
		}
	}
}

// selfByName sums, over the spans of traced requests, the self time of
// each span name in milliseconds, and counts the requests of each name.
// Call after finish.
func (t *tracer) selfByName() (selfMS map[string]float64, requests map[string]int) {
	selfMS, requests = map[string]float64{}, map[string]int{}
	if t == nil {
		return selfMS, requests
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	isRequest := map[int]bool{}
	for _, s := range t.spans {
		if s.Req == 0 {
			continue
		}
		if !isRequest[s.Req] { // a request's own span comes before the engine's
			isRequest[s.Req] = true
			requests[s.Name]++
			continue
		}
		selfMS[s.Name] += float64(s.SelfUS) / 1e3
	}
	return selfMS, requests
}

// write writes the spans to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, env envelope) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Envelope envelope `json:"envelope"`
		Workload string   `json:"workload"`
		Spans    []span   `json:"spans"`
	}{env, workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
