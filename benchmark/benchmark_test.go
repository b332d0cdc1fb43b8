package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runTiny runs all five workloads at the self-test sizes.
func runTiny(t *testing.T, seed int64, traced, corrupt bool) map[string]*result {
	t.Helper()
	out := map[string]*result{}
	for _, name := range workloadNames {
		rc := &runCtx{seed: seed, traced: traced, sz: tinySizes, outDir: t.TempDir(), corrupt: corrupt}
		if traced {
			rc.tr = newTracer()
		}
		res, err := runWorkload(rc, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := rc.tr.write(rc.outDir, name, newEnvelope(seed, true, traced)); err != nil {
			t.Fatal(err)
		}
		if traced {
			if _, err := os.Stat(filepath.Join(rc.outDir, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: no span file: %v", name, err)
			}
		}
		out[name] = res
	}
	return out
}

// tracedTiny is runTiny's traced run, made once per seed and shared.
func tracedTiny(t *testing.T, seed int64) map[string]*result {
	t.Helper()
	if tinyRuns[seed] == nil {
		tinyRuns[seed] = runTiny(t, seed, true, false)
	}
	return tinyRuns[seed]
}

var tinyRuns = map[int64]map[string]*result{}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestContract: BENCHMARK.json and the registry name the same workloads and
// metrics with the same units, directions and bounds, and every workload
// emits every one of them, finite, under a well-formed name, with nothing
// failing.
func TestContract(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d is %q (why: %d chars), want %q with a reason", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	better := func(d *metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	endToEnd, perLayer := map[string]bool{}, map[string]bool{}
	for _, m := range bj.EndToEnd {
		d := metricByName[m.Name]
		if d == nil || d.kind != universal {
			t.Errorf("end_to_end metric %q is not a universal metric of the registry", m.Name)
			continue
		}
		if m.Unit != d.unit || m.Better != better(d) || m.Bound != d.bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: %s/%s/%v in BENCHMARK.json, %s/%s/%v in the registry", m.Name, m.Unit, m.Better, m.Bound, d.unit, better(d), d.bound)
		}
		endToEnd[m.Name] = true
	}
	for _, m := range bj.PerLayer {
		d := metricByName[m.Name]
		if d == nil || (d.kind != layer && d.kind != specific) {
			t.Errorf("per_layer metric %q is not a layer or workload-specific metric of the registry", m.Name)
			continue
		}
		if m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("per_layer %s: %s/%s in BENCHMARK.json, %s/%s in the registry", m.Name, m.Unit, m.Better, d.unit, better(d))
		}
		perLayer[m.Name] = true
	}
	for i := range metricDefs {
		d := &metricDefs[i]
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q (unit %q) is not well-formed", d.name, d.unit)
		}
		switch {
		case d.kind == universal && !endToEnd[d.name]:
			t.Errorf("universal metric %s is missing from end_to_end", d.name)
		case (d.kind == layer || d.kind == specific) && !perLayer[d.name]:
			t.Errorf("metric %s is missing from per_layer", d.name)
		}
	}
	if !endToEnd["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}

	// A traced run reports both kinds: its end-to-end metrics come from
	// its untraced passes.
	traced := tracedTiny(t, 1)
	plain := traced
	for _, name := range workloadNames {
		if res := traced[name]; res.Failed != 0 || res.failedShare() != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Failures)
		}
		for i := range metricDefs {
			d := &metricDefs[i]
			var v value
			var ok bool
			switch {
			case d.kind == layer:
				v, ok = traced[name].Layers[d.name]
			case d.kind != optional:
				v, ok = plain[name].Metrics[d.name]
			default:
				continue
			}
			if !d.measuredOn(name) {
				if ok {
					t.Errorf("%s reports %s, which the registry says it does not measure", name, d.name)
				}
				continue
			}
			if !ok {
				t.Errorf("%s does not report %s", name, d.name)
				continue
			}
			if v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v %s, want a finite number of %s", name, d.name, v.Value, v.Unit, d.unit)
			}
			if d.kind == universal && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, d.name, v.Value)
			}
		}
	}
}

// TestFullSizesSupportP90: match_p90_ms is reported everywhere, so every
// workload's match family must hold the 100 queries a p90 needs.
func TestFullSizesSupportP90(t *testing.T) {
	sz := fullSizes
	for name, n := range map[string]int{
		"scan":   sz.scan.matchAny + sz.scan.matchExact,
		"refine": sz.refine.matchAny + sz.refine.matchExact,
		"remote": sz.remote.matchAny + sz.remote.matchExact,
		"serve":  sz.serve.unique,
		"ingest": sz.ingest.readList,
	} {
		if n < 100 {
			t.Errorf("%s has %d distinct match queries; a p90 needs 100", name, n)
		}
	}
}

// TestSeeds: one seed gives the same inputs, hence identical exact counts
// and accuracy; the oracle's queries are asked under every seed. (That
// another seed asks other queries is TestGenerate's: at these sizes a
// workload has too few strata for two given seeds to be sure to differ.)
func TestSeeds(t *testing.T) {
	a := tracedTiny(t, 1)
	b := runTiny(t, 1, true, false)
	c := runTiny(t, 2, false, false)
	for _, name := range workloadNames {
		for i := range metricDefs {
			d := &metricDefs[i]
			if !d.exactOn(name) {
				continue
			}
			pick := func(r *result) float64 {
				if d.kind == layer {
					return r.Layers[d.name].Value
				}
				return r.Metrics[d.name].Value
			}
			if pick(a[name]) != pick(b[name]) {
				t.Errorf("%s: %s is %v then %v with one seed", name, d.name, pick(a[name]), pick(b[name]))
			}
		}
		if x, y := a[name].Metrics["accuracy_pct"].Value, c[name].Metrics["accuracy_pct"].Value; x != y {
			t.Errorf("%s: accuracy_pct is %v under seed 1 and %v under seed 2", name, x, y)
		}
	}
}

// TestGenerate: one seed asks the same queries, another seed other ones of
// the same population; the pinned candidates are asked under every seed; a
// base's own normalization leaves generated values as they are.
func TestGenerate(t *testing.T) {
	draw := func(seed int64) (*inputs, [][]float64) {
		in := generate(fullSizes.scan.data, 8, seed)
		return in, in.queries(140, in.queryLengths(), bothKinds)
	}
	in, a := draw(1)
	_, b := draw(1)
	_, c := draw(2)
	same := func(x, y [][]float64) bool {
		for i := range x {
			if len(x[i]) != len(y[i]) || x[i][0] != y[i][0] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("one seed drew two different query lists")
	}
	if same(a, c) {
		t.Error("seeds 1 and 2 drew the same query list")
	}
	if !same(a[:pinnedOf(140)], c[:pinnedOf(140)]) {
		t.Error("the pinned candidates differ between seeds")
	}
	lo, hi := in.dataset().MinMax()
	if lo != 0 || hi != 1 {
		t.Errorf("generated series span [%v, %v], want exactly [0, 1]", lo, hi)
	}
}

// TestCorruptedAnswerFails: an answer that changes between passes must fail
// verification on every workload that makes passes.
func TestCorruptedAnswerFails(t *testing.T) {
	res := runTiny(t, 1, false, true)
	for _, name := range []string{"scan", "refine", "serve", "remote"} {
		if res[name].Failed == 0 {
			t.Errorf("%s: a corrupted answer went unnoticed", name)
		}
	}
}

// TestCompare: an identical pair passes, a slowdown of one metric is a
// regression once it exceeds the metric's bound (20 % over a 10 % bound is
// what the issue asked for; timings now carry timingBound), sets under
// different seeds are refused, and a set whose own spread exceeds the bound
// or that has too few runs free of the noisy mark is unresolved, not
// unchanged.
func TestCompare(t *testing.T) {
	set := func(seed int64, scale func(run int) float64) *resultSet {
		rs := &resultSet{Envelope: newEnvelope(seed, true, false)}
		for run := 0; run < 5; run++ {
			res := newResult("scan")
			res.Attempted = 100
			res.set("match_p50_ms", 10*scale(run), 100)
			res.set("throughput_ops_s", 50, 3)
			rs.Runs = append(rs.Runs, runRecord{Workloads: map[string]*result{"scan": res}})
		}
		return rs
	}
	jitter := func(run int) float64 { return 1 + 0.01*float64(run-2) }
	var buf bytes.Buffer
	if code := compareSets(&buf, set(1, jitter), set(1, jitter)); code != 0 || strings.Contains(buf.String(), "REGRESSION") || !strings.Contains(buf.String(), " 0 unresolved") {
		t.Errorf("identical pair: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	slower := func(by float64) func(int) float64 {
		return func(run int) float64 { return (1 + by) * jitter(run) }
	}
	if code := compareSets(&buf, set(1, jitter), set(1, slower(2*timingBound))); code != 1 || !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("a slowdown of twice the bound: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSets(&buf, set(1, jitter), set(1, slower(timingBound/2))); code != 0 || strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("a slowdown of half the bound: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	wide := func(run int) float64 { return 1 + 0.3*float64(run-2) }
	if code := compareSets(&buf, set(1, jitter), set(1, wide)); code != 0 || !strings.Contains(buf.String(), "unresolved (spread exceeds bound)") {
		t.Errorf("wide spread: exit %d\n%s", code, buf.String())
	}
	// A run the calibration loop marked noisy is left out while three clean
	// ones remain; with fewer the metric is unresolved.
	marked := func(n int) *resultSet {
		rs := set(1, func(run int) float64 {
			if run < n {
				return 3
			}
			return jitter(run)
		})
		for run := 0; run < n; run++ {
			rs.Runs[run].Workloads["scan"].Noisy = true
		}
		return rs
	}
	buf.Reset()
	if code := compareSets(&buf, set(1, jitter), marked(2)); code != 0 || !strings.Contains(buf.String(), " 0 unresolved") {
		t.Errorf("two noisy runs of five: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSets(&buf, set(1, jitter), marked(3)); code != 0 || !strings.Contains(buf.String(), "unresolved (noisy runs)") {
		t.Errorf("three noisy runs of five: exit %d\n%s", code, buf.String())
	}
	if why := comparable(set(1, jitter).Envelope, set(2, jitter).Envelope); why == "" {
		t.Error("sets under different seeds were accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "set.json")
	a := set(1, jitter)
	for _, run := range a.Runs {
		if err := appendRun(path, a.Envelope, run); err != nil {
			t.Fatal(err)
		}
	}
	if err := appendRun(path, set(2, jitter).Envelope, a.Runs[0]); err == nil {
		t.Error("a run under another seed joined the set")
	}
	buf.Reset()
	if code := compareFiles(&buf, path, path); code != 0 {
		t.Errorf("a file against itself: exit %d\n%s", code, buf.String())
	}
}
