package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/query"
	"onex/internal/shard"
	"onex/internal/ts"
)

// ParallelReport is the machine-readable payload of the sequential-vs-
// parallel sweep (BENCH_parallel.json): offline-build, single-query and
// batch timings per worker count, with speedups relative to one worker.
// Speedups track real hardware parallelism — expect ≈ 1× at GOMAXPROCS=1
// and ≥ 2× for query/batch at GOMAXPROCS ≥ 4 (the answers themselves are
// identical at every worker count; Equivalent records that this was
// verified during the sweep).
type ParallelReport struct {
	GeneratedAt string `json:"generatedAt"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"numcpu"`

	Dataset struct {
		Name    string  `json:"name"`
		Series  int     `json:"series"`
		Length  int     `json:"length"`
		Lengths []int   `json:"lengths"`
		ST      float64 `json:"st"`
		Seed    int64   `json:"seed"`
	} `json:"dataset"`
	Queries int `json:"queries"`
	Repeats int `json:"repeats"`

	Build []ParallelPoint `json:"build"`
	Query []ParallelPoint `json:"query"`
	Batch []ParallelPoint `json:"batch"`

	// Equivalent records that every parallel run returned exactly the
	// sequential answers (same subsequence, distance within 1e-12).
	Equivalent bool `json:"equivalent"`

	BestBuildSpeedup float64 `json:"bestBuildSpeedup"`
	BestQuerySpeedup float64 `json:"bestQuerySpeedup"`
	BestBatchSpeedup float64 `json:"bestBatchSpeedup"`
}

// ParallelPoint is one timing sample of the sweep.
type ParallelPoint struct {
	// Workers is the worker count (build Workers or query Parallelism).
	Workers int `json:"workers"`
	// Seconds is the best-of-Repeats wall time of the whole stage.
	Seconds float64 `json:"seconds"`
	// PerOpMillis is Seconds spread over the stage's operations (queries,
	// or 1 for a build).
	PerOpMillis float64 `json:"perOpMillis"`
	// Speedup is the one-worker wall time divided by this one's.
	Speedup float64 `json:"speedup"`
}

// parallelWorkerList returns the sweep's worker counts: 1, 2, 4, … up to
// and including max(4, GOMAXPROCS), deduplicated.
func parallelWorkerList() []int {
	procs := runtime.GOMAXPROCS(0)
	set := map[int]bool{1: true, 2: true, 4: true, procs: true}
	out := make([]int, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// RunParallelSweep measures sequential vs parallel execution of the three
// sharded stages — grouping build, single BestMatch queries, and
// BestMatchBatch — on one synthetic base (ECG scaled to ≥ 64 series),
// verifying along the way that every parallel answer equals the sequential
// one. The human-readable tables go to the returned slice; the report is
// ready for JSON serialization.
func RunParallelSweep(cfg Config) (*ParallelReport, []Table, error) {
	cfg.fillDefaults()
	spec := dataset.ECG
	n := int(float64(80) * cfg.Scale)
	if n < 64 {
		n = 64 // acceptance floor: a ≥ 64-series base
	}
	if n > spec.N {
		n = spec.N
	}
	spec.N = n
	data := spec.Generate(cfg.Seed)
	if err := data.NormalizeMinMax(); err != nil {
		return nil, nil, err
	}
	lengths := []int{32, 48, 64}

	rep := &ParallelReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Queries:     cfg.Queries,
		Repeats:     cfg.Repeats,
	}
	rep.Dataset.Name = spec.Name
	rep.Dataset.Series = n
	rep.Dataset.Length = spec.Length
	rep.Dataset.Lengths = lengths
	rep.Dataset.ST = cfg.ST
	rep.Dataset.Seed = cfg.Seed

	workers := parallelWorkerList()

	// --- offline construction sweep ------------------------------------
	buildCfg := func(w int) core.BuildConfig {
		return core.BuildConfig{ST: cfg.ST, Lengths: lengths, Seed: cfg.Seed, Workers: w,
			Query: query.Options{Parallelism: w}}
	}
	// One engine per worker count: the grouping is identical at every
	// Workers setting, so the engines differ only in query parallelism.
	engs := make(map[int]*shard.Engine, len(workers))
	for _, w := range workers {
		secs := math.Inf(1)
		for r := 0; r < cfg.Repeats; r++ {
			start := time.Now()
			e, err := shard.Build(data, buildCfg(w), 0, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: build workers=%d: %w", w, err)
			}
			if s := time.Since(start).Seconds(); s < secs {
				secs = s
			}
			engs[w] = e
		}
		rep.Build = append(rep.Build, ParallelPoint{Workers: w, Seconds: secs, PerOpMillis: secs * 1000})
		cfg.progressf("parallel: build workers=%d %.3fs", w, secs)
	}

	// --- query workload -------------------------------------------------
	queries := parallelQueries(data, lengths, cfg.Queries, cfg.Seed)

	type answer struct {
		sid, start, length int
		dist               float64
	}
	run := func(p int, batch bool) ([]answer, float64, error) {
		eng := engs[p]
		var out []answer
		secs := math.Inf(1)
		for r := 0; r < cfg.Repeats; r++ {
			out = out[:0]
			start := time.Now()
			if batch {
				for _, br := range eng.BestMatchBatch(context.Background(), queries, query.MatchAny) {
					if br.Err != nil {
						return nil, 0, br.Err
					}
					out = append(out, answer{br.Match.SeriesID, br.Match.Start, br.Match.Length, br.Match.Dist})
				}
			} else {
				for _, q := range queries {
					m, err := eng.BestMatch(context.Background(), q, query.MatchAny)
					if err != nil {
						return nil, 0, err
					}
					out = append(out, answer{m.SeriesID, m.Start, m.Length, m.Dist})
				}
			}
			if s := time.Since(start).Seconds(); s < secs {
				secs = s
			}
		}
		return out, secs, nil
	}

	var ref []answer
	rep.Equivalent = true
	for _, stage := range []struct {
		name  string
		batch bool
		dst   *[]ParallelPoint
	}{
		{"query", false, &rep.Query},
		{"batch", true, &rep.Batch},
	} {
		for _, w := range workers {
			ans, secs, err := run(w, stage.batch)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s workers=%d: %w", stage.name, w, err)
			}
			if ref == nil {
				ref = append([]answer(nil), ans...)
			}
			for i := range ans {
				if ans[i].sid != ref[i].sid || ans[i].start != ref[i].start ||
					ans[i].length != ref[i].length || math.Abs(ans[i].dist-ref[i].dist) > 1e-12 {
					rep.Equivalent = false
					return nil, nil, fmt.Errorf("bench: %s workers=%d: answer %d diverged from sequential (%+v vs %+v)",
						stage.name, w, i, ans[i], ref[i])
				}
			}
			*stage.dst = append(*stage.dst, ParallelPoint{
				Workers:     w,
				Seconds:     secs,
				PerOpMillis: secs * 1000 / float64(len(queries)),
			})
			cfg.progressf("parallel: %s workers=%d %.3fs", stage.name, w, secs)
		}
	}

	fillSpeedups := func(pts []ParallelPoint) float64 {
		best := 0.0
		for i := range pts {
			pts[i].Speedup = pts[0].Seconds / pts[i].Seconds
			if pts[i].Speedup > best {
				best = pts[i].Speedup
			}
		}
		return best
	}
	rep.BestBuildSpeedup = fillSpeedups(rep.Build)
	rep.BestQuerySpeedup = fillSpeedups(rep.Query)
	rep.BestBatchSpeedup = fillSpeedups(rep.Batch)

	table := Table{
		Title:  fmt.Sprintf("Sequential vs parallel sweep (%s×%d, GOMAXPROCS=%d)", spec.Name, n, rep.GOMAXPROCS),
		Header: []string{"stage", "workers", "seconds", "per-op ms", "speedup"},
	}
	for _, st := range []struct {
		name string
		pts  []ParallelPoint
	}{{"build", rep.Build}, {"query", rep.Query}, {"batch", rep.Batch}} {
		for _, pt := range st.pts {
			table.Rows = append(table.Rows, []string{
				st.name, fmt.Sprint(pt.Workers),
				fmt.Sprintf("%.4f", pt.Seconds),
				fmt.Sprintf("%.3f", pt.PerOpMillis),
				fmt.Sprintf("%.2fx", pt.Speedup),
			})
		}
	}
	return rep, []Table{table}, nil
}

// parallelQueries builds the sweep workload: half in-dataset windows
// (perturbed), half out-of-dataset random walks, lengths cycled through the
// indexed set plus one unindexed length to exercise the MatchAny walk.
func parallelQueries(d *ts.Dataset, lengths []int, count int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed * 7919))
	qlens := append(append([]int(nil), lengths...), (lengths[0]+lengths[1])/2)
	out := make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		l := qlens[i%len(qlens)]
		q := make([]float64, l)
		if i%2 == 0 {
			s := d.Series[r.Intn(d.N())]
			start := r.Intn(s.Len() - l + 1)
			copy(q, s.Values[start:start+l])
			for j := range q {
				q[j] += r.NormFloat64() * 0.01
			}
		} else {
			x := r.Float64()
			for j := range q {
				x += r.NormFloat64() * 0.05
				q[j] = x
			}
		}
		out = append(out, q)
	}
	return out
}

// WriteParallelReport serializes the report as indented JSON.
func WriteParallelReport(rep *ParallelReport, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
