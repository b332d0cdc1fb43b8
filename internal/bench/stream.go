package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/query"
	"onex/internal/shard"
)

// StreamReport is the machine-readable payload of the streaming-ingestion
// sweep (BENCH_stream.json): for growing base sizes it compares the cost of
// absorbing a point-append batch incrementally (shard.Engine.Append with the
// amortized rebuild disabled) against a full from-scratch rebuild over the
// final data, and measures single-query latency sustained between appends.
type StreamReport struct {
	GeneratedAt string `json:"generatedAt"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"numcpu"`

	Dataset struct {
		Name    string  `json:"name"`
		Length  int     `json:"length"`
		Lengths []int   `json:"lengths"`
		ST      float64 `json:"st"`
		Seed    int64   `json:"seed"`
	} `json:"dataset"`
	// BatchPoints is the number of points each append batch carries.
	BatchPoints int `json:"batchPoints"`
	// Batches is how many append batches each sweep point absorbs.
	Batches int `json:"batches"`
	Repeats int `json:"repeats"`

	Points []StreamPoint `json:"points"`

	// LargestSpeedup is the best rebuild/append cost ratio across the sweep
	// — the headline incremental-maintenance win. In practice this is the
	// largest setting: the incremental advantage widens with base size.
	LargestSpeedup float64 `json:"largestSpeedup"`
}

// StreamPoint is one sweep setting: a base of Series series absorbing the
// append workload.
type StreamPoint struct {
	// Series is the number of series in the base.
	Series int `json:"series"`
	// Subsequences is the indexed subsequence count before appending.
	Subsequences int64 `json:"subsequences"`
	// AppendSeconds is the best-of-Repeats total wall time of absorbing all
	// batches incrementally (maintenance + index refresh, per-batch swap).
	AppendSeconds float64 `json:"appendSeconds"`
	// AppendPerBatchMillis spreads AppendSeconds over the batches.
	AppendPerBatchMillis float64 `json:"appendPerBatchMillis"`
	// RebuildSeconds is the best-of-Repeats wall time of one full offline
	// rebuild over the final (post-append) data — what each batch would
	// cost without incremental maintenance.
	RebuildSeconds float64 `json:"rebuildSeconds"`
	// Speedup is RebuildSeconds·Batches / AppendSeconds: how much cheaper
	// the incremental path absorbs the whole workload than per-batch
	// rebuilds would.
	Speedup float64 `json:"speedup"`
	// QueryDuringAppendMillis is the mean BestMatch latency of queries
	// interleaved between append batches (the sustained-ingestion read
	// path).
	QueryDuringAppendMillis float64 `json:"queryDuringAppendMillis"`
	// Drift is the incremental-member fraction after the workload.
	Drift float64 `json:"drift"`
}

// RunStreamSweep measures streaming point-append ingestion against full
// rebuilds on growing synthetic bases and verifies the incremental path's
// integrity as it goes (subsequence accounting after every batch). The
// returned table is human-readable; the report is ready for JSON.
func RunStreamSweep(cfg Config) (*StreamReport, []Table, error) {
	cfg.fillDefaults()
	spec := dataset.ECG
	lengths := []int{32, 48, 64}
	const batchPoints = 16
	const batches = 8

	rep := &StreamReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		BatchPoints: batchPoints,
		Batches:     batches,
		Repeats:     cfg.Repeats,
	}
	rep.Dataset.Name = spec.Name
	rep.Dataset.Length = spec.Length
	rep.Dataset.Lengths = lengths
	rep.Dataset.ST = cfg.ST
	rep.Dataset.Seed = cfg.Seed

	sizes := []int{16, 32, 64}
	if cfg.Scale > 1 {
		// Clamp to the generator's cardinality up front so the dedupe sees
		// the size the loop would actually run, then only add a genuinely
		// larger setting (a clamped duplicate would also skew
		// LargestSpeedup's "largest" claim).
		n := int(64 * cfg.Scale)
		if n > spec.N {
			n = spec.N
		}
		if n > sizes[len(sizes)-1] {
			sizes = append(sizes, n)
		}
	}
	table := Table{
		Title: fmt.Sprintf("Streaming append vs rebuild (%s, %d×%d-point batches, GOMAXPROCS=%d)",
			spec.Name, batches, batchPoints, rep.GOMAXPROCS),
		Header: []string{"series", "subseq", "append total s", "per-batch ms", "rebuild s", "speedup", "query ms"},
	}

	for _, n := range sizes {
		sp := spec
		if n > sp.N {
			n = sp.N
		}
		sp.N = n
		data := sp.Generate(cfg.Seed)
		if err := data.NormalizeMinMax(); err != nil {
			return nil, nil, err
		}
		buildCfg := core.BuildConfig{
			ST: cfg.ST, Lengths: lengths, Seed: cfg.Seed,
			Normalize:    core.NormalizeNone, // data pre-normalized above
			RebuildDrift: -1,                 // measure the pure incremental path
		}
		eng, err := shard.Build(data, buildCfg, 0, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: stream build n=%d: %w", n, err)
		}
		pt := StreamPoint{Series: n, Subsequences: eng.TotalSubseq()}

		// The append workload: batches of in-range points round-robined over
		// the series, plus one interleaved query per batch.
		mkBatch := func(b int) (int, []float64) {
			sid := b % data.N()
			src := data.Series[sid].Values
			pts := make([]float64, batchPoints)
			for i := range pts {
				pts[i] = src[(b*7+i)%len(src)]
			}
			return sid, pts
		}
		queries := parallelQueries(data, lengths, batches, cfg.Seed)

		pt.AppendSeconds = math.Inf(1)
		var queryMillis float64
		var finalEng *shard.Engine
		for rpt := 0; rpt < cfg.Repeats; rpt++ {
			cur := eng
			var appendTotal, queryTotal time.Duration
			for b := 0; b < batches; b++ {
				sid, pts := mkBatch(b)
				start := time.Now()
				next, err := cur.Append(sid, pts)
				if err != nil {
					return nil, nil, fmt.Errorf("bench: stream append n=%d batch=%d: %w", n, b, err)
				}
				appendTotal += time.Since(start)
				cur = next
				qs := time.Now()
				if _, err := cur.BestMatch(context.Background(), queries[b], query.MatchAny); err != nil {
					return nil, nil, err
				}
				queryTotal += time.Since(qs)
			}
			if s := appendTotal.Seconds(); s < pt.AppendSeconds {
				pt.AppendSeconds = s
				queryMillis = queryTotal.Seconds() * 1000 / float64(batches)
			}
			finalEng = cur
		}
		pt.QueryDuringAppendMillis = queryMillis
		pt.Drift = finalEng.Drift()

		// Integrity: the incremental base must account for every window of
		// the final data.
		finalData := data.Clone()
		for b := 0; b < batches; b++ {
			sid, pts := mkBatch(b)
			finalData.Series[sid].AppendPoints(pts...)
		}
		if got, want := finalEng.TotalSubseq(), finalData.SubseqCount(lengths); got != want {
			return nil, nil, fmt.Errorf("bench: stream n=%d: incremental base has %d subsequences, want %d", n, got, want)
		}

		// The rebuild reference: one full offline construction over the
		// final data (the cost a rebuild-per-batch design pays every batch).
		pt.RebuildSeconds = math.Inf(1)
		for rpt := 0; rpt < cfg.Repeats; rpt++ {
			start := time.Now()
			if _, err := shard.Build(finalData, buildCfg, 0, nil); err != nil {
				return nil, nil, fmt.Errorf("bench: stream rebuild n=%d: %w", n, err)
			}
			if s := time.Since(start).Seconds(); s < pt.RebuildSeconds {
				pt.RebuildSeconds = s
			}
		}
		pt.AppendPerBatchMillis = pt.AppendSeconds * 1000 / float64(batches)
		pt.Speedup = pt.RebuildSeconds * float64(batches) / pt.AppendSeconds
		rep.Points = append(rep.Points, pt)
		if pt.Speedup > rep.LargestSpeedup {
			rep.LargestSpeedup = pt.Speedup
		}
		cfg.progressf("stream: n=%d append %.4fs (%.2fms/batch) rebuild %.4fs speedup %.1fx",
			n, pt.AppendSeconds, pt.AppendPerBatchMillis, pt.RebuildSeconds, pt.Speedup)

		table.Rows = append(table.Rows, []string{
			fmt.Sprint(pt.Series), fmt.Sprint(pt.Subsequences),
			fmt.Sprintf("%.4f", pt.AppendSeconds),
			fmt.Sprintf("%.3f", pt.AppendPerBatchMillis),
			fmt.Sprintf("%.4f", pt.RebuildSeconds),
			fmt.Sprintf("%.1fx", pt.Speedup),
			fmt.Sprintf("%.3f", pt.QueryDuringAppendMillis),
		})
	}
	return rep, []Table{table}, nil
}

// WriteStreamReport serializes the report as indented JSON.
func WriteStreamReport(rep *StreamReport, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
