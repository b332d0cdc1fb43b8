// Package core holds what every engine layout shares below the shard layer:
// the build configuration, input normalization (at build and for
// incrementally added data), the amortized-rebuild decision rule and the
// snapshot codec. The engine itself is internal/shard.
package core

import (
	"errors"
	"fmt"
	"math"

	"onex/internal/grouping"
	"onex/internal/query"
	"onex/internal/ts"
)

// NormalizeMode selects how the dataset is normalized before indexing.
type NormalizeMode int

const (
	// NormalizeDataset applies the paper's scheme: min-max over the whole
	// dataset (Sec. 6.1). This is the default.
	NormalizeDataset NormalizeMode = iota
	// NormalizePerSeries min-max scales each series independently.
	NormalizePerSeries
	// NormalizeNone indexes the raw values (the caller already normalized).
	NormalizeNone
)

// BuildConfig aggregates every knob of a build.
type BuildConfig struct {
	// ST is the similarity threshold (normalized-ED units). The paper's
	// experiments use the per-dataset sweet spot ≈ 0.2 (Sec. 6.3).
	ST float64
	// Lengths restricts the indexed subsequence lengths; nil indexes all
	// lengths 2..max as in the paper.
	Lengths []int
	// Seed makes builds reproducible.
	Seed int64
	// Workers bounds build parallelism (0 = GOMAXPROCS).
	Workers int
	// RebuildDrift is the amortized-rebuild threshold of the streaming
	// Append path: when the fraction of members assigned incrementally
	// (since the last full Algorithm 1 run) would exceed this value after an
	// append, the engine re-runs the full build over the final data instead
	// of incrementally assigning — bounding how far the grouping can drift
	// from what a from-scratch build would produce. 0 selects
	// DefaultRebuildDrift; negative disables amortized rebuilds.
	RebuildDrift float64
	// Normalize selects the input normalization.
	Normalize NormalizeMode
	// DcTopK bounds how many nearest-neighbor Dc entries each representative
	// retains per length (rspace.Options.TopK): 0 selects
	// rspace.DefaultTopK, negative retains every entry (the dense-equivalent
	// layout). Purely a memory knob — answers are bit-identical at every
	// setting (see the rspace package doc).
	DcTopK int
	// Query carries the online-processor options.
	Query query.Options
	// Progress, when non-nil, is invoked after each indexed length finishes
	// grouping with (completed, total) counts. Calls are serialized.
	Progress func(done, total int)
	// Cancel, when non-nil, aborts the offline construction between lengths
	// once closed; Build then returns ErrCanceled.
	Cancel <-chan struct{}
}

// ErrCanceled is returned by Build when BuildConfig.Cancel fires before the
// construction completes.
var ErrCanceled = grouping.ErrCanceled

// PrepareDataset validates the input and applies the configured input
// normalization, returning the working dataset (a copy unless mode is
// NormalizeNone) plus the dataset-wide min/max recorded for later
// incremental scaling (zero unless mode is NormalizeDataset).
func PrepareDataset(d *ts.Dataset, mode NormalizeMode) (work *ts.Dataset, normMin, normMax float64, err error) {
	if d == nil {
		return nil, 0, 0, errors.New("core: nil dataset")
	}
	if err := d.Validate(); err != nil {
		return nil, 0, 0, err
	}
	work = d
	switch mode {
	case NormalizeDataset:
		normMin, normMax = d.MinMax()
		work = d.Clone()
		if err := work.NormalizeMinMax(); err != nil {
			return nil, 0, 0, err
		}
	case NormalizePerSeries:
		work = d.Clone()
		if err := work.NormalizeMinMaxPerSeries(); err != nil {
			return nil, 0, 0, err
		}
	case NormalizeNone:
		// Index raw values as provided.
	default:
		return nil, 0, 0, fmt.Errorf("core: unknown normalize mode %d", mode)
	}
	return work, normMin, normMax, nil
}

// DefaultRebuildDrift is the incremental-member fraction at which Append
// amortizes a full rebuild when BuildConfig.RebuildDrift is 0.
const DefaultRebuildDrift = 0.25

func scaleToRange(normMin, normMax float64, values []float64) []float64 {
	scale := 1 / (normMax - normMin)
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = (v - normMin) * scale
	}
	return out
}

// ScaleAppendPoints maps a streamed point batch into the value space an
// engine built with the given normalization indexes: with NormalizeDataset
// the points are scaled with the original dataset's min/max (values outside
// the original range map outside [0,1], which is harmless); NormalizeNone
// copies raw values; NormalizePerSeries bases cannot grow series in time
// (the original per-series scale is not retained) and error.
func ScaleAppendPoints(mode NormalizeMode, normMin, normMax float64, points []float64) ([]float64, error) {
	switch mode {
	case NormalizeDataset:
		return scaleToRange(normMin, normMax, points), nil
	case NormalizePerSeries:
		return nil, errors.New("core: per-series normalized bases cannot grow series in time (the original per-series scale is not retained); rebuild instead")
	default:
		return append([]float64(nil), points...), nil
	}
}

// ScaleNewSeries maps a whole new series into an engine's indexed value
// space — the Extend scaling: dataset-wide min-max uses the min/max recorded
// at build, per-series normalization scales the series by itself (constant
// series error with ts.ErrConstantData), and NormalizeNone copies the raw
// values.
func ScaleNewSeries(mode NormalizeMode, normMin, normMax float64, values []float64) ([]float64, error) {
	switch mode {
	case NormalizeDataset:
		return scaleToRange(normMin, normMax, values), nil
	case NormalizePerSeries:
		min, max := math.Inf(1), math.Inf(-1)
		for _, v := range values {
			min = math.Min(min, v)
			max = math.Max(max, v)
		}
		if max == min {
			return nil, ts.ErrConstantData
		}
		return scaleToRange(min, max, values), nil
	default:
		return append([]float64(nil), values...), nil
	}
}

// RebuildDue applies the amortized-rebuild policy's decision rule: whether
// absorbing newCount more incremental members into a base of total members
// (incremental of them already assigned incrementally) would push the drift
// fraction past the configured threshold (0 selects DefaultRebuildDrift,
// negative disables).
func RebuildDue(threshold float64, total, incremental, newCount int64) bool {
	if threshold == 0 {
		threshold = DefaultRebuildDrift
	}
	grown := total + newCount
	return threshold > 0 && grown > 0 &&
		float64(incremental+newCount)/float64(grown) > threshold
}
