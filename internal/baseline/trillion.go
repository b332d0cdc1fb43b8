package baseline

import (
	"errors"
	"fmt"
	"math"

	"onex/internal/dist"
	"onex/internal/ts"
)

// TrillionConfig tunes the UCR-suite searcher.
type TrillionConfig struct {
	// WindowFrac is the Sakoe-Chiba band half-width as a fraction of the
	// query length. 0 selects DefaultWindowFrac; values ≥ 1 disable the
	// constraint (full DTW).
	WindowFrac float64
	// RawSpace disables the UCR suite's per-window z-normalization and
	// searches in the dataset's own value space. The suite always
	// z-normalizes; the option exists for the exactness tests and for
	// ablations.
	RawSpace bool
}

// DefaultWindowFrac is the 5% warping band the UCR suite commonly runs with.
const DefaultWindowFrac = 0.05

// Trillion reimplements the search loop of "Searching and Mining Trillions
// of Time Series Subsequences under Dynamic Time Warping" [22]: an exact
// same-length sliding-window search with per-window z-normalization and the
// optimization cascade — query reordering, LB_KimFL, LB_Keogh against the
// query envelope with early abandoning, then early-abandoning constrained
// DTW. Like the original, it can only answer best-match queries of the
// query's own length (Sec. 6.2.2 explains why it is omitted from seasonal
// experiments).
type Trillion struct {
	d   *ts.Dataset
	cfg TrillionConfig
}

// NewTrillion wraps a dataset for UCR-suite search.
func NewTrillion(d *ts.Dataset, cfg TrillionConfig) (*Trillion, error) {
	if d == nil || d.N() == 0 {
		return nil, errors.New("baseline: empty dataset")
	}
	if cfg.WindowFrac < 0 || math.IsNaN(cfg.WindowFrac) {
		return nil, fmt.Errorf("baseline: invalid window fraction %v", cfg.WindowFrac)
	}
	if cfg.WindowFrac == 0 {
		cfg.WindowFrac = DefaultWindowFrac
	}
	return &Trillion{d: d, cfg: cfg}, nil
}

// BestMatch returns the best same-length match for q. The internal search
// score is (z-normalized, band-constrained) DTW per the UCR suite; the
// returned Dist/RawDTW are the full-resolution unconstrained DTW between q
// and the winning window in data space, which is what the paper's accuracy
// metric measures for every system.
func (t *Trillion) BestMatch(q []float64) (Match, error) {
	if err := validateQuery(q); err != nil {
		return Match{}, err
	}
	m := len(q)
	window := m // a band as wide as the query is unconstrained DTW
	if t.cfg.WindowFrac < 1 {
		window = int(t.cfg.WindowFrac * float64(m))
	}
	envRadius := window

	qn := q
	if !t.cfg.RawSpace {
		qn = ts.ZNormalize(nil, q)
	}
	order := dist.QueryOrder(qn)
	envU, envL := dist.Envelope(qn, envRadius, nil, nil)

	prev, curr := make([]float64, m+1), make([]float64, m+1) // banded DTW rows
	buf := make([]float64, m)
	bsf := math.Inf(1)
	bestSID, bestStart := -1, 0

	var envDU, envDL []float64 // reusable data-envelope buffers
	for _, s := range t.d.Series {
		if s.Len() < m {
			continue
		}
		// Prefix sums for O(1) window mean/std (UCR-suite trick).
		var sums, sqSums []float64
		if !t.cfg.RawSpace {
			sums = make([]float64, s.Len()+1)
			sqSums = make([]float64, s.Len()+1)
			for i, v := range s.Values {
				sums[i+1] = sums[i] + v
				sqSums[i+1] = sqSums[i] + float64(v*v)
			}
		}
		// Data-side envelope (LB_Keogh EC): computed once per series on the
		// raw values; per-window z-normalization is affine with positive
		// scale, so it commutes with the min/max envelope and the bound
		// stays admissible after normalizing envelope values on the fly.
		envDU, envDL = dist.Envelope(s.Values, envRadius, envDU, envDL)
		for j := 0; j+m <= s.Len(); j++ {
			win := s.Values[j : j+m]
			var mean, invStd float64
			zero := false
			if !t.cfg.RawSpace {
				n := float64(m)
				mean = (sums[j+m] - sums[j]) / n
				variance := (sqSums[j+m]-sqSums[j])/n - float64(mean*mean)
				if variance <= 0 {
					zero = true
				} else {
					invStd = 1 / math.Sqrt(variance)
				}
			}
			norm := func(v float64) float64 {
				if t.cfg.RawSpace {
					return v
				}
				if zero {
					return 0
				}
				return (v - mean) * invStd
			}

			// Cascade step 1: LB_KimFL on the first/last points.
			dF := qn[0] - norm(win[0])
			dL := qn[m-1] - norm(win[m-1])
			if math.Sqrt(float64(dF*dF)+float64(dL*dL)) >= bsf {
				continue
			}
			// Cascade step 2: LB_Keogh of the candidate against the query
			// envelope, visited in reordered (most-extreme-first) order.
			if lbKeoghCandidate(win, envU, envL, order, norm, bsf) >= bsf {
				continue
			}
			// Cascade step 3: LB_Keogh EC — the query against the data-side
			// envelope of this window.
			if lbKeoghData(qn, envDU[j:j+m], envDL[j:j+m], order, norm, bsf) >= bsf {
				continue
			}
			// Cascade step 4: early-abandoning (constrained) DTW.
			cand := win
			if !t.cfg.RawSpace {
				for i, v := range win {
					buf[i] = norm(v)
				}
				cand = buf
			}
			d := bandedDTW(qn, cand, window, bsf, prev, curr)
			if d < bsf {
				bsf = d
				bestSID, bestStart = s.ID, j
			}
		}
	}
	if bestSID < 0 {
		return Match{}, errors.New("baseline: no window as long as the query")
	}
	winBest := t.d.Series[bestSID].Values[bestStart : bestStart+m]
	raw := dist.DTW(q, winBest)
	return Match{
		SeriesID: bestSID,
		Start:    bestStart,
		Length:   m,
		Dist:     raw / dist.NormalizedDTWDivisor(m, m),
		RawDTW:   raw,
	}, nil
}

// bandedDTW is the Sakoe-Chiba-banded DTW (|i−j| ≤ window) of two
// equal-length sequences with UCR-suite early abandoning: the dynamic
// program runs over rows of squared costs, and as soon as every cell of a
// row is above cutoff² no path can finish below cutoff and +Inf is returned.
// A finite result is the exact banded distance. prev and curr are scratch
// rows of length ≥ len(q)+1. The serving kernel, dist.DTWEarlyAbandon, is
// unconstrained; only the UCR-suite baseline runs a band. The baseline keeps
// the suite's plain per-row abandon on purpose: the serving kernel's column
// window and its row thresholds charged for the end cell and its cheapest
// predecessor are ONEX's engineering, not the UCR suite's, and the
// comparison measures the suite as published.
func bandedDTW(q, c []float64, window int, cutoff float64, prev, curr []float64) float64 {
	n := len(q)
	cutoffSq := cutoff * cutoff // +Inf cutoff stays +Inf
	inf := math.Inf(1)
	for j := range prev[:n+1] {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		jLo, jHi := max(1, i-window), min(n, i+window)
		// Cells just outside the band must read as unreachable for the
		// next row (which may look one column left or right).
		curr[jLo-1] = inf
		if jHi < n {
			curr[jHi+1] = inf
		}
		rowMin := inf
		qi := q[i-1]
		diag := prev[jLo-1]
		left := inf
		for j := jLo; j <= jHi; j++ {
			pj := prev[j]
			best := pj       // q advances alone
			if diag < best { // both advance
				best = diag
			}
			if left < best { // c advances alone
				best = left
			}
			d := qi - c[j-1]
			acc := best + float64(d*d)
			curr[j] = acc
			if acc < rowMin {
				rowMin = acc
			}
			diag = pj
			left = acc
		}
		if rowMin > cutoffSq {
			return inf
		}
		prev, curr = curr, prev
	}
	return math.Sqrt(prev[n])
}

// lbKeoghData is LB_Keogh with the envelope around the *candidate window*
// (the UCR suite's LB_Keogh EC / lb_keogh2): query points falling outside
// the window's normalized data envelope accumulate squared excursions.
func lbKeoghData(qn, rawU, rawL []float64, order []int, norm func(float64) float64, cutoff float64) float64 {
	cutoffSq := cutoff * cutoff
	var sum float64
	for _, i := range order {
		u, l := norm(rawU[i]), norm(rawL[i])
		v := qn[i]
		if v > u {
			d := v - u
			sum += float64(d * d)
		} else if v < l {
			d := l - v
			sum += float64(d * d)
		}
		if sum > cutoffSq {
			return math.Inf(1)
		}
	}
	return math.Sqrt(sum)
}

// lbKeoghCandidate is LB_Keogh with the envelope around the *query* (the
// UCR suite's LB_Keogh EQ): candidate points falling outside [envL, envU]
// accumulate squared excursions. norm maps raw candidate values into the
// search space lazily so windows pruned here never materialize.
func lbKeoghCandidate(win, envU, envL []float64, order []int, norm func(float64) float64, cutoff float64) float64 {
	cutoffSq := cutoff * cutoff
	var sum float64
	for _, i := range order {
		v := norm(win[i])
		if v > envU[i] {
			d := v - envU[i]
			sum += float64(d * d)
		} else if v < envL[i] {
			d := envL[i] - v
			sum += float64(d * d)
		}
		if sum > cutoffSq {
			return math.Inf(1)
		}
	}
	return math.Sqrt(sum)
}
