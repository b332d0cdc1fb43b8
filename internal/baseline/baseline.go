// Package baseline implements the three comparison systems of the paper's
// evaluation (Sec. 6.1):
//
//   - BruteForce: the "Standard DTW" exact search computing (early-abandoned
//     but admissible) DTW against every candidate subsequence; it doubles as
//     the accuracy ground truth.
//   - PAA: the Keogh & Pazzani PDTW approximation [19] — DTW evaluated over
//     piecewise-aggregate-reduced series.
//   - Trillion: the UCR-suite searcher [22] — same-length sliding-window
//     search with the LB_KimFL → LB_Keogh cascade, query reordering, and
//     early abandoning.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"onex/internal/dist"
	"onex/internal/ts"
)

// Match locates a returned subsequence. Dist is the normalized DTW (Def. 6)
// between the query and the match measured in the dataset's own value space
// — the quantity the paper's accuracy metric compares across systems.
type Match struct {
	SeriesID, Start, Length int
	Dist                    float64
	// RawDTW is the unnormalized Def. 3 distance in data space.
	RawDTW float64
}

// Found reports whether the match is populated.
func (m Match) Found() bool { return m.Length > 0 }

func validateQuery(q []float64) error {
	if len(q) == 0 {
		return errors.New("baseline: empty query")
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("baseline: non-finite query value at %d", i)
		}
	}
	return nil
}

// BruteForce is the Standard DTW baseline: an exhaustive scan guaranteeing
// the best match. Early abandoning against the best-so-far keeps it usable
// as the ground truth on bench scales without affecting exactness.
type BruteForce struct {
	d *ts.Dataset
}

// NewBruteForce wraps a dataset for exact scanning.
func NewBruteForce(d *ts.Dataset) (*BruteForce, error) {
	if d == nil || d.N() == 0 {
		return nil, errors.New("baseline: empty dataset")
	}
	return &BruteForce{d: d}, nil
}

// Scale normalizes a raw DTW value so matches of different candidate
// lengths are commensurate: the reported distance is rawDTW / Scale(m, n)
// for a length-m query and a length-n candidate.
type Scale func(qLen, cLen int) float64

// Def6Scale is the paper's Def. 6 normalization, 2·max(m,n) — the scale the
// ST/2 retrieval guarantee is stated in.
func Def6Scale(qLen, cLen int) float64 {
	return dist.NormalizedDTWDivisor(qLen, cLen)
}

// PerPointScale is √max(m,n): the scale on which normalized-ED-like
// magnitudes live. The benchmark accuracy metric uses it because Def. 6's
// division by 2n compresses every error toward zero, hiding the accuracy
// differences the paper's Tables 2–3 report.
func PerPointScale(qLen, cLen int) float64 {
	if cLen > qLen {
		qLen = cLen
	}
	return math.Sqrt(float64(qLen))
}

// BestMatchSameLength returns the exact best match among subsequences of
// the query's own length (normalized DTW).
func (bf *BruteForce) BestMatchSameLength(q []float64) (Match, error) {
	return bf.BestMatch(q, []int{len(q)})
}

// BestMatch returns the exact best match among subsequences of the given
// lengths under the Def. 6 scale. A nil lengths slice scans every length
// from 2 to the longest series — the full Nn(n−1)/2 search the paper calls
// prohibitive; callers should pass the same length set the other systems
// index.
func (bf *BruteForce) BestMatch(q []float64, lengths []int) (Match, error) {
	return bf.BestMatchScale(q, lengths, Def6Scale)
}

// BestMatchScale is BestMatch under a caller-chosen length normalization.
func (bf *BruteForce) BestMatchScale(q []float64, lengths []int, scale Scale) (Match, error) {
	if err := validateQuery(q); err != nil {
		return Match{}, err
	}
	if lengths == nil {
		maxLen := bf.d.MaxLen()
		for l := 2; l <= maxLen; l++ {
			lengths = append(lengths, l)
		}
	}
	// Visit lengths nearest the query's own length first: the closest
	// candidates tend to live there, so the early-abandon cutoff tightens
	// immediately instead of after a long scan of degenerate lengths. The
	// scan stays exact — only the abandon effectiveness changes.
	lengths = append([]int(nil), lengths...)
	sort.Slice(lengths, func(a, b int) bool {
		da, db := lengths[a]-len(q), lengths[b]-len(q)
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		if da != db {
			return da < db
		}
		return lengths[a] < lengths[b]
	})
	var ws dist.Workspace
	best := Match{Dist: math.Inf(1)}
	for _, l := range lengths {
		if l < 1 {
			return Match{}, fmt.Errorf("baseline: invalid length %d", l)
		}
		div := scale(len(q), l)
		// Convert the global normalized best into this length's raw cutoff.
		for _, s := range bf.d.Series {
			for j := 0; j+l <= s.Len(); j++ {
				// The kernel is exact whenever raw ≤ cutoff (and a little
				// past it), so raw/div < best.Dist only ever reads an
				// exact raw.
				cutoff := best.Dist * div
				raw := ws.DTWEarlyAbandon(q, s.Values[j:j+l], cutoff)
				if nd := raw / div; nd < best.Dist {
					best = Match{SeriesID: s.ID, Start: j, Length: l, Dist: nd, RawDTW: raw}
				}
			}
		}
	}
	if !best.Found() {
		return Match{}, errors.New("baseline: no candidate subsequences at the requested lengths")
	}
	return best, nil
}
