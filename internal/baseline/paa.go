package baseline

import (
	"errors"
	"fmt"
	"math"

	"onex/internal/dist"
	"onex/internal/ts"
)

// PAA is the Keogh & Pazzani PDTW baseline [19]: every candidate
// subsequence is reduced by Piecewise Aggregate Approximation (each frame of
// `compression` consecutive points replaced by its mean) and DTW is
// evaluated in the reduced space. The search is approximate: the winner in
// reduced space need not be the true best match, which is exactly the
// accuracy/time trade-off Table 3 and Fig. 2 report.
type PAA struct {
	d           *ts.Dataset
	compression int
	lengths     []int
	// reduced[li] holds the reduced vectors of all subsequences of
	// lengths[li], flattened; index[li] maps entry → (series, start).
	reduced [][]float64
	index   [][2]int32
	offsets []int // entry ranges per length: entries of lengths[li] are index[offsets[li]:offsets[li+1]]
	rdims   []int // reduced dimension per length
}

// DefaultCompression is the PDTW frame size used when 0 is passed: the
// 1-to-8 compression Keogh & Pazzani report as a good accuracy/speed spot.
const DefaultCompression = 8

// NewPAA precomputes the reduced representation of every subsequence of the
// given lengths (nil = all lengths 2..max, matching BruteForce).
func NewPAA(d *ts.Dataset, lengths []int, compression int) (*PAA, error) {
	if d == nil || d.N() == 0 {
		return nil, errors.New("baseline: empty dataset")
	}
	if compression == 0 {
		compression = DefaultCompression
	}
	if compression < 1 {
		return nil, fmt.Errorf("baseline: invalid PAA compression %d", compression)
	}
	if lengths == nil {
		maxLen := d.MaxLen()
		for l := 2; l <= maxLen; l++ {
			lengths = append(lengths, l)
		}
	}
	p := &PAA{d: d, compression: compression, lengths: lengths}
	p.offsets = make([]int, 0, len(lengths)+1)
	p.offsets = append(p.offsets, 0)
	for _, l := range lengths {
		if l < 1 {
			return nil, fmt.Errorf("baseline: invalid length %d", l)
		}
		rd := reducedDim(l, compression)
		p.rdims = append(p.rdims, rd)
		var flat []float64
		for _, s := range d.Series {
			for j := 0; j+l <= s.Len(); j++ {
				flat = Reduce(flat, s.Values[j:j+l], compression)
				p.index = append(p.index, [2]int32{int32(s.ID), int32(j)})
			}
		}
		p.reduced = append(p.reduced, flat)
		p.offsets = append(p.offsets, len(p.index))
	}
	if len(p.index) == 0 {
		return nil, errors.New("baseline: no candidate subsequences at the requested lengths")
	}
	return p, nil
}

// reducedDim is ⌈l/compression⌉.
func reducedDim(l, compression int) int {
	return (l + compression - 1) / compression
}

// Reduce appends the PAA reduction of x (frame means, last frame possibly
// short) to dst and returns it.
func Reduce(dst, x []float64, compression int) []float64 {
	for i := 0; i < len(x); i += compression {
		end := i + compression
		if end > len(x) {
			end = len(x)
		}
		var sum float64
		for _, v := range x[i:end] {
			sum += v
		}
		dst = append(dst, sum/float64(end-i))
	}
	return dst
}

// BestMatch returns the candidate whose reduced-space DTW to the reduced
// query is minimal. Dist/RawDTW report the full-resolution DTW between the
// query and that candidate (the value the accuracy metric inspects).
func (p *PAA) BestMatch(q []float64) (Match, error) {
	if err := validateQuery(q); err != nil {
		return Match{}, err
	}
	rq := Reduce(nil, q, p.compression)
	var ws dist.Workspace
	bestScore := math.Inf(1)
	var bestLoc [2]int32
	bestLen := 0
	for li, l := range p.lengths {
		rd := p.rdims[li]
		flat := p.reduced[li]
		div := dist.NormalizedDTWDivisor(len(rq), rd)
		for e := 0; e*rd < len(flat); e++ {
			cand := flat[e*rd : (e+1)*rd]
			// Exact whenever raw ≤ bestScore·div, all that score < bestScore
			// can accept (as in BruteForce).
			raw := ws.DTWEarlyAbandon(rq, cand, bestScore*div)
			if score := raw / div; score < bestScore {
				bestScore = score
				bestLoc = p.index[p.offsets[li]+e]
				bestLen = l
			}
		}
	}
	if bestLen == 0 {
		return Match{}, errors.New("baseline: PAA found no candidate")
	}
	sid, start := int(bestLoc[0]), int(bestLoc[1])
	v := p.d.Series[sid].Values[start : start+bestLen]
	raw := dist.DTW(q, v)
	return Match{
		SeriesID: sid,
		Start:    start,
		Length:   bestLen,
		Dist:     raw / dist.NormalizedDTWDivisor(len(q), bestLen),
		RawDTW:   raw,
	}, nil
}
