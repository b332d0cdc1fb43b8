// Package dist implements the similarity-distance kernel of ONEX: the
// Euclidean and Dynamic Time Warping distances of Defs. 2–3 with the
// paper's length normalizations (Defs. 5–6) and the Sec. 5.3 pruning
// machinery (warping envelopes, LB_Kim, LB_Keogh, early abandoning).
//
// Conventions shared by every function in the package:
//
//   - Distances live in "root" space: ED and DTW both return the square
//     root of a sum of squared point differences, so ED(x,y) equals the
//     textbook Euclidean distance and DTW(x,y) ≤ ED(x,y) for same-length
//     inputs (the diagonal is a valid warping path). Lower bounds are
//     returned on the same scale and are directly comparable to DTW
//     values.
//   - Early-abandoning variants take a cutoff on that same scale (or in
//     squared units where the name says so) and are exact whenever the
//     result is ≤ the cutoff. Above it they return +Inf as soon as the
//     running total proves the result cannot reach the cutoff, or the
//     exact value; a finite return value is always the exact distance, so
//     a caller's acceptance test against its cutoff reads exact values.
//   - Every accumulation rounds each squared difference before adding it:
//     float64(d*d), never a bare d*d. The Go spec lets a compiler fuse
//     x*y + z into one fused multiply-add (one rounding instead of two),
//     and arm64, ppc64le, riscv64 and s390x do; the explicit conversion
//     forbids it, so every architecture computes the bits amd64 does.
//     scripts/check_fma.sh fails the build where a fused op remains.
//   - DTW is unconstrained (Def. 3). The Sakoe-Chiba band appears only as
//     an envelope radius (Envelope); the banded DTW of the UCR-suite
//     baseline lives beside it in internal/baseline.
package dist

import "math"

// ED returns the Euclidean distance √Σ(aᵢ−bᵢ)² between two equal-length
// sequences (Def. 2).
func ED(a, b []float64) float64 {
	return math.Sqrt(sqED(a, b))
}

// NormalizedED is the length-normalized Euclidean distance ED(a,b)/√n of
// Def. 5 — the scale the similarity threshold ST is stated in.
func NormalizedED(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	return ED(a, b) / math.Sqrt(float64(len(a)))
}

// SquaredEDEarlyAbandon accumulates Σ(aᵢ−bᵢ)² and abandons as soon as the
// running sum exceeds cutoff (also in squared units), returning +Inf. A
// finite return value is the exact squared Euclidean distance; a sum equal
// to the cutoff is not abandoned.
func SquaredEDEarlyAbandon(a, b []float64, cutoff float64) float64 {
	checkSameLength(len(a), len(b))
	var sum float64
	for i, v := range a {
		d := v - b[i]
		sum += float64(d * d)
		if sum > cutoff {
			return math.Inf(1)
		}
	}
	return sum
}

// sqED is the full squared Euclidean distance.
func sqED(a, b []float64) float64 {
	checkSameLength(len(a), len(b))
	var sum float64
	for i, v := range a {
		d := v - b[i]
		sum += float64(d * d)
	}
	return sum
}

func checkSameLength(n, m int) {
	if n != m {
		panic("dist: sequence lengths differ")
	}
}
