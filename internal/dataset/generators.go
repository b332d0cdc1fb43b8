package dataset

import (
	"math"
	"math/rand"
)

// Every product that feeds an addition is rounded explicitly, float64(x*y),
// so no architecture fuses the two into one rounding: a seed generates the
// same bits on every CPU. scripts/check_fma.sh fails on a fused op here.

// gaussianBump adds amplitude·exp(−(i−center)²/(2·width²)) to x.
func gaussianBump(x []float64, center, width, amplitude float64) {
	inv := 1 / (2 * width * width)
	for i := range x {
		d := float64(i) - center
		x[i] += float64(amplitude * math.Exp(-d*d*inv))
	}
}

// addNoise adds iid Gaussian noise with the given standard deviation.
func addNoise(r *rand.Rand, x []float64, sd float64) {
	for i := range x {
		x[i] += float64(r.NormFloat64() * sd)
	}
}

// genItalyPower builds a daily electricity-demand curve: a morning and an
// evening consumption peak over a nightly baseline. Class 0 ("winter") has a
// pronounced evening peak; class 1 ("summer") is flatter with a midday
// cooling bump — matching the two-season structure of ItalyPowerDemand.
func genItalyPower(r *rand.Rand, class, length int) []float64 {
	x := make([]float64, length)
	scale := float64(length) / 24 // generator is phrased in "hours"
	base := 0.8 + float64(0.1*r.NormFloat64())
	for i := range x {
		x[i] = base
	}
	jitter := func(sd float64) float64 { return float64(r.NormFloat64() * sd) }
	if class == 0 {
		gaussianBump(x, float64((8+jitter(0.5))*scale), 1.5*scale, 0.9+float64(0.1*jitter(1)))
		gaussianBump(x, float64((19+jitter(0.5))*scale), 2*scale, 1.4+float64(0.1*jitter(1)))
	} else {
		gaussianBump(x, float64((9+jitter(0.5))*scale), 2*scale, 0.7+float64(0.1*jitter(1)))
		gaussianBump(x, float64((14+jitter(0.7))*scale), 2.5*scale, 0.9+float64(0.1*jitter(1)))
		gaussianBump(x, float64((20+jitter(0.5))*scale), 2*scale, 0.8+float64(0.1*jitter(1)))
	}
	addNoise(r, x, 0.05)
	return x
}

// genECG builds one PQRST heartbeat: P wave, sharp QRS complex, T wave.
// Class 1 (abnormal) inverts the T wave and shifts the QRS, the kind of
// morphological anomaly ECG200 separates.
func genECG(r *rand.Rand, class, length int) []float64 {
	x := make([]float64, length)
	n := float64(length)
	shift := float64(float64(r.NormFloat64()*0.01) * n)
	qrsCenter := float64(0.45*n) + shift
	if class == 1 {
		qrsCenter += float64(0.06 * n)
	}
	// P wave.
	gaussianBump(x, float64(0.25*n)+shift, 0.03*n, 0.25+float64(0.05*r.NormFloat64()))
	// QRS: Q dip, R spike, S dip.
	gaussianBump(x, qrsCenter-float64(0.04*n), 0.012*n, -0.3+float64(0.05*r.NormFloat64()))
	gaussianBump(x, qrsCenter, 0.012*n, 2.2+float64(0.2*r.NormFloat64()))
	gaussianBump(x, qrsCenter+float64(0.04*n), 0.015*n, -0.55+float64(0.05*r.NormFloat64()))
	// T wave, inverted for the abnormal class.
	tAmp := 0.5 + float64(0.08*r.NormFloat64())
	if class == 1 {
		tAmp = -tAmp
	}
	gaussianBump(x, float64(0.72*n)+shift, 0.05*n, tAmp)
	addNoise(r, x, 0.03)
	return x
}

// genFace builds a smooth head-profile contour: a class-specific arrangement
// of forehead/nose/mouth/chin bumps along the outline, as in FaceAll.
func genFace(r *rand.Rand, class, length int) []float64 {
	x := make([]float64, length)
	n := float64(length)
	// Class-specific but deterministic feature layout: derive feature
	// positions from the class index, then perturb per series.
	cls := rand.New(rand.NewSource(int64(class)*7919 + 13))
	nFeatures := 3 + cls.Intn(3)
	for f := 0; f < nFeatures; f++ {
		center := float64((0.1 + float64(0.8*cls.Float64())) * n)
		width := (0.04 + float64(0.06*cls.Float64())) * n
		// Float64 scales by 2⁻⁵³, a product: rounded so the add cannot fuse it.
		amp := 0.5 + float64(cls.Float64())
		if cls.Intn(2) == 0 {
			amp = -amp
		}
		// Per-series perturbation.
		center += float64(float64(r.NormFloat64()*0.01) * n)
		amp *= 1 + float64(0.1*r.NormFloat64())
		gaussianBump(x, center, width, amp)
	}
	// Slow baseline drift common to face contours.
	phase := float64(2 * math.Pi * cls.Float64())
	for i := range x {
		x[i] += float64(0.3 * math.Sin(2*math.Pi*float64(i)/n+phase))
	}
	addNoise(r, x, 0.04)
	return x
}

// genWafer builds a semiconductor process-control trace: flat plateaus
// joined by ramps, with a process spike. The abnormal class (1) has a
// mid-run excursion, as in the Wafer dataset.
func genWafer(r *rand.Rand, class, length int) []float64 {
	x := make([]float64, length)
	n := float64(length)
	levels := []float64{0.2, 1.0, 0.6, 1.2, 0.3}
	edges := []float64{0, 0.15, 0.4, 0.6, 0.85, 1}
	for i := range x {
		pos := float64(i) / n
		seg := 0
		for s := 0; s < len(levels); s++ {
			if pos >= edges[s] && pos < edges[s+1] {
				seg = s
				break
			}
		}
		x[i] = levels[seg]
	}
	// Ramp smoothing: 3-point moving average applied twice.
	for pass := 0; pass < 2; pass++ {
		prev := x[0]
		for i := 1; i < len(x)-1; i++ {
			cur := x[i]
			x[i] = (prev + cur + x[i+1]) / 3
			prev = cur
		}
	}
	// Startup spike.
	gaussianBump(x, float64(0.05*n), 0.01*n, 0.8+float64(0.1*r.NormFloat64()))
	if class == 1 {
		// Fault excursion at a random mid-run position.
		gaussianBump(x, float64((0.45+float64(0.15*r.Float64()))*n), 0.03*n, -0.9+float64(0.1*r.NormFloat64()))
	}
	addNoise(r, x, 0.02)
	return x
}

// genSymbols builds a smooth pen-trajectory channel: a low-frequency
// harmonic mixture whose frequencies and phases are glyph(class)-specific.
func genSymbols(r *rand.Rand, class, length int) []float64 {
	x := make([]float64, length)
	n := float64(length)
	cls := rand.New(rand.NewSource(int64(class)*104729 + 7))
	nHarm := 3
	freqs := make([]float64, nHarm)
	phases := make([]float64, nHarm)
	amps := make([]float64, nHarm)
	for h := 0; h < nHarm; h++ {
		freqs[h] = 1 + float64(3*cls.Float64())
		phases[h] = float64(2 * math.Pi * cls.Float64())
		amps[h] = 1 / float64(h+1)
	}
	pshift := float64(r.NormFloat64() * 0.15)
	ascale := 1 + float64(0.1*r.NormFloat64())
	for i := range x {
		pos := float64(i) / n
		var v float64
		for h := 0; h < nHarm; h++ {
			v += float64(amps[h] * math.Sin(float64(2*math.Pi*freqs[h]*pos)+phases[h]+pshift))
		}
		x[i] = ascale * v
	}
	addNoise(r, x, 0.03)
	return x
}

// genTwoPattern builds the classic TwoPatterns construction: two transient
// patterns — each either upward (low→high) or downward (high→low) — placed
// at random non-overlapping positions over a noise background. The class
// index encodes the pair: 0=UU, 1=UD, 2=DU, 3=DD.
func genTwoPattern(r *rand.Rand, class, length int) []float64 {
	x := make([]float64, length)
	addNoise(r, x, 0.1)
	pattern := func(start int, up bool) {
		width := length / 8
		if width < 2 {
			width = 2
		}
		lo, hi := -1.0, 1.0
		if !up {
			lo, hi = 1.0, -1.0
		}
		for i := 0; i < width && start+i < length; i++ {
			half := width / 2
			if i < half {
				x[start+i] += lo
			} else {
				x[start+i] += hi
			}
		}
	}
	width := length / 8
	firstMax := length/2 - width
	if firstMax < 1 {
		firstMax = 1
	}
	secondMin := length / 2
	secondMax := length - width - 1
	if secondMax < secondMin {
		secondMax = secondMin
	}
	p1 := r.Intn(firstMax)
	p2 := secondMin + r.Intn(secondMax-secondMin+1)
	pattern(p1, class&2 == 0)
	pattern(p2, class&1 == 0)
	return x
}

// genStarLight builds a folded stellar light curve. Three archive classes:
// eclipsing binary (two sharp dips), Cepheid-like sawtooth pulsator, and an
// RR-Lyrae-like asymmetric pulsator.
func genStarLight(r *rand.Rand, class, length int) []float64 {
	x := make([]float64, length)
	n := float64(length)
	phase := float64(r.Float64() * 0.05)
	switch class {
	case 0: // eclipsing binary: baseline with primary and secondary eclipses
		for i := range x {
			x[i] = 1
		}
		gaussianBump(x, float64((0.25+phase)*n), 0.03*n, -0.8+float64(0.05*r.NormFloat64()))
		gaussianBump(x, float64((0.75+phase)*n), 0.03*n, -0.35+float64(0.05*r.NormFloat64()))
	case 1: // Cepheid: fast rise, slow decline (sawtooth + harmonic)
		for i := range x {
			pos := math.Mod(float64(i)/n+phase, 1)
			x[i] = 1 - pos + float64(0.2*math.Sin(4*math.Pi*pos))
		}
	default: // RR Lyrae-like: asymmetric sinusoid mixture
		for i := range x {
			pos := float64(i)/n + phase
			x[i] = math.Sin(2*math.Pi*pos) + float64(0.4*math.Sin(float64(6*math.Pi*pos)+1.3))
		}
	}
	addNoise(r, x, 0.04)
	return x
}

// genRandomWalk builds a unit-step random walk (stock-price stand-in).
func genRandomWalk(r *rand.Rand, _, length int) []float64 {
	x := make([]float64, length)
	v := 0.0
	for i := range x {
		v += r.NormFloat64()
		x[i] = v
	}
	return x
}
