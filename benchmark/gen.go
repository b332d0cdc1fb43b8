package main

import (
	"math/rand"

	"onex"
	"onex/internal/dataset"
	"onex/internal/ts"
)

// What the seed does. A workload's data — the series a base is built over,
// the series held out of it, the candidate queries and their order — is a
// fixed population drawn from populationSeed; the run's seed exchanges
// about one query in swapOneIn of every family of smallFamily queries or
// more for a spare candidate of its stratum (see queries). So every seed
// builds the same base (set-up time and memory repeat up to timing noise)
// and asks a request stream of its own in which position i always holds the
// same kind of query. Drawing everything afresh from the run's seed was
// measured first and is not steady at any affordable size: on the noisy
// shape group counts vary by half and build time by a factor of two between
// seeds, and since latencies within one query family span three orders of
// magnitude (length × in- or out-of-dataset), the p50 of an independently
// drawn sample of 40–140 queries moves by 20–50 % between seeds — beyond
// any bound a change could then be held to. The constants of this design
// (populationSeed, pinned, smallFamily, swapOneIn) are in sizes.go, whose
// hash every result carries.

// inputs is one workload's data. Everything the program under test
// receives comes from here; it never sees a seed.
type inputs struct {
	series  []onex.Series // min-max normalized so that a base's own normalization is the identity
	removed [][]float64   // held-out series, scaled with the kept series' min and max
	lengths []int         // indexed subsequence lengths
	pool    *rand.Rand    // the population's stream: draws candidate queries, the same in every run
	pick    *rand.Rand    // the run's stream: which candidates are asked
	seen    map[subseq]bool
}

type subseq struct{ series, start, length int }

// spreadLengths spreads n lengths evenly over [lo, hi], both ends included.
func spreadLengths(lo, hi, n int) []int {
	if n < 2 || hi <= lo {
		return []int{hi}
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l := lo + i*(hi-lo)/(n-1)
		if len(out) == 0 || l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// generate draws sh.series+removed series from the shape's generator,
// holds `removed` of them out and scales both sets with the kept set's min
// and max. Dividing (not multiplying by a reciprocal) maps the kept
// extremes to exactly 0 and 1, so the dataset-wide normalization every
// onex.Build applies leaves the values bit-identical and queries cut from
// this data live in the base's value space.
func generate(sh shape, removed int, seed int64) *inputs {
	spec := dataset.ECG
	if sh.noisy {
		spec = dataset.TwoPattern
	}
	spec.N = sh.series + removed
	spec.Length = sh.length
	raw := spec.Generate(populationSeed)

	pool := rand.New(rand.NewSource(populationSeed + 1)) // apart from the generator's stream
	out := make(map[int]bool, removed)
	for _, i := range pool.Perm(spec.N)[:removed] {
		out[i] = true
	}
	kept := &ts.Dataset{}
	var gone [][]float64
	for i, s := range raw.Series {
		if out[i] {
			gone = append(gone, s.Values)
		} else {
			kept.Append(s.Label, s.Values)
		}
	}
	lo, hi := kept.MinMax()
	scale := func(v []float64) []float64 {
		w := make([]float64, len(v))
		for i, x := range v {
			w[i] = (x - lo) / (hi - lo)
		}
		return w
	}
	in := &inputs{
		lengths: spreadLengths(minLength, sh.length, sh.lengths),
		pool:    pool,
		pick:    rand.New(rand.NewSource(seed)),
		seen:    map[subseq]bool{},
	}
	for _, s := range kept.Series {
		in.series = append(in.series, onex.Series{Label: s.Label, Values: scale(s.Values)})
	}
	for _, v := range gone {
		in.removed = append(in.removed, scale(v))
	}
	return in
}

// queryLengths are the lengths queries cycle over: the indexed lengths
// without the shortest, as in internal/bench/workload.go (a query of the
// shortest length is degenerate: nearly every window matches it).
func (in *inputs) queryLengths() []int {
	if len(in.lengths) > 1 {
		return in.lengths[1:]
	}
	return in.lengths
}

// dataset views the kept series as the ts.Dataset the baselines and the
// layer probes take.
func (in *inputs) dataset() *ts.Dataset {
	d := &ts.Dataset{Name: "bench"}
	for _, s := range in.series {
		d.Append(s.Label, s.Values)
	}
	return d
}

// kinds says which of the two kinds of query a family draws.
type kinds int

const (
	bothKinds kinds = 2 // alternately in-dataset and out-of-dataset, the paper's mix
	inDataset kinds = 1 // subsequences still in the dataset only
)

// candidates follows internal/bench/workload.go's method (paper Sec.
// 6.2.1): queries alternate between subsequences still in the dataset and
// ones cut from held-out series and jittered in amplitude and offset so
// that no verbatim copy exists; lengths cycle over qlens. A candidate's
// stratum is its (length, kind) pair; strata[i] numbers candidate i's. All
// candidates of one inputs value are distinct, across calls too, so that no
// query meant to miss a result cache repeats an earlier one.
func (in *inputs) candidates(n int, qlens []int, k kinds) (qs [][]float64, strata []int) {
	for i := 0; len(qs) < n; i++ {
		stratum := i % (int(k) * len(qlens))
		l := qlens[stratum/int(k)]
		if stratum%int(k) == 0 {
			sid := in.pool.Intn(len(in.series))
			v := in.series[sid].Values
			start := in.pool.Intn(len(v) - l + 1)
			k := subseq{sid, start, l}
			// Taken already: draw again, so that the strata stay in step. A
			// stratum all but exhausted (sizes far too small) keeps a repeat.
			for tries := 0; in.seen[k] && tries < 64; tries++ {
				k.series, k.start = in.pool.Intn(len(in.series)), in.pool.Intn(len(v)-l+1)
			}
			in.seen[k] = true
			qs = append(qs, append([]float64(nil), in.series[k.series].Values[k.start:k.start+l]...))
		} else {
			v := in.removed[in.pool.Intn(len(in.removed))]
			start := in.pool.Intn(len(v) - l + 1)
			amp := 0.6 + 0.8*in.pool.Float64()
			off := -0.2 + 0.4*in.pool.Float64()
			q := make([]float64, l)
			for j := range q {
				q[j] = v[start+j]*amp + off
			}
			qs = append(qs, q)
		}
		strata = append(strata, stratum)
	}
	return qs, strata
}

// pinnedOf is how many of a draw of n queries are pinned: all of a small
// family's. The median of a few dozen k-NN or range queries, whose
// latencies lie decades apart, moves by a rank with every exchange (on
// remote, from 25 ms to 11 ms), so the seed varies the match streams only.
func pinnedOf(n int) int {
	if n < smallFamily {
		return n
	}
	return pinned
}

// queries draws n candidates and one spare per stratum, and lets the run's
// seed put a spare in the place of one candidate of its stratum, never of
// one of the first pinnedOf(n); a stratum of m candidates takes its spare m
// times in swapOneIn, so the seed changes the same share of a small family
// as of a large one (the median of a dozen range queries moves by a rank
// with every exchange). The sample is
// stratified because latencies differ by orders of magnitude between strata
// and little within one: under every seed position i of the list holds a
// query of the same (length, kind), so a family's percentiles sit in the
// same stratum, and in serve a request has the same kind of neighbours,
// whichever candidates were asked.
func (in *inputs) queries(n int, qlens []int, k kinds) [][]float64 {
	nStrata := int(k) * len(qlens)
	cand, strata := in.candidates(n+nStrata, qlens, k)
	members := make([][]int, nStrata)
	for i := pinnedOf(n); i < n; i++ {
		members[strata[i]] = append(members[strata[i]], i)
	}
	qs := cand[:n:n]
	for spare := n; spare < len(cand); spare++ {
		m := members[strata[spare]]
		if len(m) > 0 && in.pick.Intn(swapOneIn) < len(m) {
			qs[m[in.pick.Intn(len(m))]] = cand[spare]
		}
	}
	return qs
}
