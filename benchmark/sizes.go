package main

// Every size the benchmark uses lives in this file; its hash is part of
// each result's envelope, so two results are only ever compared at equal
// sizes. The full table is cut to fit the driver's time cap (a run of ten
// timed seconds, with its set-ups, pass 0 and the oracle, in about twenty
// seconds on two cores): query counts were cut before dataset shapes, and
// the shapes are the smallest at which scanning or refinement, not fixed
// overhead, is most of a query.

// shape is one generated dataset: which generator, how many series of what
// length, and how many subsequence lengths are indexed (spread evenly from
// minLength to the series length).
type shape struct {
	noisy   bool // TwoPattern-like (many groups) or ECG-like (few groups)
	series  int
	length  int
	lengths int
}

const (
	minLength = 8   // shortest indexed (and queried) subsequence length
	st        = 0.2 // similarity threshold of every base (paper Sec. 6.3)
)

// How the seed varies a workload's queries; gen.go gives the reasons.
const (
	populationSeed = 20160901 // the paper's PVLDB issue
	// The first pinned candidates of a draw are asked under every seed (the
	// oracle's queries come from them, so accuracy_pct repeats exactly
	// whatever the seed).
	pinned = 8
	// A draw of fewer queries than this is pinned whole.
	smallFamily = 64
	// The run's seed exchanges about one query in swapOneIn for a spare.
	swapOneIn = 64
)

// embeddedSizes sizes a workload that calls onex.Base directly.
type embeddedSizes struct {
	data        shape
	parallelism int
	shards      int // 0 = unsharded
	workers     int // loopback shard workers (0 = in-process)
	removed     int // series taken out to make out-of-dataset queries
	matchAny    int
	matchExact  int
	knn         int
	k           int
	ranges      int
	radius      float64 // frozen after one calibration, see README
	oracle      int     // queries also answered by baseline.BruteForce

	// Traced run only.
	seasonal int
	knnAny   int
	batch    int
}

type serveSizes struct {
	data         shape
	removed      int
	cacheEntries int // smaller than the distinct keys of one pass
	clients      int
	unique       int
	repeat       int
	hot          int // distinct queries the repeats draw from
	knn          int
	k            int
	ranges       int
	radius       float64
	seasonal     int
	batches      int
	batchItems   int
	jobs         int
	oracle       int
	probes       int // hub hit/miss probes of the traced run
}

type ingestSizes struct {
	few, many    shape
	appends      int // on few
	appendPoints int
	extends      int // on few
	extendSeries int
	manyAppends  int
	cacheEntries int // smaller than readList, so that a read never hits
	readList     int // distinct reads the reader cycles through
	readKNNEvery int // one k-NN and one range per this many reads
	k            int
	radius       float64
	check        int // queries compared before the save and after the reload
	reloads      int
	oracle       int
	swapProbes   int // traced run: appends also timed on the bare base
}

type sizes struct {
	setups       int     // fewest set-ups per run; setup_s is their median
	setupSeconds float64 // set-ups repeat until they have taken this long together
	passes       int     // timed passes when -seconds is 0
	scan         embeddedSizes
	refine       embeddedSizes
	remote       embeddedSizes
	serve        serveSizes
	ingest       ingestSizes
}

var fullSizes = sizes{
	setups:       3,
	setupSeconds: 2,
	passes:       3,
	scan: embeddedSizes{
		data:        shape{noisy: true, series: 80, length: 128, lengths: 8},
		parallelism: 1,
		removed:     8,
		matchAny:    70, matchExact: 70,
		knn: 14, k: 10,
		ranges: 14, radius: 0.003,
		oracle:   8,
		seasonal: 100, knnAny: 4, batch: 32,
	},
	refine: embeddedSizes{
		data:        shape{noisy: false, series: 400, length: 96, lengths: 8},
		parallelism: 1,
		removed:     16,
		matchAny:    112, matchExact: 112,
		knn: 42, k: 10,
		ranges: 28, radius: 0.0015,
		oracle:   8,
		seasonal: 100, knnAny: 16, batch: 32,
	},
	remote: embeddedSizes{
		data:        shape{noisy: false, series: 400, length: 96, lengths: 6},
		parallelism: 2,
		shards:      4,
		workers:     2,
		removed:     16,
		matchAny:    100,
		knn:         20, k: 5,
		ranges: 20, radius: 0.0015,
		oracle: 8,
	},
	serve: serveSizes{
		data:         shape{noisy: false, series: 400, length: 96, lengths: 8},
		removed:      16,
		cacheEntries: 512,
		clients:      2,
		unique:       300,
		repeat:       300, hot: 32,
		knn: 60, k: 10,
		ranges: 42, radius: 0.0015,
		seasonal: 60,
		batches:  60, batchItems: 8,
		jobs:   60,
		oracle: 8,
		probes: 64,
	},
	ingest: ingestSizes{
		few:          shape{noisy: false, series: 260, length: 96, lengths: 6},
		many:         shape{noisy: true, series: 60, length: 128, lengths: 6},
		appends:      60,
		appendPoints: 8,
		extends:      25,
		extendSeries: 4,
		manyAppends:  6,
		cacheEntries: 64,
		readList:     512,
		readKNNEvery: 8,
		k:            10,
		radius:       0.0015,
		check:        20,
		reloads:      3,
		oracle:       8,
		swapProbes:   10,
	},
}

// tinySizes keeps every code path of every workload but finishes all five
// in a few seconds; the self-test runs on it. Its numbers mean nothing.
var tinySizes = sizes{
	setups: 2,
	passes: 2,
	scan: embeddedSizes{
		data:        shape{noisy: true, series: 12, length: 48, lengths: 4},
		parallelism: 1,
		removed:     4,
		matchAny:    6, matchExact: 6,
		knn: 4, k: 3,
		ranges: 4, radius: 0.003,
		oracle:   4,
		seasonal: 4, knnAny: 2, batch: 4,
	},
	refine: embeddedSizes{
		data:        shape{noisy: false, series: 24, length: 48, lengths: 4},
		parallelism: 1,
		removed:     4,
		matchAny:    6, matchExact: 6,
		knn: 4, k: 3,
		ranges: 4, radius: 0.0015,
		oracle:   4,
		seasonal: 4, knnAny: 2, batch: 4,
	},
	remote: embeddedSizes{
		data:        shape{noisy: false, series: 24, length: 48, lengths: 3},
		parallelism: 2,
		shards:      4,
		workers:     2,
		removed:     4,
		matchAny:    8,
		knn:         3, k: 3,
		ranges: 3, radius: 0.0015,
		oracle: 4,
	},
	serve: serveSizes{
		data:         shape{noisy: false, series: 24, length: 48, lengths: 4},
		removed:      4,
		cacheEntries: 32,
		clients:      2,
		unique:       48,
		repeat:       48, hot: 4,
		knn: 4, k: 3,
		ranges: 4, radius: 0.0015,
		seasonal: 4,
		batches:  3, batchItems: 4,
		jobs:   3,
		oracle: 4,
		probes: 8,
	},
	ingest: ingestSizes{
		few:          shape{noisy: false, series: 26, length: 48, lengths: 3},
		many:         shape{noisy: true, series: 10, length: 48, lengths: 3},
		appends:      6,
		appendPoints: 8,
		extends:      5,
		extendSeries: 2,
		manyAppends:  2,
		cacheEntries: 8,
		readList:     32,
		readKNNEvery: 4,
		k:            3,
		radius:       0.0015,
		check:        6,
		reloads:      2,
		oracle:       4,
		swapProbes:   2,
	},
}
