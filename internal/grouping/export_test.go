package grouping

// Hooks for this package's external tests (package grouping_test), which
// import packages that themselves import grouping.

// GoldenData, GoldenGrow, GoldenPartial and GoldenExtendFrom are the golden
// fixtures of golden_test.go.
var (
	GoldenData    = goldenData
	GoldenGrow    = goldenGrow
	GoldenPartial = goldenPartial
)

const GoldenExtendFrom = goldenExtendFrom

// GoldenConfig is the golden build and maintenance configuration.
func GoldenConfig(workers int) Config {
	return Config{ST: goldenST, Lengths: goldenLengths, Seed: goldenSeed, Workers: workers}
}

// Digest is the golden digest of r with every float bit.
func Digest(r *Result) uint64 {
	g := newDigester()
	g.result(r, true)
	return g.h.Sum64()
}

// Finalized reports whether g carries no running sum, as a group of a Result
// does once finalized.
func Finalized(g *Group) bool { return g.sum == nil }
