// Package grouping implements Algorithm 1 of the paper: the one-pass
// construction of ONEX similarity groups. Subsequences of each length are
// visited in randomized order; each joins the group whose representative is
// nearest in (normalized) Euclidean distance provided that distance is
// within ST/2, and otherwise founds a new group with itself as the first
// representative. Representatives are maintained as running point-wise
// averages (Def. 7).
//
// One loop (assign, over one nearest-representative test, nearest) and one
// freeze step (finalize) serve every caller: Build and its chunk merge,
// the incremental maintenance of Extend and AppendPoints, and threshold
// adaptation (Adapt, Algorithm 2.C), which splits groups by re-running the
// loop inside each one and merges them by count-weighted averages.
//
// nearest puts a PAA lower bound in front of each representative's
// early-abandoned ED (paa.go): eight scaled segment sums per window, whose
// squared differences sum to at most the squared ED (Cauchy–Schwarz). A
// representative is skipped only when its bound exceeds the running cutoff
// by a rounding margin proven at every data magnitude, so it is one the ED
// would have abandoned, and every grouping keeps its bits. The bounds live
// in a table per assign call or chunk merge, with rows only for the groups
// that call founds, recomputed from Rep on each absorb and dropped before
// finalize; groups that existed before an append or extend keep the plain
// loop. The SP-Space MST (MergeThresholdsFor) reuses the bound.
//
// The three Def. 8 properties hold by construction for the radius test; note
// that, exactly as in the paper, representatives drift as members join, so
// property (2) is enforced against the representative at insertion time.
// Lemma 1's pairwise bound is validated statistically in the tests.
package grouping

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"onex/internal/dist"
	"onex/internal/parallel"
	"onex/internal/ts"
)

// Config controls a build.
type Config struct {
	// ST is the similarity threshold in normalized-ED units (Def. 5); the
	// grouping radius is ST/2. Must be > 0.
	ST float64
	// Lengths lists the subsequence lengths to decompose into. nil means
	// every length from 2 to the longest series, the paper's default.
	Lengths []int
	// Seed drives RANDOMIZE-IN-PLACE and all tie-breaking; builds are
	// deterministic given (dataset, Config).
	Seed int64
	// Workers bounds construction parallelism, both across lengths and
	// across the series-chunks within a length. ≤ 0 means GOMAXPROCS. The
	// built Result is identical for every worker count given the same
	// (dataset, ST, Lengths, Seed): the chunk layout depends only on the
	// data, chunk construction is a pure function of its positions, and the
	// cross-chunk merge is sequential in fixed chunk order.
	Workers int
	// Progress, when non-nil, is called after each length finishes grouping
	// with the number of completed lengths and the total. Calls are
	// serialized; done is strictly increasing from 1 to total.
	Progress func(done, total int)
	// Cancel, when non-nil, aborts the build between lengths once closed:
	// Build returns ErrCanceled instead of a Result. Work already done is
	// discarded; the input dataset is never modified either way.
	Cancel <-chan struct{}
}

// ErrCanceled is returned by Build when Config.Cancel is closed before the
// construction finishes.
var ErrCanceled = errors.New("grouping: build canceled")

// Member identifies one subsequence (Xp)^i_j inside a group and caches its
// normalized ED to the group's final representative (the LSI sort key,
// Sec. 4.3).
type Member struct {
	// SeriesIdx indexes the dataset's Series slice (the paper's p).
	SeriesIdx int
	// Start is the subsequence's starting position (the paper's j).
	Start int
	// EDToRep is the normalized ED to the final representative.
	EDToRep float64
}

// Group is one ONEX similarity group G^i_k: same-length subsequences within
// ST/2 of their point-wise-average representative. A finalized group (every
// group a Result holds) is immutable: incremental maintenance shares the
// groups it did not change between the old Result and the new one.
type Group struct {
	// Length is the subsequence length i shared by every member.
	Length int
	// ID is the group's index within its length (the paper's k).
	ID int
	// Rep is the representative R^i_k: the point-wise average of members.
	Rep []float64
	// Members lists the subsequences, sorted ascending by EDToRep after
	// Finalize (the LSI order used by the Sec. 5.3 pivot search).
	Members []Member

	sum []float64 // running point-wise sum backing Rep
}

// Count returns the number of member subsequences.
func (g *Group) Count() int { return len(g.Members) }

// absorb adds members whose values sum point-wise to sum, keeping Rep the
// exact point-wise average of the combined membership.
func (g *Group) absorb(sum []float64, members ...Member) {
	g.Members = append(g.Members, members...)
	for i, v := range sum {
		g.sum[i] += v
	}
	n := float64(len(g.Members))
	for i := range g.Rep {
		g.Rep[i] = g.sum[i] / n
	}
}

// thaw returns a mutable copy of a finalized group: its own Rep and
// Members, and the running sum rebuilt as Rep·count. A finalized group is
// immutable and may be shared between Results, so the loop thaws one before
// its first write (copy on write).
func thaw(g *Group) *Group {
	sum := make([]float64, len(g.Rep))
	for j, v := range g.Rep {
		sum[j] = v * float64(g.Count())
	}
	return &Group{
		Length:  g.Length,
		ID:      g.ID,
		Rep:     append([]float64(nil), g.Rep...),
		Members: append([]Member(nil), g.Members...),
		sum:     sum,
	}
}

// finalize freezes a group whose members are in join order: setEDs, then
// the LSI sort, then the running sum is dropped. A finalized group is never
// written again.
func (g *Group) finalize(d *ts.Dataset) {
	g.setEDs(d)
	sortMembers(g.Members)
	g.sum = nil
}

// refinalize freezes a thawed group whose first old members are still in
// their previous LSI order, followed by the windows that joined since, in
// join order: keys moved only as far as the representative did, so
// resortMembers restores the order in about linear time. scratch is a
// reusable buffer; the grown one is returned.
func (g *Group) refinalize(d *ts.Dataset, old int, scratch []Member) []Member {
	g.setEDs(d)
	scratch = resortMembers(g.Members, old, scratch)
	g.sum = nil
	return scratch
}

// setEDs recomputes each member's EDToRep against the final representative:
// the running average drifted as members joined.
func (g *Group) setEDs(d *ts.Dataset) {
	invSqrtL := 1 / math.Sqrt(float64(g.Length))
	for mi := range g.Members {
		m := &g.Members[mi]
		m.EDToRep = dist.ED(MemberValues(d, g, *m), g.Rep) * invSqrtL
	}
}

// LSIOrderBreak returns the index of the first member of ms whose distance
// to the representative is NaN, negative or infinite, or below the previous
// member's, and −1 when ms is in the LSI order a finalized group keeps. A
// decoded snapshot and a shipped shard are both checked by it, so a group
// one of them refuses, the other refuses too.
func LSIOrderBreak(ms []Member) int {
	prev := 0.0
	for i, m := range ms {
		if !(prev <= m.EDToRep && m.EDToRep < math.Inf(1)) {
			return i
		}
		prev = m.EDToRep
	}
	return -1
}

// sortMembers puts members into the LSI order, ascending by EDToRep. The
// sort is not stable: the order of equal keys is the one sort.Slice gives
// this input, and the golden digests pin it.
func sortMembers(ms []Member) {
	sort.Slice(ms, func(a, b int) bool {
		return ms[a].EDToRep < ms[b].EDToRep
	})
}

// resortMovesPerMember is insertionSort's move budget per old member in
// resortMembers: it keeps the re-sort within a constant factor of a linear
// pass. Over the benchmark's streaming write script (ingest), old members
// moved 1.25 places on average, and no group spent its budget.
const resortMovesPerMember = 16

// resortMembers leaves ms exactly as sortMembers would, in time linear in
// len(ms) when ms[:old] is nearly sorted and the rest, ms[old:], is short.
// It insertion-sorts ms[:old] on a budget of resortMovesPerMember·old
// moves, sorts a copy of ms[old:] and merges the two. When that ends with
// keys strictly ascending, the sorted order is unique, so it is
// sortMembers' too. Otherwise (a tie, a NaN, or the budget spent) ms gets
// its input order back and sortMembers runs on it. scratch is a reusable
// buffer; the grown one is returned.
func resortMembers(ms []Member, old int, scratch []Member) []Member {
	scratch = append(append(scratch[:0], ms...), ms[old:]...)
	input, joined := scratch[:len(ms)], scratch[len(ms):]
	if !insertionSort(ms[:old], resortMovesPerMember*old) || !mergeJoined(ms, old, joined) {
		copy(ms, input)
		sortMembers(ms)
	}
	return scratch
}

// insertionSort sorts ms ascending by EDToRep and reports whether it did
// so within budget moves; it gives up, leaving ms permuted, once more have
// moved.
func insertionSort(ms []Member, budget int) bool {
	moves := 0
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i
		for ; j > 0 && m.EDToRep < ms[j-1].EDToRep; j-- {
			ms[j] = ms[j-1]
		}
		ms[j] = m
		if moves += i - j; moves > budget {
			return false
		}
	}
	return true
}

// mergeJoined sorts joined, a copy of ms[old:], and merges it from the back
// with the ascending ms[:old] into ms. It reports whether every key of the
// result is strictly above the one before it.
func mergeJoined(ms []Member, old int, joined []Member) bool {
	slices.SortFunc(joined, func(a, b Member) int { return cmp.Compare(a.EDToRep, b.EDToRep) })
	i := old - 1
	for w, j := len(ms)-1, len(joined)-1; j >= 0; w-- {
		if i >= 0 && ms[i].EDToRep > joined[j].EDToRep {
			ms[w] = ms[i]
			i--
		} else {
			ms[w] = joined[j]
			j--
		}
	}
	for k := 1; k < len(ms); k++ {
		if !(ms[k-1].EDToRep < ms[k].EDToRep) {
			return false
		}
	}
	return true
}

// LengthGroups holds every group of one subsequence length.
type LengthGroups struct {
	Length int
	Groups []*Group
}

// Result is the full panorama of groups for all requested lengths — the ONEX
// base itself: a length's groups in id order are its GTI entry (Sec. 4.3),
// and each group's ED-sorted members its LSI. Query shards index it as is.
type Result struct {
	// ST echoes the build threshold.
	ST float64
	// Lengths lists the built lengths in increasing order.
	Lengths []int
	// ByLength maps a length to its groups.
	ByLength map[int]*LengthGroups
	// TotalSubseq counts every subsequence placed into a group.
	TotalSubseq int64
	// IncrementalMembers counts the subsequences assigned by incremental
	// maintenance (Extend / AppendPoints) since the last full Build — the
	// numerator of the drift fraction the amortized rebuild policy watches.
	// A full Build resets it to zero.
	IncrementalMembers int64
}

// Drift returns the fraction of members that joined incrementally since the
// last full Build (0 for a freshly built result). It is the staleness signal
// of the amortized rebuild policy: incrementally assigned members never
// trigger group splits or re-shuffles, so as drift grows the grouping slowly
// diverges from what Algorithm 1 would build from scratch.
func (r *Result) Drift() float64 {
	if r.TotalSubseq == 0 {
		return 0
	}
	return float64(r.IncrementalMembers) / float64(r.TotalSubseq)
}

// TotalGroups returns the number of groups across all lengths (the paper's
// "number of representatives", Fig. 6 / Table 4).
func (r *Result) TotalGroups() int {
	total := 0
	for _, lg := range r.ByLength {
		total += len(lg.Groups)
	}
	return total
}

// SizeBytes estimates the resident size of the query index in the spirit of
// the paper's Table 4: per group its identifier and representative (the
// GTI), per member its identifiers and ED (the LSI).
func (r *Result) SizeBytes() int64 {
	const word = 8
	var total int64
	for _, lg := range r.ByLength {
		total += int64(len(lg.Groups)) * word // group id
		for _, grp := range lg.Groups {
			total += int64(grp.Count()) * 3 * word // member ids + ED
			total += int64(len(grp.Rep)) * word    // representative
		}
	}
	return total
}

// Build runs Algorithm 1 over the dataset. Work is sharded two ways: across
// lengths, and — for lengths with many subsequences — across series-chunks
// within a length, with a deterministic sequential merge (see buildLength).
// A fixed (dataset, Config.ST/Lengths/Seed) therefore yields an identical
// Result for every Workers value.
func Build(d *ts.Dataset, cfg Config) (*Result, error) {
	if d == nil || d.N() == 0 {
		return nil, errors.New("grouping: empty dataset")
	}
	if err := checkST(cfg.ST); err != nil {
		return nil, err
	}
	lengths, err := resolveLengths(d, cfg.Lengths)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ST:       cfg.ST,
		Lengths:  lengths,
		ByLength: make(map[int]*LengthGroups, len(lengths)),
	}
	results := make([]*LengthGroups, len(lengths))
	counts := make([]int64, len(lengths))

	workers := parallel.Resolve(cfg.Workers)
	// Split the worker budget between the two sharding axes: when there are
	// fewer lengths than workers, the spare budget parallelizes the chunks
	// inside each length. (Worker allocation only affects scheduling, never
	// the Result.)
	outer := workers
	if outer > len(lengths) {
		outer = len(lengths)
	}
	inner := workers / outer
	var (
		progMu   sync.Mutex
		progDone int
		canceled bool
	)
	parallel.ForEach(outer, len(lengths), func(idx int) {
		if isClosed(cfg.Cancel) {
			progMu.Lock()
			canceled = true
			progMu.Unlock()
			return
		}
		l := lengths[idx]
		lg, n := buildLength(d, l, cfg.ST, cfg.Seed+int64(l)*1_000_003, inner)
		results[idx] = lg
		counts[idx] = n
		progMu.Lock()
		progDone++
		if cfg.Progress != nil {
			cfg.Progress(progDone, len(lengths))
		}
		progMu.Unlock()
	})

	if canceled {
		return nil, ErrCanceled
	}
	for i, lg := range results {
		res.ByLength[lg.Length] = lg
		res.TotalSubseq += counts[i]
	}
	return res, nil
}

// checkST rejects a similarity threshold that is not a positive number.
func checkST(st float64) error {
	if st <= 0 || math.IsNaN(st) || math.IsInf(st, 0) {
		return fmt.Errorf("grouping: similarity threshold must be positive, got %v", st)
	}
	return nil
}

// isClosed polls a cancellation channel without blocking.
func isClosed(c <-chan struct{}) bool {
	if c == nil {
		return false
	}
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// resolveLengths validates and normalizes the requested length set.
func resolveLengths(d *ts.Dataset, requested []int) ([]int, error) {
	maxLen := d.MaxLen()
	if requested == nil {
		if maxLen < 2 {
			return nil, errors.New("grouping: dataset series too short to decompose (need length ≥ 2)")
		}
		all := make([]int, 0, maxLen-1)
		for l := 2; l <= maxLen; l++ {
			all = append(all, l)
		}
		return all, nil
	}
	seen := make(map[int]bool, len(requested))
	out := make([]int, 0, len(requested))
	for _, l := range requested {
		if l < 1 {
			return nil, fmt.Errorf("grouping: invalid subsequence length %d", l)
		}
		if l > maxLen {
			continue // no series long enough; harmless to skip
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("grouping: no usable subsequence lengths")
	}
	sort.Ints(out)
	return out, nil
}

// position identifies a candidate subsequence during construction.
type position struct {
	seriesIdx int
	start     int
}

// Chunked construction constants. minChunkPositions is the smallest
// per-chunk workload worth a goroutine (below it the whole length is built
// in one sequential pass, which is also the exact historical algorithm);
// maxChunks caps the merge fan-in. Both are fixed constants — never derived
// from the worker count — so the chunk layout, and therefore the Result, is
// a function of the data alone.
const (
	minChunkPositions = 2048
	maxChunks         = 16
)

// chunkCount returns how many chunks n shuffled positions are split into.
func chunkCount(n int) int {
	c := n / minChunkPositions
	if c < 2 {
		return 1
	}
	if c > maxChunks {
		return maxChunks
	}
	return c
}

// buildLength runs the Algorithm 1 loop for a single length. Large lengths
// are sharded: the shuffled position list is cut into chunkCount contiguous
// chunks, each chunk is clustered independently (in parallel across up to
// workers goroutines), and the partial group sets are folded left-to-right
// by the same nearest-representative rule at group granularity: a chunk
// group within ST/2 of an accumulated representative is absorbed (sums and
// members combined, so the merged representative remains the exact
// point-wise member average), and otherwise appended. Both the chunk layout
// and the merge order are independent of the worker count, so the output is
// deterministic given the seed.
func buildLength(d *ts.Dataset, length int, st float64, seed int64, workers int) (*LengthGroups, int64) {
	positions := enumerate(d, length)
	shuffle(positions, seed)
	rsq := radiusSq(length, st)
	nc := chunkCount(len(positions))
	parts := make([]*LengthGroups, nc)
	parallel.ForEach(workers, nc, func(ci int) {
		lo, hi := ci*len(positions)/nc, (ci+1)*len(positions)/nc
		parts[ci] = &LengthGroups{Length: length}
		assign(d, parts[ci], positions[lo:hi], rsq)
	})
	lg := parts[0]
	if nc > 1 {
		// Every group of the length is this build's: the merge searches
		// them all through one PAA table.
		t := newPAATable(length, 0)
		for gi, g := range lg.Groups {
			t.set(gi, g.Rep)
		}
		for _, part := range parts[1:] {
			for _, g := range part.Groups {
				if gi, _ := nearest(lg.Groups, g.Rep, rsq, t); gi >= 0 {
					lg.Groups[gi].absorb(g.sum, g.Members...)
					t.set(gi, lg.Groups[gi].Rep)
				} else {
					lg.Groups = append(lg.Groups, g)
					t.set(len(lg.Groups)-1, g.Rep)
				}
			}
		}
	}
	for i, g := range lg.Groups {
		g.ID = i
		g.finalize(d)
	}
	return lg, int64(len(positions))
}

// radiusSq is the grouping radius ST/2 in squared raw-ED units, (√L·ST/2)².
func radiusSq(length int, st float64) float64 {
	return float64(length) * st * st / 4
}

// shuffle is RANDOMIZE-IN-PLACE (Algorithm 1, line 3): a Fisher–Yates
// shuffle driven by seed.
func shuffle(positions []position, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(positions), func(i, j int) {
		positions[i], positions[j] = positions[j], positions[i]
	})
}

// assign is the sequential Algorithm 1 loop over positions, in order: each
// subsequence joins the nearest group of lg within the radius, folding into
// its running average, or founds a new group with itself as representative.
// Groups keep their running sums, so a later merge can recombine them
// exactly; finalize drops them. A finalized group of lg (sum == nil) is
// thawed into a copy the first time a window joins it, so a group shared
// with another Result is never written. The groups this call founds are
// searched through a PAA table of their own, kept while the call runs.
func assign(d *ts.Dataset, lg *LengthGroups, positions []position, radiusSq float64) {
	t := newPAATable(lg.Length, len(lg.Groups))
	for _, pos := range positions {
		values := d.Series[pos.seriesIdx].Values[pos.start : pos.start+lg.Length]
		m := Member{SeriesIdx: pos.seriesIdx, Start: pos.start}
		if gi, _ := nearest(lg.Groups, values, radiusSq, t); gi >= 0 {
			g := lg.Groups[gi]
			if g.sum == nil { // finalized, and maybe shared: copy on write
				g = thaw(g)
				lg.Groups[gi] = g
			}
			g.absorb(values, m)
			t.set(gi, g.Rep)
			continue
		}
		lg.Groups = append(lg.Groups, &Group{
			Length:  lg.Length,
			ID:      len(lg.Groups),
			Rep:     append([]float64(nil), values...),
			Members: []Member{m},
			sum:     append([]float64(nil), values...),
		})
		t.set(len(lg.Groups)-1, values)
	}
}

// nearest returns the index of the group whose representative is nearest to
// values by squared ED, with that squared ED, provided it is within
// radiusSq; the lowest index wins a tie. It returns -1 when no
// representative is within the radius.
//
// Groups are visited in id order, each under the running cutoff
// min(radiusSq, bestSq). The groups t has rows for (groups[t.base:]; none
// when t is nil) are first tested by their PAA bound (paa.go): a group
// whose bound is above cutoff's threshold would be abandoned by
// dist.SquaredEDEarlyAbandon, so skipping it leaves the winner and its
// squared ED exactly as the plain loop finds them.
func nearest(groups []*Group, values []float64, radiusSq float64, t *paaTable) (int, float64) {
	bestSq := math.Inf(1)
	bestIdx := -1
	plain := groups
	if t != nil {
		plain = groups[:t.base]
	}
	for gi, g := range plain {
		// Only representatives within the radius can win, and only a
		// distance below the current best matters: abandon above both.
		if sq := dist.SquaredEDEarlyAbandon(values, g.Rep, min(radiusSq, bestSq)); sq < bestSq {
			bestSq, bestIdx = sq, gi
		}
	}
	if rest := groups[len(plain):]; len(rest) > 0 {
		mag := t.summarize(&t.q, values) + t.mag
		thr := t.cutoff(math.Sqrt(min(radiusSq, bestSq)), mag)
		for i := t.next(&t.q, 0, len(rest), thr); i < len(rest); i = t.next(&t.q, i+1, len(rest), thr) {
			if sq := dist.SquaredEDEarlyAbandon(values, rest[i].Rep, min(radiusSq, bestSq)); sq < bestSq {
				bestSq, bestIdx = sq, len(plain)+i
				thr = t.cutoff(math.Sqrt(bestSq), mag)
			}
		}
	}
	if bestSq > radiusSq {
		return -1, bestSq
	}
	return bestIdx, bestSq
}

// enumerate lists every subsequence position of the given length.
func enumerate(d *ts.Dataset, length int) []position {
	var total int
	for _, s := range d.Series {
		if n := s.Len() - length + 1; n > 0 {
			total += n
		}
	}
	positions := make([]position, 0, total)
	for si, s := range d.Series {
		for j := 0; j+length <= s.Len(); j++ {
			positions = append(positions, position{seriesIdx: si, start: j})
		}
	}
	return positions
}

// MemberValues returns the raw window of a member subsequence.
func MemberValues(d *ts.Dataset, g *Group, m Member) []float64 {
	return d.Series[m.SeriesIdx].Values[m.Start : m.Start+g.Length]
}
