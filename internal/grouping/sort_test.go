package grouping

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// parentSortMembers is a frozen copy of the LSI sort every finalize ran
// before touched groups were re-sorted from their previous order. The
// golden digests pin its order of equal keys, so resortMembers must give
// its exact permutation, not merely a sorted one.
func parentSortMembers(ms []Member) {
	sort.Slice(ms, func(a, b int) bool {
		return ms[a].EDToRep < ms[b].EDToRep
	})
}

// membersOf tags each key with its input position, so equal slices after a
// sort mean the same permutation.
func membersOf(keys []float64) []Member {
	ms := make([]Member, len(keys))
	for i, k := range keys {
		ms[i] = Member{SeriesIdx: i, Start: 7 * i, EDToRep: k}
	}
	return ms
}

// checkResort fails unless resortMembers leaves keys in the permutation
// parentSortMembers gives them, with the first old members taken as the
// group's previous ones, for old at both ends, in the middle and at each
// of olds.
func checkResort(t testing.TB, what string, keys []float64, olds ...int) {
	t.Helper()
	want := membersOf(keys)
	parentSortMembers(want)
	n := len(keys)
	for _, old := range append([]int{n, n - 1, n / 2, 1, 0}, olds...) {
		if old < 0 || old > n {
			continue
		}
		got := membersOf(keys)
		resortMembers(got, old, nil)
		for i := range want {
			if got[i].SeriesIdx != want[i].SeriesIdx || got[i].Start != want[i].Start ||
				math.Float64bits(got[i].EDToRep) != math.Float64bits(want[i].EDToRep) {
				t.Fatalf("%s (%d members, %d old): position %d holds input %d, sort.Slice puts input %d there",
					what, n, old, i, got[i].SeriesIdx, want[i].SeriesIdx)
			}
		}
	}
}

// inversions counts the pairs out of ascending order.
func inversions(keys []float64) int {
	n := 0
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				n++
			}
		}
	}
	return n
}

// withInversions returns n distinct ascending keys disordered by k swaps of
// an adjacent ascending pair, each adding exactly one inversion.
func withInversions(t testing.TB, r *rand.Rand, n, k int) []float64 {
	t.Helper()
	if k > n*(n-1)/2 {
		t.Fatalf("%d keys have at most %d inversions, not %d", n, n*(n-1)/2, k)
	}
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = 0.01 * float64(i)
	}
	for k > 0 {
		if j := r.Intn(n - 1); keys[j] < keys[j+1] {
			keys[j], keys[j+1] = keys[j+1], keys[j]
			k--
		}
	}
	return keys
}

func TestSortMembersMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	random := func(n, distinct int) []float64 {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(r.Intn(distinct)) / float64(distinct)
		}
		return keys
	}
	reversed := func(n int) []float64 {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(n - i)
		}
		return keys
	}
	// A 2-member group's members are equidistant from their mean, so ties
	// are routine there.
	checkResort(t, "empty", nil)
	checkResort(t, "one", []float64{0.3})
	checkResort(t, "two in order", []float64{0.1, 0.2})
	checkResort(t, "two reversed", []float64{0.2, 0.1})
	checkResort(t, "two tied", []float64{0.25, 0.25})
	for n := 3; n <= 12; n++ {
		for trial := 0; trial < 20; trial++ {
			checkResort(t, "small random", random(n, 1<<20))
			checkResort(t, "small with ties", random(n, 3))
		}
		checkResort(t, "small reversed", reversed(n))
	}
	for _, n := range []int{13, 40, 300, 3000} {
		for trial := 0; trial < 5; trial++ {
			checkResort(t, "random", random(n, 1<<30))
			checkResort(t, "random with ties", random(n, n/2))
			for _, k := range []int{1, 5, n, 5 * n} {
				checkResort(t, "near-sorted", withInversions(t, r, n, k))
			}
			touched := append(withInversions(t, r, n, n), random(n/10+1, 1<<30)...)
			for i := n; i < len(touched); i++ {
				touched[i] *= 0.01 * float64(n)
			}
			checkResort(t, "near-sorted, then joined", touched, n)
			tied := withInversions(t, r, n, n)
			tied[r.Intn(n)] = tied[r.Intn(n)]
			checkResort(t, "near-sorted with a tie", tied)
		}
		checkResort(t, "reversed", reversed(n))
	}
}

// TestResortBudget checks insertionSort's budget at its edge: keys with
// exactly budget inversions finish, one more gives up, and resortMembers
// matches sort.Slice either way.
func TestResortBudget(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{40, 64, 200} {
		budget := resortMovesPerMember * n
		for _, c := range []struct {
			inv    int
			finish bool
		}{{budget, true}, {budget + 1, false}} {
			keys := withInversions(t, r, n, c.inv)
			if got := inversions(keys); got != c.inv {
				t.Fatalf("fixture has %d inversions, want %d", got, c.inv)
			}
			if got := insertionSort(membersOf(keys), budget); got != c.finish {
				t.Errorf("%d members, %d inversions, budget %d: insertionSort finished = %v, want %v",
					n, c.inv, budget, got, c.finish)
			}
			checkResort(t, "at the budget", keys)
		}
	}
}

// TestMergeJoinedNeedsStrictOrder checks that the merge accepts only keys
// strictly ascending: a tie or a NaN, in either part, sends resortMembers
// to sort.Slice.
func TestMergeJoinedNeedsStrictOrder(t *testing.T) {
	for _, c := range []struct {
		keys []float64
		old  int
		ok   bool
	}{
		{[]float64{0.1, 0.3, 0.2}, 2, true},
		{[]float64{0.1, 0.3, 0.3}, 2, false},
		{[]float64{0.2, 0.2, 0.1}, 2, false},
		{[]float64{0.1, 0.3, 0.4, 0.2}, 2, true},
		{[]float64{0.1, 0.3, 0.2, 0.2}, 2, false},
		{[]float64{0.1, math.NaN(), 0.2}, 2, false},
		{[]float64{0.1, 0.3, math.NaN()}, 2, false},
	} {
		ms := membersOf(c.keys)
		joined := append([]Member(nil), ms[c.old:]...)
		if got := mergeJoined(ms, c.old, joined); got != c.ok {
			t.Errorf("%v with %d old: mergeJoined = %v, want %v", c.keys, c.old, got, c.ok)
		}
		if c.ok {
			for i := 1; i < len(ms); i++ {
				if ms[i-1].EDToRep >= ms[i].EDToRep {
					t.Errorf("%v with %d old: merged out of order: %+v", c.keys, c.old, ms)
				}
			}
		}
		checkResort(t, "strict order", c.keys)
	}
}

// FuzzSortMembers checks resortMembers against sort.Slice's permutation on
// arbitrary keys, split into old and joined members at old (mod the count)
// among others. With near set, key i is 16·i plus a small signed offset:
// the near-sorted input of a touched group, ties included.
func FuzzSortMembers(f *testing.F) {
	f.Add([]byte{}, false, uint16(0))
	f.Add([]byte{3, 3}, false, uint16(1))
	f.Add([]byte{9, 1, 7, 1, 200, 0, 0, 13}, false, uint16(5))
	f.Add([]byte{0, 16, 240, 32, 0, 0, 255, 1, 17, 128, 127, 0, 0, 3, 250}, true, uint16(12))
	f.Fuzz(func(t *testing.T, data []byte, near bool, old uint16) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		keys := make([]float64, len(data))
		for i, b := range data {
			if near {
				keys[i] = float64(16*i + int(int8(b)))
			} else {
				keys[i] = float64(b)
			}
		}
		checkResort(t, "fuzz", keys, int(old)%(len(keys)+1))
	})
}

// TestLSIOrderBreak: the first member whose distance is NaN, negative,
// infinite or below its predecessor's is reported, and a group in LSI order,
// ties and zeros included, passes.
func TestLSIOrderBreak(t *testing.T) {
	eds := func(ds ...float64) []Member {
		ms := make([]Member, len(ds))
		for i, d := range ds {
			ms[i].EDToRep = d
		}
		return ms
	}
	for _, c := range []struct {
		ms   []Member
		want int
	}{
		{nil, -1},
		{eds(0, 0, 0.1, 0.1, 0.3), -1},
		{eds(math.Copysign(0, -1), 0.2), -1},
		{eds(0, 0.2, 0.1), 2},
		{eds(-0.05, 0.1), 0},
		{eds(0.1, math.NaN(), 0.2), 1},
		{eds(0.1, math.Inf(1)), 1},
		{eds(math.Inf(-1)), 0},
	} {
		if got := LSIOrderBreak(c.ms); got != c.want {
			t.Errorf("LSIOrderBreak(%v) = %d, want %d", c.ms, got, c.want)
		}
	}
}
