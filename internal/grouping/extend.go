package grouping

import (
	"errors"
	"fmt"

	"onex/internal/parallel"
	"onex/internal/ts"
)

// Delta describes which groups one incremental-maintenance step (Extend or
// AppendPoints) changed, so the serving engine re-derives only the shards
// and threshold cells the step touched.
type Delta struct {
	// PrevGroups[length] is the group count before the step; groups with
	// index ≥ PrevGroups[length] were founded by the step and are new.
	PrevGroups map[int]int
	// Touched[length] lists pre-existing group indices (< PrevGroups) whose
	// representative moved because new members joined. An untouched group
	// is the previous Result's *Group itself, shared.
	Touched map[int][]int
}

// Extend implements incremental ONEX-base maintenance (the paper defers the
// discussion to its tech report; the natural rule follows directly from
// Algorithm 1): subsequences of newly arrived series are pushed through the
// same nearest-representative assignment against the existing groups — they
// join a group when within ST/2 of its representative (updating the running
// average) and found new groups otherwise. Only the new subsequences are
// processed, so maintenance costs O(new-subsequences × g × L) instead of a
// full rebuild.
//
// d must be the dataset already containing the new series appended after
// index fromSeries; prev must have been built over d.Series[:fromSeries]
// with the same ST. prev is not modified: a group that gains members is
// copied first, every other group is shared with the returned Result (a
// finalized group is immutable, so existing bases stay valid). The returned
// Delta records the touched groups for incremental index refresh.
func Extend(d *ts.Dataset, prev *Result, fromSeries int, cfg Config) (*Result, *Delta, error) {
	if d == nil || prev == nil {
		return nil, nil, errors.New("grouping: nil dataset or previous result")
	}
	if cfg.ST != prev.ST {
		return nil, nil, fmt.Errorf("grouping: extension threshold %v differs from base %v", cfg.ST, prev.ST)
	}
	if fromSeries < 0 || fromSeries > d.N() {
		return nil, nil, fmt.Errorf("grouping: fromSeries %d out of range [0,%d]", fromSeries, d.N())
	}
	newSeries := d.Series[fromSeries:]
	for _, s := range newSeries {
		if s.Len() == 0 {
			return nil, nil, fmt.Errorf("grouping: new series %d is empty", s.ID)
		}
	}
	return maintain(d, prev, cfg, func(length int) []position {
		var positions []position
		for _, s := range newSeries {
			for j := 0; j+length <= s.Len(); j++ {
				positions = append(positions, position{seriesIdx: s.ID, start: j})
			}
		}
		return positions
	})
}

// AppendPoints implements streaming point-append maintenance: existing
// series of d have grown in time, and only the suffix subsequences — the
// windows overlapping the appended points — are pushed through the same
// nearest-representative assignment rule Extend uses. oldLens[i] is series
// i's length before the append (oldLens[i] == d.Series[i].Len() for series
// that did not grow). prev is not modified; the grown Result and the Delta
// of touched groups are returned.
func AppendPoints(d *ts.Dataset, prev *Result, oldLens []int, cfg Config) (*Result, *Delta, error) {
	if d == nil || prev == nil {
		return nil, nil, errors.New("grouping: nil dataset or previous result")
	}
	if cfg.ST != prev.ST {
		return nil, nil, fmt.Errorf("grouping: append threshold %v differs from base %v", cfg.ST, prev.ST)
	}
	if len(oldLens) != d.N() {
		return nil, nil, fmt.Errorf("grouping: oldLens has %d entries for %d series", len(oldLens), d.N())
	}
	grown := make([]int, 0, 1)
	for i, s := range d.Series {
		if oldLens[i] < 0 || oldLens[i] > s.Len() {
			return nil, nil, fmt.Errorf("grouping: series %d old length %d outside [0,%d]", i, oldLens[i], s.Len())
		}
		if oldLens[i] < s.Len() {
			grown = append(grown, i)
		}
	}
	if len(grown) == 0 {
		return nil, nil, errors.New("grouping: no series grew")
	}
	return maintain(d, prev, cfg, func(length int) []position {
		var positions []position
		for _, si := range grown {
			lo, hi := d.Series[si].NewWindowStarts(oldLens[si], length)
			for j := lo; j < hi; j++ {
				positions = append(positions, position{seriesIdx: si, start: j})
			}
		}
		return positions
	})
}

// maintain is the shared incremental-maintenance driver: for every indexed
// length it streams the length's new positions (shuffled, as Algorithm 1
// requires) through the nearest-representative assignment against the
// previous groups (assignIncremental). Lengths run in parallel on
// cfg.Workers; the result is deterministic for every worker count (each
// length is independent).
func maintain(d *ts.Dataset, prev *Result, cfg Config, newPositions func(length int) []position) (*Result, *Delta, error) {
	next := &Result{
		ST:                 prev.ST,
		Lengths:            append([]int(nil), prev.Lengths...),
		ByLength:           make(map[int]*LengthGroups, len(prev.Lengths)),
		IncrementalMembers: prev.IncrementalMembers,
	}
	delta := &Delta{
		PrevGroups: make(map[int]int, len(prev.Lengths)),
		Touched:    make(map[int][]int, len(prev.Lengths)),
	}

	results := make([]*LengthGroups, len(prev.Lengths))
	counts := make([]int64, len(prev.Lengths))
	touchedByLen := make([][]int, len(prev.Lengths))
	parallel.ForEach(cfg.Workers, len(prev.Lengths), func(idx int) {
		l := prev.Lengths[idx]
		seed := cfg.Seed + int64(l)*1_000_003
		positions := newPositions(l)
		results[idx], touchedByLen[idx] = assignIncremental(d, prev.ByLength[l], positions, prev.ST, seed)
		counts[idx] = int64(len(positions))
	})

	next.TotalSubseq = prev.TotalSubseq
	for i, lg := range results {
		next.ByLength[lg.Length] = lg
		next.TotalSubseq += counts[i]
		next.IncrementalMembers += counts[i]
		delta.PrevGroups[lg.Length] = len(prev.ByLength[lg.Length].Groups)
		delta.Touched[lg.Length] = touchedByLen[i]
	}
	return next, delta, nil
}

// assignIncremental streams the given new positions, shuffled, through the
// Algorithm 1 loop over a copy of one length's group slice. The groups are
// shared: assign thaws a group into a copy when the first window joins it,
// so a pre-existing group is touched exactly when its pointer changed. A
// touched group's representative drifted; it is refinalized from its
// previous LSI order, and every new group is finalized. Untouched groups
// stay prev's own, which already carry ID = index. It returns the refreshed
// groups and the ascending list of touched pre-existing group indices.
func assignIncremental(d *ts.Dataset, prevLG *LengthGroups, positions []position, st float64, seed int64) (*LengthGroups, []int) {
	lg := &LengthGroups{Length: prevLG.Length, Groups: append([]*Group(nil), prevLG.Groups...)}
	shuffle(positions, seed)
	assign(d, lg, positions, radiusSq(lg.Length, st))

	touched := make([]int, 0, 8)
	var scratch []Member
	for gi, g := range lg.Groups[:len(prevLG.Groups)] {
		if g != prevLG.Groups[gi] {
			touched = append(touched, gi)
			g.ID = gi
			scratch = g.refinalize(d, prevLG.Groups[gi].Count(), scratch)
		}
	}
	for _, g := range lg.Groups[len(prevLG.Groups):] {
		g.finalize(d)
	}
	return lg, touched
}
