package grouping_test

import (
	"bytes"
	"testing"

	"onex/internal/core"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// maintenanceStep is one golden maintenance step: d is the dataset prev is
// built over, and run grows it and maintains a grouping of it.
type maintenanceStep struct {
	name string
	d    *ts.Dataset
	prev *grouping.Result
	run  func(prev *grouping.Result, workers int) (*grouping.Result, *grouping.Delta, error)
}

// goldenSteps returns TestGoldenAppendPoints' and TestGoldenExtend's steps,
// with their previous groupings built but not yet maintained.
func goldenSteps(t *testing.T) []maintenanceStep {
	t.Helper()
	build := func(d *ts.Dataset) *grouping.Result {
		res, err := grouping.Build(d, grouping.GoldenConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	grown := grouping.GoldenData()
	full := grouping.GoldenData()
	partial := grouping.GoldenPartial(full)
	var oldLens []int
	return []maintenanceStep{
		{"AppendPoints", grown, build(grown), func(prev *grouping.Result, workers int) (*grouping.Result, *grouping.Delta, error) {
			if oldLens == nil {
				oldLens = grouping.GoldenGrow(grown)
			}
			return grouping.AppendPoints(grown, prev, oldLens, grouping.GoldenConfig(workers))
		}},
		{"Extend", partial, build(partial), func(prev *grouping.Result, workers int) (*grouping.Result, *grouping.Delta, error) {
			return grouping.Extend(full, prev, grouping.GoldenExtendFrom, grouping.GoldenConfig(workers))
		}},
	}
}

// decodedCopy round-trips prev through a snapshot: the decoder's groups are
// fresh, finalized, and share nothing with prev.
func decodedCopy(t *testing.T, d *ts.Dataset, prev *grouping.Result) *grouping.Result {
	t.Helper()
	var buf bytes.Buffer
	if err := core.EncodeSnapshot(&buf, &core.Snapshot{Cfg: core.BuildConfig{ST: prev.ST}, Dataset: d, Grouped: prev}); err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := grouping.Digest(snap.Grouped), grouping.Digest(prev); got != want {
		t.Fatalf("snapshot round trip digest = %#x, want %#x", got, want)
	}
	return snap.Grouped
}

// TestMaintainSharesUntouchedGroups checks that maintenance copies only the
// groups it changes: an untouched group is prev's own *Group, a touched or
// new one is not, and prev reads the same bits before, during and after the
// step (run it with -race: a reader digests prev while the step runs).
func TestMaintainSharesUntouchedGroups(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, step := range goldenSteps(t) {
			decoded := decodedCopy(t, step.d, step.prev)
			before := grouping.Digest(step.prev)

			stop, read := make(chan struct{}), make(chan uint64)
			go func() {
				var last uint64
				for {
					last = grouping.Digest(step.prev)
					select {
					case <-stop:
						read <- last
						return
					default:
					}
				}
			}()
			next, delta, err := step.run(step.prev, workers)
			close(stop)
			if during := <-read; err != nil {
				t.Fatal(err)
			} else if during != before {
				t.Errorf("%s at %d workers: prev read %#x during the step, want %#x", step.name, workers, during, before)
			}
			if after := grouping.Digest(step.prev); after != before {
				t.Errorf("%s at %d workers: prev digest %#x after the step, want %#x", step.name, workers, after, before)
			}

			old := map[*grouping.Group]bool{}
			for _, lg := range step.prev.ByLength {
				for _, g := range lg.Groups {
					old[g] = true
				}
			}
			shared := 0
			for _, l := range next.Lengths {
				prevGroups, groups := step.prev.ByLength[l].Groups, next.ByLength[l].Groups
				touched := map[int]bool{}
				for _, gi := range delta.Touched[l] {
					touched[gi] = true
				}
				for gi, g := range groups {
					if g.ID != gi {
						t.Errorf("%s at %d workers: length %d group %d has ID %d", step.name, workers, l, gi, g.ID)
					}
					if !grouping.Finalized(g) {
						t.Errorf("%s at %d workers: length %d group %d was not finalized", step.name, workers, l, gi)
					}
					switch {
					case gi >= delta.PrevGroups[l]:
						if old[g] {
							t.Errorf("%s at %d workers: new group %d of length %d is a previous group", step.name, workers, gi, l)
						}
					case touched[gi]:
						if g == prevGroups[gi] {
							t.Errorf("%s at %d workers: touched group %d of length %d is prev's, not a copy", step.name, workers, gi, l)
						}
					case g != prevGroups[gi]:
						t.Errorf("%s at %d workers: untouched group %d of length %d was copied", step.name, workers, gi, l)
					default:
						shared++
					}
				}
			}
			if shared == 0 {
				t.Errorf("%s at %d workers: no group is shared", step.name, workers)
			}

			fromDecoded, _, err := step.run(decoded, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := grouping.Digest(fromDecoded), grouping.Digest(next); got != want {
				t.Errorf("%s at %d workers: maintaining the decoded base gives %#x, the built base %#x", step.name, workers, got, want)
			}
		}
	}
}
