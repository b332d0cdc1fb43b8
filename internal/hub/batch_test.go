package hub

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"onex"
)

// batchRequests builds a mixed-family batch: n valid match requests, a
// range, a seasonal and a k-NN one, then malformed stragglers that must
// fail per item, not whole-batch.
func batchRequests(n int) []onex.Request {
	out := make([]onex.Request, 0, n+6)
	for i := 0; i < n; i++ {
		q := make([]float64, 8)
		for j := range q {
			q[j] = math.Sin(float64(j+i) / 3)
		}
		out = append(out, onex.Request{Family: onex.FamilyMatch, Query: q, Mode: onex.MatchAny})
	}
	q := out[0].Query
	return append(out,
		onex.Request{Family: onex.FamilyRange, Query: q, Length: 8, Radius: 0.5},
		onex.Request{Family: onex.FamilySeasonal, SeriesID: -1, Length: 8},
		onex.Request{Family: onex.FamilyMatch, Query: q, Mode: onex.MatchExact, K: 3},
		onex.Request{Family: onex.FamilyMatch, Mode: onex.MatchAny},
		onex.Request{Family: onex.FamilyRange, Query: []float64{1, math.NaN()}, Length: 8, Radius: 0.5},
		onex.Request{Family: onex.Family(9)},
	)
}

// TestExecBatchRacesDropAndExtend hammers one dataset with concurrent
// batches while other goroutines Extend it and finally Drop it. Run under
// -race (the CI default): the invariants are no panic, no deadlock, and
// every batch either answers completely or fails with a lifecycle error.
func TestExecBatchRacesDropAndExtend(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	ds, err := h.Register("demo", testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)

	qs := batchRequests(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := ds.ExecBatch(context.Background(), qs)
				if err != nil {
					if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNotReady) && !errors.Is(err, ErrFailed) {
						t.Errorf("unexpected batch error: %v", err)
					}
					continue
				}
				if len(rs) != len(qs) {
					t.Errorf("short batch: %d of %d", len(rs), len(qs))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			err := ds.Extend(testSeries(1, 24, int64(50+i)))
			if err != nil && !errors.Is(err, ErrConflict) {
				t.Errorf("extend: %v", err)
			}
		}
	}()
	if err := h.Drop("demo", false); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Post-drop batches fail cleanly with the dataset's terminal error —
	// the retained handle still answers (immutable base) per Dataset.Base
	// semantics, so just ensure no panic and a well-formed result.
	if _, err := ds.ExecBatch(context.Background(), qs); err != nil &&
		!errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNotReady) && !errors.Is(err, ErrFailed) {
		t.Fatalf("post-drop batch error: %v", err)
	}
}
