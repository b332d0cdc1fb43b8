package shard

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"onex/internal/core"
	"onex/internal/obs"
	"onex/internal/query"
	"onex/internal/rspace"
)

// countingShard counts the calls that cross the transport seam and keeps the
// k-NN phase requests.
type countingShard struct {
	query.ShardTransport
	mu                                     sync.Mutex
	scanBest, scanFixed, verifyK, evalMems int
	verifyReqs                             []query.VerifyKRequest
}

func (c *countingShard) ScanBest(ctx context.Context, req query.ScanBestRequest) (query.ScanBestResponse, error) {
	c.mu.Lock()
	c.scanBest++
	c.mu.Unlock()
	return c.ShardTransport.ScanBest(ctx, req)
}

func (c *countingShard) ScanFixed(ctx context.Context, req query.ScanFixedRequest) (query.ScanFixedResponse, error) {
	c.mu.Lock()
	c.scanFixed++
	c.mu.Unlock()
	return c.ShardTransport.ScanFixed(ctx, req)
}

func (c *countingShard) VerifyK(ctx context.Context, req query.VerifyKRequest) (query.VerifyKResponse, error) {
	c.mu.Lock()
	c.verifyK++
	c.verifyReqs = append(c.verifyReqs, req)
	c.mu.Unlock()
	return c.ShardTransport.VerifyK(ctx, req)
}

func (c *countingShard) EvalMembers(ctx context.Context, req query.EvalMembersRequest) (query.EvalMembersResponse, error) {
	c.mu.Lock()
	c.evalMems++
	c.mu.Unlock()
	return c.ShardTransport.EvalMembers(ctx, req)
}

// TestKNNCallsPerShard pins the round structure of a k-NN across the seam:
// per searched length one ScanFixed and at most one VerifyK per shard, and
// no EvalMembers at all — whatever the number of candidate groups and
// members (the per-round protocol made hundreds of calls here). One
// in-process shard at one worker walks the members too: its trace holds one
// shard-verify call per searched length with candidates.
func TestKNNCallsPerShard(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	d := randomDataset(r, 24, 48)
	lengths := []int{8, 12, 16}
	e, err := Build(d, core.BuildConfig{
		ST: 0.35, Lengths: lengths, Seed: 1, Parallelism: 2,
	}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	global := &rspace.Base{
		Dataset:     e.data,
		ST:          e.grouped.ST,
		Lengths:     e.grouped.Lengths,
		Entries:     make(map[int]*rspace.LengthEntry),
		TotalSubseq: e.grouped.TotalSubseq,
	}
	for _, l := range e.grouped.Lengths {
		global.Entries[l] = &rspace.LengthEntry{Length: l, Groups: e.grouped.ByLength[l].Groups}
	}
	counted := make([]*countingShard, len(e.parts))
	transports := make([]query.ShardTransport, len(e.parts))
	for i, p := range e.parts {
		counted[i] = &countingShard{ShardTransport: p.transport}
		transports[i] = counted[i]
	}
	sc, err := query.NewScatter(global, e.cfg.Parallelism, transports)
	if err != nil {
		t.Fatal(err)
	}
	reset := func() {
		for _, c := range counted {
			*c = countingShard{ShardTransport: c.ShardTransport}
		}
	}
	q := randomQueries(r, d, []int{12}, 1)[0]

	for _, k := range []int{2, 5, 10} {
		reset()
		got, err := bestK(sc, context.Background(), q, query.MatchExact, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bestK(e, context.Background(), q, query.MatchExact, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d knn[%d] = %+v through the counting transports, want %+v", k, i, got[i], want[i])
			}
		}
		verified := 0
		for i, c := range counted {
			if c.scanFixed != 1 || c.verifyK > 1 || c.evalMems != 0 || c.scanBest != 0 {
				t.Fatalf("k=%d exact, shard %d: %d ScanFixed, %d VerifyK, %d EvalMembers, %d ScanBest; want 1, ≤ 1, 0, 0",
					k, i, c.scanFixed, c.verifyK, c.evalMems, c.scanBest)
			}
			verified += c.verifyK
		}
		if verified == 0 {
			t.Fatalf("k=%d exact: no shard verified a member", k)
		}

		reset()
		if _, err := bestK(sc, context.Background(), q, query.MatchAny, k); err != nil {
			t.Fatal(err)
		}
		finite := false
		for i, c := range counted {
			// k-NN visits every indexed length.
			if c.scanFixed != len(lengths) || c.verifyK > len(lengths) || c.evalMems != 0 || c.scanBest != 0 {
				t.Fatalf("k=%d any, shard %d: %d ScanFixed, %d VerifyK, %d EvalMembers, %d ScanBest over %d lengths; want one, ≤ one, 0, 0 per length",
					k, i, c.scanFixed, c.verifyK, c.evalMems, c.scanBest, len(lengths))
			}
			for _, req := range c.verifyReqs {
				if !math.IsInf(math.Float64frombits(req.CutoffBits), 1) {
					finite = true
				}
			}
		}
		if !finite {
			t.Fatalf("k=%d any: no phase started from a finite cutoff; the later lengths must inherit the heap's", k)
		}
	}

	one, err := Build(d, core.BuildConfig{ST: 0.35, Lengths: lengths, Seed: 1, Parallelism: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 5, 10} {
		for _, mode := range []query.MatchMode{query.MatchExact, query.MatchAny} {
			rec := obs.NewTrace("")
			if _, err := bestK(one, obs.ContextWithTrace(context.Background(), rec), q, mode, k); err != nil {
				t.Fatal(err)
			}
			verifies, lengthsSearched := 0, 0
			for _, sp := range rec.Snapshot().Spans {
				switch sp.Name {
				case "shard-verify":
					verifies++
				case "refine":
					lengthsSearched++
				}
			}
			if verifies == 0 || verifies > lengthsSearched || (mode == query.MatchExact && verifies != 1) {
				t.Fatalf("k=%d mode%d, one shard at one worker: %d shard-verify calls over %d searched lengths; want one per length with candidates",
					k, mode, verifies, lengthsSearched)
			}
		}
	}
}
