package shard

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"onex/internal/core"
	"onex/internal/obs"
	"onex/internal/query"
)

// countingShard counts the calls that cross the transport seam and keeps the
// k-NN phase requests.
type countingShard struct {
	query.ShardTransport
	mu                           sync.Mutex
	scanBest, scanFixed, verifyK int
	verifyReqs                   []query.VerifyKRequest
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

// countingScatter is a coordinator over e's shards whose every transport
// counts its calls; reset zeroes the counts.
func countingScatter(t *testing.T, e *Engine) (sc *query.Scatter, counted []*countingShard, reset func()) {
	t.Helper()
	counted = make([]*countingShard, len(e.parts))
	transports := make([]query.ShardTransport, len(e.parts))
	for i, p := range e.parts {
		counted[i] = &countingShard{ShardTransport: p.transport}
		transports[i] = counted[i]
	}
	sc, err := query.NewScatter(e.data, e.grouped, e.cfg.Parallelism, transports)
	if err != nil {
		t.Fatal(err)
	}
	reset = func() {
		for _, c := range counted {
			*c = countingShard{ShardTransport: c.ShardTransport}
		}
	}
	return sc, counted, reset
}

// TestMatchCallsPerShard pins the round structure of a best-match across
// the seam: per searched length one ScanBest per shard and no other call —
// the coordinator mines the winning group from the series it holds — at
// every worker count and match mode, in process and over loopback workers,
// where the trace holds exactly one rpc span per shard and searched length.
func TestMatchCallsPerShard(t *testing.T) {
	lengths := []int{8, 12, 16}
	const shards = 4
	urls, _ := startWorkers(t, 2)
	for _, parallelism := range []int{1, 2} {
		r := rand.New(rand.NewSource(78))
		d := randomDataset(r, 24, 48)
		cfg := core.BuildConfig{ST: 0.35, Lengths: lengths, Seed: 1, Parallelism: parallelism}
		e, err := Build(d, cfg, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := Build(d, cfg, shards, urls)
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		sc, counted, reset := countingScatter(t, e)
		for qi, q := range randomQueries(r, d, lengths, len(lengths)) {
			for _, mode := range []query.MatchMode{query.MatchExact, query.MatchAny} {
				reset()
				rec := obs.NewTrace("")
				got, err := bestMatch(sc, obs.ContextWithTrace(context.Background(), rec), q, mode)
				if err != nil {
					t.Fatal(err)
				}
				want, err := bestMatch(e, context.Background(), q, mode)
				if err != nil {
					t.Fatal(err)
				}
				if !matchBitsEqual(got, want) {
					t.Fatalf("p%d q%d mode%d: match %+v through the counting transports, want %+v",
						parallelism, qi, mode, got, want)
				}
				searched := 1
				if mode == query.MatchAny {
					searched = int(rec.Snapshot().Work["lengthsVisited"])
				}
				for i, c := range counted {
					if c.scanBest != searched || c.scanFixed != 0 || c.verifyK != 0 {
						t.Fatalf("p%d q%d mode%d, shard %d: %d ScanBest, %d ScanFixed, %d VerifyK over %d searched lengths; want one ScanBest per length and nothing else",
							parallelism, qi, mode, i, c.scanBest, c.scanFixed, c.verifyK, searched)
					}
				}

				rec = obs.NewTrace("")
				if got, err = bestMatch(remote, obs.ContextWithTrace(context.Background(), rec), q, mode); err != nil {
					t.Fatal(err)
				}
				if !matchBitsEqual(got, want) {
					t.Fatalf("p%d q%d mode%d: remote match %+v, want %+v", parallelism, qi, mode, got, want)
				}
				rpcs := 0
				for _, sp := range rec.Snapshot().Spans {
					if strings.HasPrefix(sp.Name, "rpc-") {
						rpcs++
					}
				}
				if rpcs != shards*searched {
					t.Fatalf("p%d q%d mode%d: remote best-match made %d rpc calls over %d searched lengths; want %d",
						parallelism, qi, mode, rpcs, searched, shards*searched)
				}
			}
		}
	}
}

// TestKNNCallsPerShard pins the round structure of a k-NN across the seam:
// per searched length one ScanFixed and at most one VerifyK per shard —
// whatever the number of candidate groups and members (the per-round
// protocol made hundreds of calls here). One
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
	sc, counted, reset := countingScatter(t, e)
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
			if c.scanFixed != 1 || c.verifyK > 1 || c.scanBest != 0 {
				t.Fatalf("k=%d exact, shard %d: %d ScanFixed, %d VerifyK, %d ScanBest; want 1, ≤ 1, 0",
					k, i, c.scanFixed, c.verifyK, c.scanBest)
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
			if c.scanFixed != len(lengths) || c.verifyK > len(lengths) || c.scanBest != 0 {
				t.Fatalf("k=%d any, shard %d: %d ScanFixed, %d VerifyK, %d ScanBest over %d lengths; want one, ≤ one, 0 per length",
					k, i, c.scanFixed, c.verifyK, c.scanBest, len(lengths))
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
