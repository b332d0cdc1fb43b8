package shard

import (
	"context"
	"fmt"
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
// scan and k-NN phase requests.
type countingShard struct {
	query.ShardTransport
	mu         sync.Mutex
	scanReqs   []query.ScanRequest
	verifyReqs []query.VerifyKRequest
}

func (c *countingShard) Scan(ctx context.Context, req query.ScanRequest) (query.ScanResponse, error) {
	c.mu.Lock()
	c.scanReqs = append(c.scanReqs, req)
	c.mu.Unlock()
	return c.ShardTransport.Scan(ctx, req)
}

func (c *countingShard) VerifyK(ctx context.Context, req query.VerifyKRequest) (query.VerifyKResponse, error) {
	c.mu.Lock()
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
// the seam: per searched length one Scan{K: 1} at an infinite cutoff per
// shard and no other call —
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
					if len(c.scanReqs) != searched || len(c.verifyReqs) != 0 {
						t.Fatalf("p%d q%d mode%d, shard %d: %d Scan, %d VerifyK over %d searched lengths; want one Scan per length and nothing else",
							parallelism, qi, mode, i, len(c.scanReqs), len(c.verifyReqs), searched)
					}
					for _, req := range c.scanReqs {
						if req.K != 1 || !math.IsInf(math.Float64frombits(req.CutoffBits), 1) {
							t.Fatalf("p%d q%d mode%d, shard %d: Scan k=%d cutoff %v; want k=1 at +Inf",
								parallelism, qi, mode, i, req.K, math.Float64frombits(req.CutoffBits))
						}
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

// knnCalls checks one shard's k-NN calls against the round structure over
// a search of the given number of lengths: while the heap is not full a
// length scans its k nearest representatives at an infinite cutoff and
// verifies them, then at most one Scan{K: 0} at the cut and one more
// verification per length — so the length that fills the heap makes at most
// two scans and two verifications, and every later length one of each.
func knnCalls(c *countingShard, k, lengths int) error {
	topK, fixed, filled := 0, 0, false
	for _, req := range c.scanReqs {
		switch cutoff := math.Float64frombits(req.CutoffBits); {
		case req.K == k && math.IsInf(cutoff, 1) && !filled:
			topK++
		case req.K == 0:
			fixed++
			filled = filled || !math.IsInf(cutoff, 1)
		default:
			return fmt.Errorf("scan k=%d at cutoff %v after %d top-k and %d fixed scans", req.K, cutoff, topK, fixed)
		}
	}
	if topK == 0 || topK > lengths || fixed > lengths || len(c.verifyReqs) > topK+fixed {
		return fmt.Errorf("%d top-k scans, %d fixed scans, %d VerifyK over %d lengths", topK, fixed, len(c.verifyReqs), lengths)
	}
	return nil
}

// TestKNNCallsPerShard pins the round structure of a k-NN across the seam
// (knnCalls) whatever the number of candidate groups and members — the
// per-round protocol made hundreds of calls here — and that verification
// starts from the heap: a phase after the first carries its distances as
// seeds. One in-process shard at one worker walks the members too: its
// trace holds one shard-verify call per verification phase ("refine" span).
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
			if err := knnCalls(c, k, 1); err != nil || len(c.scanReqs) > 2 {
				t.Fatalf("k=%d exact, shard %d: %v (%d scans); want ≤ 2 scans and ≤ 2 VerifyK", k, i, err, len(c.scanReqs))
			}
			verified += len(c.verifyReqs)
		}
		if verified == 0 {
			t.Fatalf("k=%d exact: no shard verified a member", k)
		}

		reset()
		if _, err := bestK(sc, context.Background(), q, query.MatchAny, k); err != nil {
			t.Fatal(err)
		}
		finite, seeded := false, false
		for i, c := range counted {
			// k-NN visits every indexed length.
			if err := knnCalls(c, k, len(lengths)); err != nil {
				t.Fatalf("k=%d any, shard %d: %v", k, i, err)
			}
			for _, req := range c.verifyReqs {
				if !math.IsInf(math.Float64frombits(req.CutoffBits), 1) {
					finite = true
				}
				if len(req.Seeds) > 0 {
					seeded = true
				}
			}
		}
		if !finite || !seeded {
			t.Fatalf("k=%d any: finite cutoff %v, seeds %v; the later phases must start from the heap", k, finite, seeded)
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
			verifies, phases := 0, 0
			for _, sp := range rec.Snapshot().Spans {
				switch sp.Name {
				case "shard-verify":
					verifies++
				case "refine":
					phases++
				}
			}
			if verifies == 0 || verifies != phases || (mode == query.MatchExact && verifies > 2) {
				t.Fatalf("k=%d mode%d, one shard at one worker: %d shard-verify calls over %d verification phases; want one per phase, ≤ 2 at one length",
					k, mode, verifies, phases)
			}
		}
	}
}
