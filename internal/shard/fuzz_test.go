package shard

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"onex/internal/core"
	"onex/internal/query"
	"onex/internal/ts"
)

// FuzzShardRouting throws arbitrary shard counts (0, 1, negative, far above
// the series count) and arbitrary ragged append/extend streams at the
// sharded engine and asserts the structural invariants that must hold for
// every input: invalid counts error instead of panicking, valid ones build;
// appends route deterministically and never lose a window (the global
// subsequence accounting stays exact); queries after every step return
// finite distances and in-range identities.
func FuzzShardRouting(f *testing.F) {
	f.Add(int64(1), 4, 2, []byte{0, 7, 255, 3})
	f.Add(int64(2), 1, -3, []byte{1})
	f.Add(int64(3), 9, 1000, []byte{5, 5, 5, 128, 9, 200})
	f.Add(int64(4), 2, 0, []byte{})
	f.Add(int64(5), 7, 7, []byte{250, 251, 252, 0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, seed int64, nSeries, shards int, ops []byte) {
		if nSeries < 1 {
			nSeries = 1
		}
		nSeries = nSeries%10 + 1
		if len(ops) > 24 {
			ops = ops[:24]
		}
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r, nSeries, 18)
		lengths := []int{5, 8}
		cfg := core.BuildConfig{ST: 0.4, Lengths: lengths, Seed: seed, RebuildDrift: -1}

		e, err := Build(d, cfg, shards, nil)
		if shards < 0 {
			if err == nil {
				t.Fatalf("shards=%d: want error", shards)
			}
			return
		}
		if err != nil {
			t.Fatalf("build shards=%d series=%d: %v", shards, nSeries, err)
		}
		want := shards
		if want > d.N() {
			want = d.N()
		}
		if want <= 1 {
			want = 1
		}
		if got := e.ShardCount(); got != want {
			t.Fatalf("ShardCount = %d, want %d", got, want)
		}

		for i, op := range ops {
			if op >= 250 { // occasionally extend instead of appending
				v := make([]float64, 6+int(op)%8)
				x := r.Float64()
				for j := range v {
					x += r.NormFloat64() * 0.2
					v[j] = x
				}
				next, err := e.Extend([]*ts.Series{{Label: "fz", Values: v}})
				if err != nil {
					t.Fatalf("op %d extend: %v", i, err)
				}
				e = next
				continue
			}
			sid := int(op) % e.NumSeries()
			pts := make([]float64, 1+int(op)%5) // ragged batches, incl. single points
			x := r.Float64()
			for j := range pts {
				x += r.NormFloat64() * 0.1
				pts[j] = x
			}
			next, err := e.Append(sid, pts)
			if err != nil {
				t.Fatalf("op %d append sid=%d n=%d: %v", i, sid, len(pts), err)
			}
			e = next

			// Routing is stable: the grown series' shard is a pure function
			// of (sid, shards).
			home := ShardOf(sid, e.shards)
			found := false
			for _, gid := range e.parts[home].transport.Info().Series {
				if gid == sid {
					found = true
				}
			}
			if !found {
				t.Fatalf("op %d: series %d not resident in its home shard %d", i, sid, home)
			}
		}

		// The engine must account for every window of the final data.
		if got, wantN := e.TotalSubseq(), e.data.SubseqCount(lengths); got != wantN {
			t.Fatalf("subsequence accounting broken: %d indexed, %d in data", got, wantN)
		}

		// Queries stay well-formed (identities in range, finite distances).
		q := make([]float64, lengths[0])
		x := r.Float64()
		for j := range q {
			x += r.NormFloat64() * 0.2
			q[j] = x
		}
		m, err := bestMatch(e, context.Background(), q, query.MatchAny)
		if err != nil {
			t.Fatalf("post-op BestMatch: %v", err)
		}
		if m.SeriesID < 0 || m.SeriesID >= e.NumSeries() || math.IsNaN(m.Dist) || math.IsInf(m.Dist, 0) {
			t.Fatalf("malformed match %+v over %d series", m, e.NumSeries())
		}
		if w := e.data.Series[m.SeriesID]; !w.CheckRange(m.Start, m.Length) {
			t.Fatalf("match %+v outside its series (len %d)", m, w.Len())
		}
	})
}
