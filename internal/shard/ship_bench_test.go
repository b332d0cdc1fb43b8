package shard

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/query"
	"onex/internal/shardrpc"
	"onex/internal/ts"
)

// shipBenchBase is the shape of the benchmark's remote workload: ECG,
// 400 series of 96 points, six lengths, ST 0.2, four shards, Parallelism 2.
func shipBenchBase() (*ts.Dataset, core.BuildConfig) {
	sp := dataset.ECG
	sp.N, sp.Length = 400, 96
	return sp.Generate(1), core.BuildConfig{ST: 0.2, Lengths: []int{8, 25, 43, 60, 78, 96}, Seed: 1, Parallelism: 2}
}

// BenchmarkShipSpec times what a remote layout spends shipping its shards.
// "spec" is the whole spec path of every shard without the network:
// specFor, encode, decode and BuildLocalShard. "workers" is shard.Build with
// the four shards on two loopback workers, grouping included.
func BenchmarkShipSpec(b *testing.B) {
	d, cfg := shipBenchBase()
	b.Run("spec", func(b *testing.B) {
		e, err := Build(d, cfg, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		streamed := 0
		b.ReportAllocs()
		for b.Loop() {
			streamed = 0
			for s := range e.shards {
				buf.Reset()
				if err := core.EncodeShardSpec(&buf, e.specFor(s)); err != nil {
					b.Fatal(err)
				}
				streamed += buf.Len()
				spec, err := core.DecodeShardSpec(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := query.BuildLocalShard(spec); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(streamed), "stream-B/op")
	})
	b.Run("workers", func(b *testing.B) {
		var urls []string
		for range 2 {
			w := httptest.NewServer(shardrpc.NewWorker(quietLogger()).Handler())
			defer w.Close()
			urls = append(urls, w.URL)
		}
		b.ReportAllocs()
		for b.Loop() {
			e, err := Build(d, cfg, 4, urls)
			if err != nil {
				b.Fatal(err)
			}
			e.Close()
		}
	})
}
