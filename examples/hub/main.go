// Hub example: drive two datasets through the serving substrate behind
// onex-server (internal/hub) — asynchronous builds on a worker pool, the
// query-result cache, incremental extension, and snapshot persistence with
// instant reload.
//
//	go run ./examples/hub
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"onex"
	"onex/internal/hub"
)

func main() {
	snapDir, err := os.MkdirTemp("", "onex-hub-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(snapDir)

	h := hub.New(hub.Config{
		BuildWorkers: 2,
		SnapshotDir:  snapDir, // every build is persisted to <dir>/<name>.onex
	})
	defer h.Close()

	// Register two datasets; both builds run concurrently on the pool.
	power, err := h.Register("power", hub.Spec{
		Generator: "ItalyPower", Scale: 0.4, Seed: 1,
		Opts: onex.Options{ST: 0.25, Seed: 1}, LengthCount: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	sensors, err := h.Register("sensors", hub.Spec{
		Series: sensorSeries(30, 64),
		Opts:   onex.Options{ST: 0.2, Lengths: []int{8, 16, 32}},
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, ds := range []*hub.Dataset{power, sensors} {
		if err := ds.Wait(ctx); err != nil {
			log.Fatalf("build %s: %v", ds.Name(), err)
		}
		info := ds.Info()
		fmt.Printf("%-8s ready: %d series, %d representatives, built in %.0f ms\n",
			info.Name, info.Series, info.Representatives, info.BuildSeconds*1000)
	}

	// Query both. The second identical query is a cache hit.
	q := make([]float64, 16)
	for i := range q {
		q[i] = math.Sin(2 * math.Pi * float64(i) / 16)
	}
	for i := 0; i < 2; i++ {
		r := sensors.Exec(context.Background(), onex.Request{Family: onex.FamilyMatch, Query: q, Mode: onex.MatchAny})
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("sensors best match: %v\n", r.Matches[0])
	}
	info := sensors.Info()
	fmt.Printf("sensors cache: %d hit(s), %d miss(es)\n", info.CacheHits, info.CacheMisses)

	// Extend swaps in a larger base concurrently with queries and
	// invalidates the cache (generation bump).
	if err := sensors.Extend(sensorSeries(5, 64)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensors extended: generation %d, %d series\n",
		sensors.Generation(), sensors.Info().Series)

	// Drop and re-register: the snapshot skips the rebuild entirely.
	if err := h.Drop("power", false); err != nil {
		log.Fatal(err)
	}
	again, err := h.Register("power", hub.Spec{
		Generator: "ItalyPower", Scale: 0.4, Seed: 1,
		Opts: onex.Options{ST: 0.25, Seed: 1}, LengthCount: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := again.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("power re-registered from snapshot: %v\n", again.Info().FromSnapshot)

	st := h.Stats()
	fmt.Printf("hub: %d datasets (%v), cache %d/%d hit/miss\n",
		st.Datasets, st.ByState, st.Cache.Hits, st.Cache.Misses)
}

// sensorSeries fabricates phase-shifted noisy sinusoids.
func sensorSeries(n, length int) []onex.Series {
	out := make([]onex.Series, n)
	for s := range out {
		v := make([]float64, length)
		for i := range v {
			v[i] = math.Sin(2*math.Pi*float64(i)/16+float64(s)*0.2) +
				0.05*math.Sin(float64(5*i+3*s))
		}
		out[s] = onex.Series{Label: "sensor", Values: v}
	}
	return out
}
