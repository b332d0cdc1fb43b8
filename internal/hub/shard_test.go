package hub

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"onex"
)

// shardedSpec is testSpec with an explicit shard layout.
func shardedSpec(seed int64, shards int) Spec {
	sp := testSpec(seed)
	sp.Opts.Shards = shards
	return sp
}

// TestShardLayoutInCacheKeys is the regression test for the shard-layout
// cache-key rule: re-registering the same data under a different `shards`
// value must never serve a stale cached answer, even when an entry from the
// old incarnation survives every purge (the in-flight-put race). Epochs
// already make the keys disjoint; the layout signature keeps them disjoint
// even if an epoch were ever reused, and this test pins both properties.
func TestShardLayoutInCacheKeys(t *testing.T) {
	h := New(Config{})
	defer h.Close()

	ds1, err := h.Register("name", shardedSpec(33, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds1)
	base1, gen1, err := ds1.Base()
	if err != nil {
		t.Fatal(err)
	}
	if got := base1.Shards(); got != 2 {
		t.Fatalf("first incarnation serves %d shards, want 2", got)
	}
	q := make([]float64, 8)
	for i := range q {
		q[i] = 0.4
	}
	if _, err := ds1.Match(context.Background(), q, onex.MatchExact, 1); err != nil {
		t.Fatal(err)
	}

	// Poison: a stale entry keyed like the OLD layout but under the NEW
	// epoch+generation, surviving Drop's purge. Only the layout signature in
	// the key separates the incarnations now.
	if err := h.Drop("name", true); err != nil {
		t.Fatal(err)
	}
	ds2, err := h.Register("name", shardedSpec(33, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds2)
	base2, gen2, err := ds2.Base()
	if err != nil {
		t.Fatal(err)
	}
	if got := base2.Shards(); got != 4 {
		t.Fatalf("second incarnation serves %d shards, want 4", got)
	}
	if base1.LayoutSignature() == base2.LayoutSignature() {
		t.Fatal("different shard layouts over the same data share a layout signature")
	}
	poisoned := queryKey("name", ds2.epoch, gen2, base1.LayoutSignature(),
		"match", []int{int(onex.MatchExact), 1}, q)
	h.cache.put(poisoned, onex.Result{Matches: []onex.Match{{SeriesID: -999}}})

	ms, err := ds2.Match(context.Background(), q, onex.MatchExact, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].SeriesID == -999 {
		t.Fatal("re-registered dataset served a stale answer cached under the old shard layout")
	}
	_ = gen1

	// And the two layouts answer identically — re-sharding is transparent.
	direct, err := base1.BestMatch(q, onex.MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if direct.SeriesID != ms[0].SeriesID || direct.Start != ms[0].Start {
		t.Fatalf("layouts disagree: 2 shards → %+v, 4 shards → %+v", direct, ms[0])
	}
}

// TestShardStatsThroughInfo checks the per-shard observability surfaces in
// the dataset Info and the hub-wide maintenance stats.
func TestShardStatsThroughInfo(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	ds, err := h.Register("sharded", shardedSpec(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)
	info := ds.Info()
	if info.Shards != 3 {
		t.Errorf("Info.Shards = %d, want 3", info.Shards)
	}
	if len(info.ShardStats) != 3 {
		t.Fatalf("Info.ShardStats has %d entries, want 3", len(info.ShardStats))
	}
	series, subseq := 0, int64(0)
	for _, sh := range info.ShardStats {
		series += sh.Series
		subseq += sh.Subsequences
	}
	if series != info.Series {
		t.Errorf("per-shard series sum %d != %d", series, info.Series)
	}
	if subseq != info.Subsequences {
		t.Errorf("per-shard subsequence sum %d != %d", subseq, info.Subsequences)
	}

	st := h.Stats()
	m, ok := st.Maintenance["sharded"]
	if !ok {
		t.Fatal("hub stats missing maintenance entry for ready dataset")
	}
	if m.Shards != 3 || m.Drift != 0 || m.Rebuilds != 0 {
		t.Errorf("maintenance stats = %+v", m)
	}
}

// jsonKeys returns the keys of the JSON object raw, in order, with each
// key's raw value.
func jsonKeys(t *testing.T, raw []byte) ([]string, map[string]json.RawMessage) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	vals := make(map[string]json.RawMessage)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		vals[tok.(string)] = v
	}
	return keys, vals
}

// TestStatsJSONShape pins the key names and their order in the dataset info
// and hub stats bodies — what /v1/datasets/{name}, …/stats, /v1/stats and
// the append and extend replies encode — down to the query tally and the
// per-shard entries.
func TestStatsJSONShape(t *testing.T) {
	h := New(Config{})
	defer h.Close()
	ds, err := h.Register("shape", shardedSpec(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, ds)
	if _, err := ds.Match(context.Background(), make([]float64, 8), onex.MatchExact, 1); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s keys = %v, want %v", what, got, want)
		}
	}
	queryKeys := []string{"queries", "repsExamined", "prunedByKim", "dtwComputed", "membersTested"}

	raw, err := json.Marshal(ds.Info())
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := jsonKeys(t, raw)
	same("info", keys, []string{"name", "state", "progress", "generation", "fromSnapshot",
		"series", "representatives", "subsequences", "indexBytes", "st", "lengths", "buildSeconds",
		"drift", "rebuilds", "shards", "shardStats", "createdAt", "readyAt",
		"cacheHits", "cacheMisses", "query"})
	keys, _ = jsonKeys(t, vals["query"])
	same("info.query", keys, queryKeys)
	var perShard []json.RawMessage
	if err := json.Unmarshal(vals["shardStats"], &perShard); err != nil || len(perShard) != 2 {
		t.Fatalf("shardStats = %s (%v)", vals["shardStats"], err)
	}
	keys, _ = jsonKeys(t, perShard[0])
	same("info.shardStats[0]", keys, []string{"shard", "series", "groups", "subsequences", "indexBytes"})

	raw, err = json.Marshal(h.Stats())
	if err != nil {
		t.Fatal(err)
	}
	keys, vals = jsonKeys(t, raw)
	same("stats", keys, []string{"datasets", "byState", "representatives", "series", "subsequences",
		"cache", "maintenance", "query", "events"})
	keys, _ = jsonKeys(t, vals["query"])
	same("stats.query", keys, queryKeys)
}
