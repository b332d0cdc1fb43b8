package hub

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"

	"onex"
)

// CacheStats reports the result cache's effectiveness counters.
type CacheStats struct {
	// Hits and Misses count lookups since the hub started.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries displaced by the LRU bound (explicit
	// invalidations on Extend/Drop are not evictions).
	Evictions uint64 `json:"evictions"`
	// Entries and Capacity are the current and maximum entry counts.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// resultCache is a bounded LRU over materialized query results, shared by
// every dataset of a hub. Keys embed the dataset's generation counter, so a
// swap (Extend, rebuild) makes stale entries unreachable immediately; the
// owning dataset's entries are additionally purged by prefix to free the
// memory right away.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key string
	val any
}

// newResultCache returns a cache bounded to capacity entries, or nil (a
// universal miss) when capacity < 0.
func newResultCache(capacity int) *resultCache {
	if capacity < 0 {
		return nil
	}
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element, capacity),
	}
}

func (c *resultCache) get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *resultCache) put(key string, val any) {
	if c == nil || c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// purgePrefix drops every entry whose key starts with prefix — used to
// invalidate one dataset's results on Extend and Drop.
func (c *resultCache) purgePrefix(prefix string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); strings.HasPrefix(e.key, prefix) {
			c.ll.Remove(el)
			delete(c.byKey, e.key)
		}
		el = next
	}
}

func (c *resultCache) stats() CacheStats {
	if c == nil {
		return CacheStats{Capacity: -1}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Capacity: c.capacity,
	}
}

// queryKey builds the cache key for one query against one dataset
// registration (epoch, unique per Register so a drop/re-register under the
// same name can never resurrect old results), generation, and shard layout
// (onex.Base.LayoutSignature — the shard count plus each shard's series/
// subsequence population, so the same data re-registered under a different
// Shards value, or re-sharded any other way, can never alias a previous
// incarnation's results even if epochs were ever reused). The dataset name
// (which cannot contain '|') leads so a whole dataset can be invalidated by
// prefix; the parameters are folded into an FNV-1a hash rather than spelled
// out, keeping keys short for long query vectors.
func queryKey(name string, epoch, gen, layout uint64, kind string, ints []int, floats []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range ints {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	for _, v := range floats {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%s|%d|%d|%016x|%s|%d|%d|%016x", name, epoch, gen, layout, kind, len(ints), len(floats), h.Sum64())
}

// keyScope carries the identity every cache key embeds: the dataset name,
// its registration epoch, the generation of the base answering, and the
// serving layout signature.
type keyScope struct {
	name       string
	epoch, gen uint64
	layout     uint64
}

// requestKey is the single source of truth for how a query keys the result
// cache: Exec and ExecBatch both build keys through it, so a batch item
// always shares hits with the same request asked alone, and every option
// that changes the answer is provably part of the key — mode and k for
// matches (k = 0 folded to 1: both are the best match), length, the exact
// flag and the radius (folded in with the query values) for ranges, the
// series scope for seasonal queries (every negative id is the one
// dataset-wide form). The per-family kind strings keep families from
// aliasing each other even at identical parameter hashes.
func requestKey(s keyScope, r onex.Request) string {
	switch r.Family {
	case onex.FamilyMatch:
		k := r.K
		if k == 0 {
			k = 1
		}
		return queryKey(s.name, s.epoch, s.gen, s.layout, "match", []int{int(r.Mode), k}, r.Query)
	case onex.FamilyRange:
		e := 0
		if r.Exact {
			e = 1
		}
		return queryKey(s.name, s.epoch, s.gen, s.layout, "range", []int{r.Length, e}, append(append([]float64(nil), r.Query...), r.Radius))
	case onex.FamilySeasonal:
		return queryKey(s.name, s.epoch, s.gen, s.layout, "seasonal", []int{max(r.SeriesID, -1), r.Length}, nil)
	default:
		// Never answered (the engine refuses the family), so never stored.
		return queryKey(s.name, s.epoch, s.gen, s.layout, "unknown", []int{int(r.Family)}, nil)
	}
}

// recommendKey keys threshold recommendations on degree and length scope.
func recommendKey(s keyScope, degree, length int) string {
	return queryKey(s.name, s.epoch, s.gen, s.layout, "recommend", []int{degree, length}, nil)
}
