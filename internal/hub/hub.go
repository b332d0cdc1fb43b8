// Package hub is the multi-dataset serving substrate for onex-server: a
// thread-safe catalog of named ONEX bases with full lifecycle management.
//
// Each registered dataset moves through pending → building → ready (or
// failed) on a bounded worker pool, so heavy offline constructions never
// block registration or queries against other datasets. Built bases are
// optionally snapshotted to disk (onex.Base.SaveFile) and re-registration
// of a dropped dataset reloads the snapshot instead of rebuilding.
//
// One request, two entry points: queries against a ready dataset are
// onex.Request values answered by Dataset.Exec (one) and Dataset.ExecBatch
// (many, of any mix of families) through a hub-wide bounded LRU result cache
// keyed on the dataset's registration epoch and generation counter, the
// request's family and a hash of its parameters (requestKey — one builder,
// so a batch item and the same request alone share an entry); Extend swaps
// in the extended base, bumps the generation and invalidates the dataset's
// cached results, so readers never see stale answers while in-flight queries
// keep using the (immutable) old base.
package hub

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"onex"
	"onex/internal/dataset"
	"onex/internal/obs"
)

// Lifecycle and lookup errors.
var (
	// ErrClosed reports an operation against a closed hub.
	ErrClosed = errors.New("hub: hub closed")
	// ErrNotFound reports an unknown dataset name.
	ErrNotFound = errors.New("hub: dataset not found")
	// ErrExists reports a Register for a name already in the catalog.
	ErrExists = errors.New("hub: dataset already registered")
	// ErrNotReady reports a query against a dataset that is still pending
	// or building.
	ErrNotReady = errors.New("hub: dataset not ready")
	// ErrFailed reports a query against a dataset whose build failed.
	ErrFailed = errors.New("hub: dataset build failed")
	// ErrConflict reports an Extend that lost the swap race to a concurrent
	// Extend; retry against the new generation.
	ErrConflict = errors.New("hub: concurrent modification, retry")
)

// State is a dataset's lifecycle position.
type State int

const (
	// StatePending: registered, waiting for a build worker.
	StatePending State = iota
	// StateBuilding: a worker is running the offline construction (or
	// loading a snapshot).
	StateBuilding
	// StateReady: the base answers queries.
	StateReady
	// StateFailed: the build errored; Err/Info carry the cause.
	StateFailed
)

// String returns the lower-case state name used across the REST surface.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateBuilding:
		return "building"
	case StateReady:
		return "ready"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config tunes a hub. The zero value is usable.
type Config struct {
	// BuildWorkers bounds concurrent offline constructions (default 2).
	BuildWorkers int
	// QueueDepth bounds the pending-build queue; Register blocks once it
	// is full (default 256).
	QueueDepth int
	// SnapshotDir, when non-empty, enables persistence: every successful
	// build — and every Extend/Append swap — is snapshotted to
	// <dir>/<name>.onex, and a Register finding a snapshot for its name
	// loads it instead of rebuilding, whatever source the spec names (the
	// hub's snapshot reflects incremental growth the spec predates). Use
	// Drop(name, purge=true) to discard it and force the next Register to
	// build from the spec. The directory is created on demand.
	SnapshotDir string
	// CacheEntries bounds the query-result LRU (0 = default 1024,
	// negative = disable caching).
	CacheEntries int
}

// Spec tells Register how to obtain a dataset: exactly one of Series,
// Path, Snapshot or Generator must be set.
type Spec struct {
	// Series supplies the raw series inline.
	Series []onex.Series
	// Path names a UCR-format TSV file to load.
	Path string
	// Snapshot names a persisted base (onex.Base.SaveFile) to reopen; the
	// build options travel inside the snapshot, so Opts is ignored but for
	// the serving-time Parallelism and ShardWorkers, which no snapshot
	// carries (they apply to a reload of the hub's own snapshot too). When
	// the hub persists its own snapshots (Config.SnapshotDir) and one
	// exists for this name, it wins over this file — it reflects
	// Extend/Append growth this file predates; Drop(name, purge=true)
	// before re-registering forces this file to load.
	Snapshot string
	// Generator names a synthetic paper dataset (dataset.ByName), scaled
	// by Scale (0 = full size) and generated from Seed.
	Generator string
	// Scale shrinks a generated dataset's cardinality (0 or 1 = full).
	Scale float64
	// Seed drives synthetic generation and the build's randomized
	// insertion order.
	Seed int64
	// Opts are the onex build options (Opts.ST is required unless the
	// dataset comes from a snapshot). Progress and Cancel are managed by
	// the hub and must be nil.
	Opts onex.Options
	// LengthCount, when Opts.Lengths is nil, indexes this many subsequence
	// lengths spread evenly from 2 to the longest series instead of the
	// onex default of every length (0 keeps the default).
	LengthCount int
}

func (sp Spec) validate() error {
	sources := 0
	for _, set := range []bool{len(sp.Series) > 0, sp.Path != "", sp.Snapshot != "", sp.Generator != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("hub: spec must set exactly one of Series, Path, Snapshot or Generator (got %d)", sources)
	}
	if sp.Opts.Progress != nil || sp.Opts.Cancel != nil {
		return errors.New("hub: Spec.Opts.Progress and Cancel are managed by the hub; leave them nil")
	}
	if sp.Snapshot == "" && (sp.Opts.ST <= 0) {
		return errors.New("hub: Spec.Opts.ST must be positive for built datasets")
	}
	return nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Hub is a concurrent catalog of named ONEX bases. All methods are safe
// for concurrent use.
type Hub struct {
	cfg   Config
	cache *resultCache

	mu       sync.RWMutex
	datasets map[string]*Dataset

	jobs      chan *Dataset
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	// epochs hands every registration a hub-unique id that participates in
	// cache keys, so a dropped-and-re-registered name can never be served
	// another incarnation's cached results.
	epochs atomic.Uint64

	// events counts hub-lifetime lifecycle work (monotonic, so the metrics
	// surface can expose them as Prometheus counters; they survive Drop,
	// unlike per-dataset tallies).
	events struct {
		builds, buildFailures, extends, appends, rebuilds atomic.Uint64
	}
}

// New starts a hub with cfg's worker pool running.
func New(cfg Config) *Hub {
	if cfg.BuildWorkers <= 0 {
		cfg.BuildWorkers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	capacity := cfg.CacheEntries
	switch {
	case capacity == 0:
		capacity = 1024
	case capacity < 0:
		capacity = -1
	}
	h := &Hub{
		cfg:      cfg,
		cache:    newResultCache(capacity),
		datasets: make(map[string]*Dataset),
		jobs:     make(chan *Dataset, cfg.QueueDepth),
		closed:   make(chan struct{}),
	}
	for i := 0; i < cfg.BuildWorkers; i++ {
		h.wg.Add(1)
		go h.worker()
	}
	return h
}

func (h *Hub) worker() {
	defer h.wg.Done()
	for {
		select {
		case <-h.closed:
			return
		case ds := <-h.jobs:
			ds.build()
		}
	}
}

// Register adds a named dataset and queues its build; it returns as soon
// as the dataset is cataloged (state pending). Use (*Dataset).Wait to block
// until the build finishes. When the hub persists snapshots and one exists
// for name, the build loads it instead of reconstructing (unless the spec
// itself names a different snapshot).
func (h *Hub) Register(name string, spec Spec) (*Dataset, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("hub: invalid dataset name %q (want %s)", name, nameRE)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if h.isClosed() {
		return nil, ErrClosed
	}
	ds := &Dataset{
		name:    name,
		spec:    spec,
		hub:     h,
		epoch:   h.epochs.Add(1),
		created: time.Now(),
		ready:   make(chan struct{}),
	}
	h.mu.Lock()
	if _, dup := h.datasets[name]; dup {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	h.datasets[name] = ds
	h.mu.Unlock()

	select {
	case h.jobs <- ds:
		// Close may have fired between the enqueue and the workers exiting
		// (or even drained the queue already); make sure the dataset still
		// reaches a terminal state. fail is a no-op once a worker won.
		if h.isClosed() {
			ds.fail(ErrClosed)
		}
	case <-h.closed:
		ds.fail(ErrClosed)
	}
	return ds, nil
}

// Get looks a dataset up by name.
func (h *Hub) Get(name string) (*Dataset, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ds, ok := h.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ds, nil
}

// List returns every cataloged dataset sorted by name.
func (h *Hub) List() []*Dataset {
	h.mu.RLock()
	out := make([]*Dataset, 0, len(h.datasets))
	for _, ds := range h.datasets {
		out = append(out, ds)
	}
	h.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Drop removes a dataset from the catalog and invalidates its cached
// results. In-flight queries against the old base finish undisturbed. When
// purgeSnapshot is true its on-disk snapshot (if any) is deleted too;
// otherwise a later Register of the same name reloads it, skipping the
// rebuild.
func (h *Hub) Drop(name string, purgeSnapshot bool) error {
	h.mu.Lock()
	ds, ok := h.datasets[name]
	if ok {
		delete(h.datasets, name)
	}
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	ds.dropped.Store(true)
	h.cache.purgePrefix(name + "|")
	if purgeSnapshot {
		if p := h.snapshotPath(name); p != "" {
			// Remove under the dataset's snapshot mutex: an in-flight
			// Extend/Append re-snapshot either observes dropped=true and
			// skips, or finishes its write before this remove — never
			// resurrecting a purged file afterwards.
			ds.snapMu.Lock()
			err := os.Remove(p)
			ds.snapMu.Unlock()
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

// Close stops the worker pool, aborts in-flight builds (they fail with
// onex.ErrBuildCanceled) and fails still-queued registrations with
// ErrClosed. Ready datasets remain queryable; Close never blocks queries.
func (h *Hub) Close() {
	h.closeOnce.Do(func() {
		close(h.closed)
		h.wg.Wait()
		// Fail whatever the workers never picked up: first the queue (a
		// Register racing Close can still have enqueued), then the catalog.
	drain:
		for {
			select {
			case ds := <-h.jobs:
				ds.fail(ErrClosed)
			default:
				break drain
			}
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, ds := range h.datasets {
			ds.fail(ErrClosed)
		}
	})
}

func (h *Hub) isClosed() bool {
	select {
	case <-h.closed:
		return true
	default:
		return false
	}
}

// snapshotPath maps a dataset name into the hub's snapshot directory
// ("" when persistence is disabled).
func (h *Hub) snapshotPath(name string) string {
	if h.cfg.SnapshotDir == "" {
		return ""
	}
	return filepath.Join(h.cfg.SnapshotDir, name+".onex")
}

// Stats aggregates the hub-wide serving counters.
type Stats struct {
	// Datasets counts cataloged datasets; ByState breaks the count down
	// by lifecycle state.
	Datasets int            `json:"datasets"`
	ByState  map[string]int `json:"byState"`
	// Representatives, Series and Subsequences sum over ready datasets.
	Representatives int   `json:"representatives"`
	Series          int   `json:"series"`
	Subsequences    int64 `json:"subsequences"`
	// Cache reports the shared query-result cache.
	Cache CacheStats `json:"cache"`
	// Maintenance reports every ready dataset's incremental-maintenance
	// health — drift fraction, rebuilds triggered, last rebuild cost — so
	// the amortized rebuild policy is tunable from data (ROADMAP:
	// observability).
	Maintenance map[string]MaintenanceStats `json:"maintenance"`
	// Query sums the online-query work tallies (queries answered,
	// bound-pruning counters) over ready datasets.
	Query onex.QueryStats `json:"query"`
	// Events counts hub-lifetime lifecycle work; monotonic (they never
	// decrease on Drop), so safe to expose as Prometheus counters.
	Events EventStats `json:"events"`
}

// EventStats counts lifecycle events since the hub started.
type EventStats struct {
	// Builds counts successful offline constructions and snapshot loads;
	// BuildFailures counts registrations that reached StateFailed.
	Builds        uint64 `json:"builds"`
	BuildFailures uint64 `json:"buildFailures"`
	// Extends and Appends count successful incremental-maintenance swaps.
	Extends uint64 `json:"extends"`
	Appends uint64 `json:"appends"`
	// Rebuilds counts drift-triggered full rebuilds absorbed by swaps.
	Rebuilds uint64 `json:"rebuilds"`
}

// MaintenanceStats is one dataset's amortized-rebuild-policy counters.
type MaintenanceStats struct {
	// Drift is the incremental-member fraction since the last full build.
	Drift float64 `json:"drift"`
	// Rebuilds counts drift-triggered full rebuilds.
	Rebuilds int64 `json:"rebuilds"`
	// LastRebuildSeconds is the most recent rebuild's wall-clock cost.
	LastRebuildSeconds float64 `json:"lastRebuildSeconds"`
	// Shards is the dataset's serving layout (1 = one shard).
	Shards int `json:"shards"`
}

// Stats snapshots the hub-wide counters.
func (h *Hub) Stats() Stats {
	st := Stats{ByState: make(map[string]int), Maintenance: make(map[string]MaintenanceStats)}
	for _, ds := range h.List() {
		info := ds.Info()
		st.Datasets++
		st.ByState[info.State]++
		if info.State == StateReady.String() {
			st.Representatives += info.Representatives
			st.Series += info.Series
			st.Subsequences += info.Subsequences
			st.Maintenance[info.Name] = MaintenanceStats{
				Drift:              info.Drift,
				Rebuilds:           info.Rebuilds,
				LastRebuildSeconds: info.LastRebuildSeconds,
				Shards:             info.Shards,
			}
			st.Query.Add(info.Query)
		}
	}
	st.Cache = h.cache.stats()
	st.Events = EventStats{
		Builds:        h.events.builds.Load(),
		BuildFailures: h.events.buildFailures.Load(),
		Extends:       h.events.extends.Load(),
		Appends:       h.events.appends.Load(),
		Rebuilds:      h.events.rebuilds.Load(),
	}
	return st
}

// Dataset is one cataloged ONEX base and its lifecycle state. Queries are
// answered under a read lock against an immutable base, so any number can
// run concurrently with each other and with Extend (which constructs the
// extended base outside the lock and only swaps pointers under the write
// lock).
type Dataset struct {
	name    string
	spec    Spec
	hub     *Hub
	epoch   uint64
	created time.Time
	ready   chan struct{} // closed on the pending/building → ready/failed edge
	once    sync.Once     // guards close(ready)
	dropped atomic.Bool

	progressDone  atomic.Int64
	progressTotal atomic.Int64
	hits, misses  atomic.Uint64

	// snapMu serializes snapshot writes so overlapping Extends can never
	// leave an older generation on disk (each write saves the base that is
	// current when the write starts; the last writer is the newest).
	snapMu sync.Mutex

	mu           sync.RWMutex
	state        State
	err          error
	base         *onex.Base
	gen          uint64
	fromSnapshot bool
	readyAt      time.Time
	snapshotErr  error
}

// Name returns the catalog name.
func (d *Dataset) Name() string { return d.name }

// State returns the current lifecycle state.
func (d *Dataset) State() State {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.state
}

// Err returns the build failure cause (nil unless State is StateFailed).
func (d *Dataset) Err() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.err
}

// Workers returns the shard-worker addresses the dataset's base fans out
// to, or nil for in-process (local-transport) datasets and datasets that
// are not ready yet. The slice is fresh; callers may retain it.
func (d *Dataset) Workers() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.base == nil {
		return nil
	}
	return d.base.ShardWorkers()
}

// Generation returns the swap counter: 0 until ready, then incremented by
// every Extend. Cache keys embed it, so a bump orphans stale results.
func (d *Dataset) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// Wait blocks until the dataset reaches ready or failed (returning the
// failure cause) or ctx ends.
func (d *Dataset) Wait(ctx context.Context) error {
	select {
	case <-d.ready:
		return d.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Base returns the current base and its generation for direct (uncached)
// use. The base is immutable; it stays valid after Extend/Drop.
func (d *Dataset) Base() (*onex.Base, uint64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	switch d.state {
	case StateReady:
		return d.base, d.gen, nil
	case StateFailed:
		return nil, 0, fmt.Errorf("%w: %q: %v", ErrFailed, d.name, d.err)
	default:
		return nil, 0, fmt.Errorf("%w: %q is %s", ErrNotReady, d.name, d.state)
	}
}

// Info is a point-in-time description of a dataset, shaped for the REST
// surface.
type Info struct {
	Name  string `json:"name"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Progress is the build completion fraction in [0,1].
	Progress float64 `json:"progress"`
	// Generation counts base swaps (Extend) since ready.
	Generation uint64 `json:"generation"`
	// FromSnapshot marks bases loaded from disk instead of built.
	FromSnapshot bool `json:"fromSnapshot"`
	// SnapshotError surfaces a failed snapshot write (the dataset still
	// serves; only persistence is degraded).
	SnapshotError string `json:"snapshotError,omitempty"`

	Series          int     `json:"series,omitempty"`
	Representatives int     `json:"representatives,omitempty"`
	Subsequences    int64   `json:"subsequences,omitempty"`
	IndexBytes      int64   `json:"indexBytes,omitempty"`
	ST              float64 `json:"st,omitempty"`
	Lengths         []int   `json:"lengths,omitempty"`
	BuildSeconds    float64 `json:"buildSeconds,omitempty"`

	// Maintenance observability: the incremental fraction since the last
	// full build, how many drift-triggered rebuilds the base has absorbed,
	// and the last one's cost (see onex.Options.RebuildDrift).
	Drift              float64 `json:"drift"`
	Rebuilds           int64   `json:"rebuilds"`
	LastRebuildSeconds float64 `json:"lastRebuildSeconds,omitempty"`

	// Shards is the serving layout (1 = one shard); ShardStats breaks a
	// sharded base down per shard (see onex.Options.Shards).
	Shards     int              `json:"shards,omitempty"`
	ShardStats []onex.ShardStat `json:"shardStats,omitempty"`
	// ShardWorkers lists the remote worker processes serving the shards
	// (absent for in-process layouts).
	ShardWorkers []string `json:"shardWorkers,omitempty"`

	CreatedAt time.Time `json:"createdAt"`
	ReadyAt   time.Time `json:"readyAt"`

	// CacheHits / CacheMisses count this dataset's query-cache outcomes.
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`

	// Query tallies the online work the current base has answered (cache
	// hits don't tick it; process-local, reset by rebuild-class swaps).
	Query onex.QueryStats `json:"query"`
}

// Info snapshots the dataset's state, metadata and cache counters.
func (d *Dataset) Info() Info {
	d.mu.RLock()
	info := Info{
		Name:         d.name,
		State:        d.state.String(),
		Generation:   d.gen,
		FromSnapshot: d.fromSnapshot,
		CreatedAt:    d.created,
		ReadyAt:      d.readyAt,
	}
	if d.err != nil {
		info.Error = d.err.Error()
	}
	if d.snapshotErr != nil {
		info.SnapshotError = d.snapshotErr.Error()
	}
	base := d.base
	d.mu.RUnlock()

	if total := d.progressTotal.Load(); total > 0 {
		info.Progress = float64(d.progressDone.Load()) / float64(total)
	}
	if base != nil {
		st := base.Stats()
		info.Progress = 1
		info.Series = base.NumSeries()
		info.Representatives = st.Representatives
		info.Subsequences = st.Subsequences
		info.IndexBytes = st.IndexBytes
		info.ST = base.ST()
		info.Lengths = base.Lengths()
		info.BuildSeconds = st.BuildTime.Seconds()
		info.Drift = st.Drift
		info.Rebuilds = st.Rebuilds
		info.LastRebuildSeconds = st.LastRebuild.Seconds()
		info.Shards = st.Shards
		info.ShardWorkers = base.ShardWorkers()
		info.Query = st.Query
		info.ShardStats = st.PerShard
	}
	info.CacheHits = d.hits.Load()
	info.CacheMisses = d.misses.Load()
	return info
}

// build runs on a hub worker: it materializes the base (snapshot load or
// offline construction), persists it when configured, and flips the
// lifecycle state.
func (d *Dataset) build() {
	if d.dropped.Load() {
		d.fail(fmt.Errorf("%w: dropped before build", ErrNotFound))
		return
	}
	if d.hub.isClosed() {
		d.fail(ErrClosed)
		return
	}
	d.mu.Lock()
	d.state = StateBuilding
	d.mu.Unlock()

	base, fromSnapshot, err := d.materialize()
	if err != nil {
		d.fail(err)
		return
	}

	var snapErr error
	if path := d.hub.snapshotPath(d.name); path != "" && !fromSnapshot && !d.dropped.Load() {
		d.snapMu.Lock()
		if err := os.MkdirAll(d.hub.cfg.SnapshotDir, 0o755); err != nil {
			snapErr = err
		} else {
			snapErr = base.SaveFile(path)
		}
		d.snapMu.Unlock()
	}

	d.mu.Lock()
	if d.state != StateBuilding {
		// fail() won the race (hub closed between our checks); discard.
		d.mu.Unlock()
		d.once.Do(func() { close(d.ready) })
		return
	}
	d.state = StateReady
	d.base = base
	d.fromSnapshot = fromSnapshot
	d.readyAt = time.Now()
	d.snapshotErr = snapErr
	d.mu.Unlock()
	d.hub.events.builds.Add(1)
	d.once.Do(func() { close(d.ready) })
}

// materialize obtains the base per the spec, preferring an existing hub
// snapshot over every other source — including an explicit Spec.Snapshot:
// the hub's own snapshot is re-written on every successful Extend/Append
// swap, so it reflects incremental growth the spec's original file (or raw
// series) predates; preferring the spec here would make Drop + re-register
// silently resurrect the pre-extension base. A loaded base serves with the
// spec's Parallelism and ShardWorkers, as a built one does. An unreadable
// hub snapshot falls back to the spec's source rather than failing the
// registration.
func (d *Dataset) materialize() (base *onex.Base, fromSnapshot bool, err error) {
	if path := d.hub.snapshotPath(d.name); path != "" {
		if base, err := onex.LoadFileDistributed(path, d.spec.Opts.Parallelism, d.spec.Opts.ShardWorkers); err == nil {
			return base, true, nil
		}
	}
	if d.spec.Snapshot != "" {
		base, err = onex.LoadFileDistributed(d.spec.Snapshot, d.spec.Opts.Parallelism, d.spec.Opts.ShardWorkers)
		return base, err == nil, err
	}
	series, name, err := d.spec.series(d.name)
	if err != nil {
		return nil, false, err
	}
	opts := d.spec.Opts
	if opts.Lengths == nil && d.spec.LengthCount > 0 {
		maxLen := 0
		for _, s := range series {
			if len(s.Values) > maxLen {
				maxLen = len(s.Values)
			}
		}
		opts.Lengths = spreadLengths(maxLen, d.spec.LengthCount)
	}
	d.progressTotal.Store(0)
	opts.Progress = func(done, total int) {
		d.progressTotal.Store(int64(total))
		d.progressDone.Store(int64(done))
	}
	opts.Cancel = d.hub.closed
	base, err = onex.Build(name, series, opts)
	return base, false, err
}

// series materializes the raw input series for the build paths.
func (sp Spec) series(name string) ([]onex.Series, string, error) {
	switch {
	case len(sp.Series) > 0:
		return sp.Series, name, nil
	case sp.Path != "":
		d, err := dataset.LoadUCRFile(sp.Path)
		if err != nil {
			return nil, "", err
		}
		out := make([]onex.Series, 0, d.N())
		for _, s := range d.Series {
			out = append(out, onex.Series{Label: s.Label, Values: s.Values})
		}
		return out, name, nil
	case sp.Generator != "":
		spec, ok := dataset.ByName(sp.Generator)
		if !ok {
			return nil, "", fmt.Errorf("hub: unknown generator %q (have %v)", sp.Generator, dataset.Names())
		}
		if sp.Scale > 0 && sp.Scale < 1 {
			spec = spec.Scaled(sp.Scale)
		}
		gen := spec.Generate(sp.Seed)
		out := make([]onex.Series, 0, gen.N())
		for _, s := range gen.Series {
			out = append(out, onex.Series{Label: s.Label, Values: s.Values})
		}
		return out, name, nil
	default:
		return nil, "", errors.New("hub: spec has no data source")
	}
}

// spreadLengths picks count subsequence lengths spread evenly across
// [2, max], deduplicated — the serving default for datasets whose spec does
// not pin an explicit length set.
func spreadLengths(max, count int) []int {
	if count <= 0 || max < 2 {
		return nil
	}
	out := make([]int, 0, count)
	prev := 0
	for i := 0; i < count; i++ {
		l := 2 + i*(max-2)/count
		if count > 1 {
			l = 2 + i*(max-2)/(count-1)
		}
		if l != prev {
			out = append(out, l)
			prev = l
		}
	}
	return out
}

// fail moves the dataset to StateFailed (first terminal transition wins)
// and releases waiters.
func (d *Dataset) fail(err error) {
	d.mu.Lock()
	failed := d.state != StateReady && d.state != StateFailed
	if failed {
		d.state = StateFailed
		d.err = err
	}
	d.mu.Unlock()
	if failed {
		d.hub.events.buildFailures.Add(1)
	}
	d.once.Do(func() { close(d.ready) })
}

// Extend adds series to the dataset: the extended base is constructed
// concurrently with in-flight queries (which keep the old immutable base),
// then swapped in, bumping the generation and invalidating this dataset's
// cached results. A concurrent Extend/Append on the same generation returns
// ErrConflict. When the hub persists snapshots the new base is re-saved so
// a reload reflects the extension.
func (d *Dataset) Extend(series []onex.Series) error {
	return d.swap(&d.hub.events.extends, func(base *onex.Base) (*onex.Base, error) {
		return base.Extend(series)
	})
}

// Append grows one existing series of the dataset in time (streaming point
// ingestion): the grown base is constructed concurrently with in-flight
// queries, swapped in under the same generation CAS Extend uses, the
// dataset's cached results are invalidated, and the snapshot is re-saved so
// a reload reflects the appended points.
func (d *Dataset) Append(seriesID int, points []float64) error {
	return d.swap(&d.hub.events.appends, func(base *onex.Base) (*onex.Base, error) {
		return base.Append(seriesID, points...)
	})
}

// swap runs one incremental-maintenance step: grow derives the next base
// from the current one (outside any lock), then the pointer swap is
// validated against the generation observed before growing — a concurrent
// modification returns ErrConflict rather than silently dropping either
// update. After a successful swap the dataset's cache entries are purged,
// event (the caller's hub-lifetime counter) ticks, any drift-triggered
// rebuild the grow absorbed ticks the rebuild counter, and the snapshot is
// re-written.
func (d *Dataset) swap(event *atomic.Uint64, grow func(*onex.Base) (*onex.Base, error)) error {
	base, gen, err := d.Base()
	if err != nil {
		return err
	}
	preRebuilds := base.Rebuilds()
	next, err := grow(base)
	if err != nil {
		return err
	}

	d.mu.Lock()
	if d.state != StateReady || d.gen != gen {
		d.mu.Unlock()
		return ErrConflict
	}
	d.base = next
	d.gen++
	d.mu.Unlock()
	event.Add(1)
	if delta := next.Rebuilds() - preRebuilds; delta > 0 {
		d.hub.events.rebuilds.Add(uint64(delta))
	}
	d.hub.cache.purgePrefix(d.name + "|")
	d.resnapshot()
	return nil
}

// resnapshot re-writes the on-disk snapshot with the dataset's current base
// so a later Drop + re-register reloads post-maintenance data. Writes are
// serialized and always persist the base that is current when the write
// starts, so an overlapping swap whose (slow) save lands last can never
// regress the on-disk snapshot to an older generation. The snapshot
// directory is created on demand — a base loaded from an external
// Spec.Snapshot may be the first to persist under the hub's own directory.
func (d *Dataset) resnapshot() {
	path := d.hub.snapshotPath(d.name)
	if path == "" {
		return
	}
	d.snapMu.Lock()
	// The dropped check must happen under snapMu: Drop's purge removes the
	// file under the same mutex, so a swap racing a purge can never write
	// the snapshot back after the remove.
	if d.dropped.Load() {
		d.snapMu.Unlock()
		return
	}
	d.mu.RLock()
	current := d.base
	d.mu.RUnlock()
	snapErr := os.MkdirAll(d.hub.cfg.SnapshotDir, 0o755)
	if snapErr == nil {
		snapErr = current.SaveFile(path)
	}
	d.snapMu.Unlock()
	d.mu.Lock()
	d.snapshotErr = snapErr
	d.mu.Unlock()
}

// lookup reads one key from the hub's result cache, counting the outcome on
// the dataset; a non-nil rec gets a "cache" span whose hit attribute is 1 on
// a hit (no engine spans follow — a hit does zero cascade work) and 0 on the
// computing path.
func (d *Dataset) lookup(rec *obs.Trace, key string) (any, bool) {
	var sc obs.SpanScope
	if rec != nil {
		sc = rec.StartSpan("cache")
	}
	v, ok := d.hub.cache.get(key)
	var hit int64
	if ok {
		hit = 1
		d.hits.Add(1)
	} else {
		d.misses.Add(1)
	}
	if rec != nil {
		sc.Attr("hit", hit).End()
	}
	return v, ok
}

// scope builds the cache-key identity for queries against one (base, gen)
// observation.
func (d *Dataset) scope(base *onex.Base, gen uint64) keyScope {
	return keyScope{name: d.name, epoch: d.epoch, gen: gen, layout: base.LayoutSignature()}
}

// Exec answers one request — a batch of one; a dataset that is not ready is
// the result's Err. With a trace on ctx the cache lookup and — on a miss —
// the engine's spans and work counters are recorded; answers are identical
// either way.
func (d *Dataset) Exec(ctx context.Context, req onex.Request) onex.Result {
	rs, err := d.ExecBatch(ctx, []onex.Request{req})
	if err != nil {
		return onex.Result{Err: err}
	}
	return rs[0]
}

// ExecBatch answers many requests, of any mix of families, positionally with
// per-item errors (a malformed item fails alone). Each item goes through the
// result cache under requestKey — the key it has alone, so batches and
// singles share hits — and the misses are answered together by
// onex.Base.ExecBatch, which fans them across the base's worker pool; only
// successes are cached. Returned slices are shared with the cache — treat
// them as immutable. ctx carries cancellation, the request id and the trace
// into the engine's per-shard fan-out. The error is the dataset's (not
// ready, failed).
func (d *Dataset) ExecBatch(ctx context.Context, reqs []onex.Request) ([]onex.Result, error) {
	base, gen, err := d.Base()
	if err != nil {
		return nil, err
	}
	out := make([]onex.Result, len(reqs))
	keys := make([]string, len(reqs))
	miss := make([]onex.Request, 0, len(reqs))
	missIdx := make([]int, 0, len(reqs))
	scope, rec := d.scope(base, gen), obs.TraceFromContext(ctx)
	for i, req := range reqs {
		keys[i] = requestKey(scope, req)
		if v, ok := d.lookup(rec, keys[i]); ok {
			out[i] = v.(onex.Result)
			continue
		}
		miss = append(miss, req)
		missIdx = append(missIdx, i)
	}
	for j, r := range base.ExecBatch(ctx, miss) {
		i := missIdx[j]
		out[i] = r
		if r.Err == nil {
			d.hub.cache.put(keys[i], r)
		}
	}
	return out, nil
}

// The three methods below are the call shapes benchmark/ compiles against,
// kept until it moves to Exec: each packs its arguments into one Exec call.

// Match answers a similarity query (k ≤ 1 = best match, else k-NN).
func (d *Dataset) Match(ctx context.Context, q []float64, mode onex.MatchMode, k int) ([]onex.Match, error) {
	r := d.Exec(ctx, onex.Request{Family: onex.FamilyMatch, Query: q, Mode: mode, K: k})
	return r.Matches, r.Err
}

// MatchObserved is Match with an optional trace.
func (d *Dataset) MatchObserved(ctx context.Context, q []float64, mode onex.MatchMode, k int, rec *obs.Trace) ([]onex.Match, error) {
	return d.Match(obs.ContextWithTrace(ctx, rec), q, mode, k)
}

// RangeObserved answers a range query with an optional trace.
func (d *Dataset) RangeObserved(ctx context.Context, q []float64, length int, radius float64, exact bool, rec *obs.Trace) ([]onex.RangeMatch, error) {
	r := d.Exec(obs.ContextWithTrace(ctx, rec), onex.Request{Family: onex.FamilyRange, Query: q, Length: length, Radius: radius, Exact: exact})
	return r.Ranges, r.Err
}

// Recommend answers a threshold-recommendation query (length < 0 =
// dataset-global) through the result cache.
func (d *Dataset) Recommend(degree onex.Degree, length int) (onex.Range, error) {
	base, gen, err := d.Base()
	if err != nil {
		return onex.Range{}, err
	}
	key := recommendKey(d.scope(base, gen), int(degree), length)
	if v, ok := d.lookup(nil, key); ok {
		return v.(onex.Range), nil
	}
	rng, err := base.RecommendThreshold(degree, length)
	if err == nil {
		d.hub.cache.put(key, rng)
	}
	return rng, err
}
