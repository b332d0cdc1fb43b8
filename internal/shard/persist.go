package shard

import (
	"errors"
	"io"
	"time"

	"onex/internal/core"
)

// Save serializes the engine as one ONEX base stream: the global
// (normalized) dataset and grouping plus the shard count. Per-shard
// restrictions and index layers are derived state and are re-derived on
// load; keeping the snapshot a single stream preserves the atomic-rename
// semantics serving layers (internal/hub) depend on. Threshold-adapted
// engines cannot be saved (persist the original base and re-adapt after
// load).
func (e *Engine) Save(w io.Writer) error {
	if e.adapted {
		return errors.New("shard: threshold-adapted engines cannot be saved; save the original base")
	}
	return core.EncodeSnapshot(w, &core.Snapshot{
		Shards:    e.shards,
		Cfg:       e.cfg,
		NormMin:   e.normMin,
		NormMax:   e.normMax,
		BuildTime: e.buildTime,
		Dataset:   e.data,
		Grouped:   e.grouped,
	})
}

// Load reopens an engine written by Save under the stream's shard count,
// re-deriving the per-shard index layers from the stored global payload; it
// answers identically to the saved engine.
//
// workers is serving-time configuration, never persisted: a non-empty list
// re-ships the re-derived shard state to remote worker processes (fresh
// generations — a coordinator restart is exactly the worker-restart path in
// reverse), so the same snapshot serves in-process or distributed.
func Load(r io.Reader, workers []string) (*Engine, error) {
	snap, err := core.DecodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	shards := snap.Shards
	if shards > snap.Dataset.N() {
		shards = snap.Dataset.N() // defensive: Build clamps the same way
	}
	e := &Engine{
		shards:     shards,
		workerURLs: append([]string(nil), workers...),
		cfg:        snap.Cfg,
		normMin:    snap.NormMin,
		normMax:    snap.NormMax,
		data:       snap.Dataset,
		grouped:    snap.Grouped,
		savedAt:    snap.SavedAt,
	}
	start := time.Now()
	if err := e.assemble(nil, nil, nil); err != nil {
		return nil, err
	}
	e.buildTime = time.Since(start)
	if snap.BuildTime > 0 {
		// Report the original offline construction cost, not the (much
		// cheaper) index re-derivation — the point of snapshots is skipping
		// it.
		e.buildTime = snap.BuildTime
	}
	return e, nil
}

// SavedAt reports when the engine was serialized (zero if it was built, not
// loaded).
func (e *Engine) SavedAt() time.Time { return e.savedAt }
