// Package rspace is what is left of the former index layer over a grouping:
// the names the benchmark module (benchmark/, a module of its own) compiles
// against — New, Refresh, Options and (*Base).SizeBytes — each delegating to
// internal/grouping, whose Result is the index every query shard reads. No
// package of the root module imports it. ROADMAP item 13(a) deletes it with
// the benchmark's next change.
package rspace

import (
	"errors"

	"onex/internal/grouping"
	"onex/internal/ts"
)

// Base wraps a grouping result for the benchmark's index-size metric.
type Base struct {
	grouped *grouping.Result
}

// Options configures New. Nothing is configurable.
type Options struct{}

// New wraps a grouping result.
func New(d *ts.Dataset, gr *grouping.Result, _ Options) (*Base, error) {
	if d == nil || gr == nil {
		return nil, errors.New("rspace: nil dataset or grouping result")
	}
	return &Base{grouped: gr}, nil
}

// Refresh wraps an incrementally maintained grouping result. It is New.
func Refresh(d *ts.Dataset, gr *grouping.Result, opts Options, _ *Base, _ *grouping.Delta) (*Base, error) {
	return New(d, gr, opts)
}

// SizeBytes is the grouping's grouping.Result.SizeBytes.
func (b *Base) SizeBytes() int64 { return b.grouped.SizeBytes() }
