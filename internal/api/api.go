// Package api is the HTTP face of an ONEX hub — the service form of the
// paper's interactive exploration tool, extracted from cmd/onex-server so
// the serving surface is testable and benchmarkable in-process.
//
// The /v1 surface is organized around a uniform request/job model:
//
//   - Every query family (match/k-NN, range, seasonal) has a synchronous
//     endpoint, a batch endpoint sharing one positional-errors envelope
//     ({"queries":[...]} in, {"count","errors","results":[{result|error}]}
//     out), and an asynchronous jobs endpoint (POST …/jobs → 202 + job id,
//     GET /v1/jobs/{id} to poll progress, DELETE to cancel).
//   - Errors are a consistent envelope {"error": message, "code": code}
//     with machine-readable codes (invalid_argument, not_found, not_ready,
//     canceled, …).
//   - Per-endpoint latency histograms and job/cache counters are exposed
//     on GET /v1/stats.
package api

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"onex"
	"onex/internal/hub"
	"onex/internal/jobs"
	"onex/internal/metrics"
	"onex/internal/obs"
	"onex/internal/shardrpc"
)

// DefaultMaxBody caps request bodies at 8 MiB: ~1M-point query vectors.
const DefaultMaxBody = 8 << 20

// maxShards bounds client-requested shard counts (the engine additionally
// clamps to the dataset's series count).
const maxShards = 256

// Config aggregates the server's startup settings (a struct rather than
// flags so tests and benchmarks can build servers directly).
type Config struct {
	// DataPath / Generator, ST, Lengths, Scale and Seed describe the
	// default dataset, registered at startup.
	DataPath, Generator string
	ST                  float64
	Lengths             int
	Scale               float64
	Seed                int64
	// Parallelism is the default dataset's build/query worker fan-out
	// (0 = GOMAXPROCS).
	Parallelism int
	// Shards is the default dataset's intra-dataset shard count
	// (0/1 = one shard; answers are identical at every count).
	Shards int
	// ShardWorkers lists remote worker base URLs serving the default
	// dataset's shards over the worker protocol (internal/shardrpc); shard s
	// goes to worker s mod len(ShardWorkers). Empty keeps every shard
	// in-process. Answers are bit-identical either way. Operator-controlled
	// like DataPath, so not subject to AllowFS.
	ShardWorkers []string
	SnapshotDir  string
	CacheEntries int
	BuildWorkers int
	MaxBody      int64
	// AllowFS lets v1 registration requests name server filesystem paths
	// (path/snapshot). Off by default: a remote client must not be able to
	// read arbitrary host files. The startup DataPath is unaffected
	// (operator-controlled).
	AllowFS bool
	// JobWorkers, MaxJobs and JobTTL tune the async job subsystem
	// (defaults: 2 workers, 1024 jobs, 10 minute result retention).
	JobWorkers int
	MaxJobs    int
	JobTTL     time.Duration
	// Logger receives the structured request log (nil = discard, keeping
	// tests and benchmarks quiet).
	Logger *slog.Logger
	// SlowQuery raises requests at or above this duration to warn-level
	// log lines with a slowQuery marker (0 = no slow threshold).
	SlowQuery time.Duration
	// Pprof mounts the net/http/pprof profiling endpoints under
	// /debug/pprof/. Off by default: profiles expose memory contents.
	Pprof bool
	// HealthProbe sets the background shard-worker health-probe interval
	// (0 = shardrpc.DefaultProbeInterval). Probes only contact workers the
	// fleet registry already knows about, so local-only deployments pay
	// nothing beyond an idle ticker.
	HealthProbe time.Duration
}

// Server is the HTTP face of a hub. Handlers are safe for concurrent use.
type Server struct {
	hub         *hub.Hub
	jobs        *jobs.Manager
	metrics     *metrics.Registry
	defaultName string
	maxBody     int64
	allowFS     bool
	started     time.Time

	logger    *slog.Logger
	slowQuery time.Duration
	pprof     bool
	slow      *obs.SlowLog

	reqMu     sync.Mutex
	reqCounts map[reqKey]uint64

	// stopProbes releases this server's hold on the shared shard-worker
	// health-probe loop (see shardrpc.FleetHealth.StartProbes).
	stopProbes func()
}

// New starts a hub, registers the default dataset per cfg and waits for it
// to become ready, mirroring the old single-dataset startup.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	h := hub.New(hub.Config{
		BuildWorkers: cfg.BuildWorkers,
		SnapshotDir:  cfg.SnapshotDir,
		CacheEntries: cfg.CacheEntries,
	})
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		hub: h,
		jobs: jobs.NewManager(jobs.Config{
			Workers: cfg.JobWorkers, MaxJobs: cfg.MaxJobs, TTL: cfg.JobTTL,
		}),
		metrics:   &metrics.Registry{},
		maxBody:   cfg.MaxBody,
		allowFS:   cfg.AllowFS,
		started:   time.Now(),
		logger:    logger,
		slowQuery: cfg.SlowQuery,
		pprof:     cfg.Pprof,
		slow:      obs.NewSlowLog(slowLogCap),
	}
	shardrpc.Fleet().SetLogger(logger)
	s.stopProbes = shardrpc.Fleet().StartProbes(cfg.HealthProbe)

	spec := hub.Spec{
		Scale: cfg.Scale,
		Seed:  cfg.Seed,
		Opts: onex.Options{ST: cfg.ST, Seed: cfg.Seed, Parallelism: cfg.Parallelism,
			Shards: cfg.Shards, ShardWorkers: cfg.ShardWorkers},
		LengthCount: cfg.Lengths,
	}
	name := cfg.Generator
	if cfg.DataPath != "" {
		spec.Path = cfg.DataPath
		name = DatasetNameFromPath(cfg.DataPath)
	} else {
		spec.Generator = cfg.Generator
	}
	ds, err := h.Register(name, spec)
	if err != nil {
		s.Close()
		return nil, err
	}
	if err := ds.Wait(context.Background()); err != nil {
		s.Close()
		return nil, fmt.Errorf("default dataset %q: %w", name, err)
	}
	s.defaultName = name
	return s, nil
}

// Close aborts in-flight jobs and builds and releases the server's
// resources. Safe to call more than once.
func (s *Server) Close() {
	if s.stopProbes != nil {
		s.stopProbes()
	}
	s.jobs.Close()
	s.hub.Close()
}

// DefaultName returns the name of the dataset registered at startup.
func (s *Server) DefaultName() string { return s.defaultName }

// DefaultInfo returns the default dataset's current Info.
func (s *Server) DefaultInfo() (hub.Info, error) {
	ds, err := s.hub.Get(s.defaultName)
	if err != nil {
		return hub.Info{}, err
	}
	return ds.Info(), nil
}

// Hub exposes the underlying hub (tests and the load benchmark reach
// through it).
func (s *Server) Hub() *hub.Hub { return s.hub }

// DatasetNameFromPath derives a catalog-safe name from a file path.
func DatasetNameFromPath(path string) string {
	base := filepath.Base(path)
	// filepath.Base only understands the host separator; strip Windows-style
	// components regardless of platform.
	if i := strings.LastIndexByte(base, '\\'); i >= 0 {
		base = base[i+1:]
	}
	out := make([]byte, 0, len(base))
	for i := 0; i < len(base); i++ {
		c := base[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 || !isAlnum(out[0]) {
		out = append([]byte{'d'}, out...)
	}
	if len(out) > 64 {
		out = out[:64]
	}
	return string(out)
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// dataset resolves the {name} path value.
func (s *Server) dataset(name string) (*hub.Dataset, error) {
	return s.hub.Get(name)
}
