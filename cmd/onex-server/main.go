// Command onex-server serves ONEX bases over HTTP — the service form of the
// paper's interactive exploration tool. The entire serving surface lives in
// internal/api (so it is testable and benchmarkable in-process); this
// binary only parses flags, boots the server and handles signals.
//
// Usage:
//
//	onex-server [-addr :8080] [-data file.tsv | -generate ECG] [-st 0.2]
//	            [-lengths 16] [-scale 0.25] [-seed 1]
//	            [-snapshot-dir dir] [-cache-entries 1024] [-build-workers 2]
//	            [-shard-workers http://w1:9102,http://w2:9102]
//	            [-job-workers 2] [-max-jobs 1024] [-job-ttl 10m]
//	            [-log-level info] [-log-format text] [-slow-query 0]
//	            [-pprof]
//	onex-server -role worker [-addr :9102] [-log-level info] [-log-format text]
//
// The flags describe the default dataset, registered at startup. With
// -role worker the binary instead serves the stateless shard-worker
// protocol (internal/shardrpc): a coordinator started with -shard-workers
// (or a /v1/datasets registration naming shardWorkers) ships per-shard
// state to the workers and scatters queries to them; answers are
// bit-identical to in-process serving. See README.md in this directory for
// a surface overview and docs/api.md for the endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"onex/internal/api"
	"onex/internal/shardrpc"
)

// buildLogger turns the -log-level/-log-format flags into the process-wide
// structured logger (also installed as the slog default so stray library
// logging shares the format).
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level must be debug, info, warn or error (got %q)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("-log-format must be json or text (got %q)", format)
	}
	logger := slog.New(h)
	slog.SetDefault(logger)
	return logger, nil
}

// serve runs hs until it fails or the process receives SIGINT/SIGTERM, then
// drains it; onShutdown (optional) runs after the listener stops accepting.
func serve(hs *http.Server, logger *slog.Logger, onShutdown func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	select {
	case err := <-errCh:
		logger.Error("onex-server: serve", "error", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		logger.Info("onex-server: shutting down (draining in-flight requests)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			logger.Warn("onex-server: shutdown", "error", err)
		}
		if onShutdown != nil {
			onShutdown()
		}
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		role         = flag.String("role", "coordinator", `"coordinator" serves the /v1 query surface; "worker" serves the shard-worker protocol (stateless until a coordinator ships shards)`)
		shardWorkers = flag.String("shard-workers", "",
			"comma-separated worker base URLs serving the default dataset's shards (empty = in-process)")
		dataPath     = flag.String("data", "", "UCR-format dataset file for the default dataset")
		genName      = flag.String("generate", "ECG", "synthetic dataset to generate when -data is unset")
		st           = flag.Float64("st", 0.2, "similarity threshold of the default dataset")
		lengths      = flag.Int("lengths", 16, "number of indexed lengths for the default dataset")
		scale        = flag.Float64("scale", 0.25, "synthetic dataset scale")
		seed         = flag.Int64("seed", 1, "RNG seed")
		snapshotDir  = flag.String("snapshot-dir", "", "directory for base snapshots (empty = no persistence)")
		cacheEntries = flag.Int("cache-entries", 1024, "query-result cache capacity (negative disables)")
		buildWorkers = flag.Int("build-workers", 2, "concurrent dataset builds")
		parallelism  = flag.Int("parallelism", 0, "per-query/build worker fan-out (0 = GOMAXPROCS)")
		shards       = flag.Int("shards", 0, "intra-dataset shard count of the default dataset (0/1 = one shard)")
		maxBody      = flag.Int64("max-body-bytes", api.DefaultMaxBody, "request body size cap")
		allowFS      = flag.Bool("allow-fs", false,
			"let /v1/datasets register from server filesystem paths (path/snapshot fields)")
		jobWorkers = flag.Int("job-workers", 2, "concurrent async query jobs")
		maxJobs    = flag.Int("max-jobs", 1024, "job table bound (live + retained terminal jobs)")
		jobTTL     = flag.Duration("job-ttl", 10*time.Minute, "how long finished job results stay pollable")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		slowQuery  = flag.Duration("slow-query", 0,
			"log requests at or above this duration at warn level with a slowQuery marker (0 = off)")
		pprofFlag = flag.Bool("pprof", false,
			"mount net/http/pprof under /debug/pprof/ (profiles expose memory contents; opt-in)")
		healthProbe = flag.Duration("health-probe", 0,
			"background shard-worker health-probe interval (0 = 1s default; only probes workers already contacted)")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "onex-server:", err)
		os.Exit(2)
	}

	switch *role {
	case "worker":
		worker := shardrpc.NewWorker(logger)
		logger.Info("onex-server: worker ready (no shards yet — a coordinator ships them)",
			"addr", *addr)
		serve(&http.Server{
			Addr:              *addr,
			Handler:           worker.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			// No ReadTimeout: shard shipments can be large and the protocol
			// is coordinator-to-worker only (not exposed to tenants).
			WriteTimeout: 120 * time.Second,
			IdleTimeout:  120 * time.Second,
		}, logger, nil)
		return
	case "coordinator":
	default:
		fmt.Fprintf(os.Stderr, "onex-server: -role must be coordinator or worker (got %q)\n", *role)
		os.Exit(2)
	}

	var workers []string
	if *shardWorkers != "" {
		for _, u := range strings.Split(*shardWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workers = append(workers, u)
			}
		}
	}

	srv, err := api.New(api.Config{
		DataPath: *dataPath, Generator: *genName, ST: *st, Lengths: *lengths,
		Scale: *scale, Seed: *seed, Parallelism: *parallelism, Shards: *shards,
		ShardWorkers: workers,
		SnapshotDir:  *snapshotDir, CacheEntries: *cacheEntries,
		BuildWorkers: *buildWorkers, MaxBody: *maxBody, AllowFS: *allowFS,
		JobWorkers: *jobWorkers, MaxJobs: *maxJobs, JobTTL: *jobTTL,
		Logger: logger, SlowQuery: *slowQuery, Pprof: *pprofFlag,
		HealthProbe: *healthProbe,
	})
	if err != nil {
		logger.Error("onex-server: startup", "error", err)
		os.Exit(1)
	}
	defer srv.Close()

	info, _ := srv.DefaultInfo()
	logger.Info("onex-server: ready",
		"dataset", srv.DefaultName(),
		"representatives", info.Representatives,
		"addr", *addr,
		"pprof", *pprofFlag)

	serve(&http.Server{
		Addr:              *addr,
		Handler:           srv.Routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      120 * time.Second,
		IdleTimeout:       120 * time.Second,
	}, logger, srv.Close) // Close aborts in-flight jobs and builds cleanly
}
