// Command onex-bench regenerates the paper's evaluation tables and figures
// (Sec. 6) on this implementation.
//
// Usage:
//
//	onex-bench [flags]
//
//	-exp string      experiment id: fig2..fig8, table1..table4, "parallel", "stream", "shard", "load", "kernel", or "all" (default "all")
//	-datasets string comma-separated subset of the six paper datasets
//	-st float        similarity threshold (default 0.2, the paper's sweet spot)
//	-scale float     multiplier on bench-scale dataset cardinalities (default 1)
//	-lengths int     number of indexed subsequence lengths (default 16)
//	-queries int     similarity queries per dataset, half in/half out (default 20)
//	-repeats int     timing repetitions per query (default 3; paper uses 5)
//	-seed int        RNG seed (default 1)
//	-full            paper-scale datasets and all lengths (slow: hours)
//	-quiet           suppress progress lines
//
// Examples:
//
//	onex-bench -exp fig2
//	onex-bench -exp table4 -full
//	onex-bench -datasets ItalyPower,ECG -exp all
//	onex-bench -exp parallel -parallel-out BENCH_parallel.json
//
// The "parallel" experiment is this implementation's own sequential-vs-
// parallel sweep (not a paper figure): it times the offline build, single
// BestMatch queries and BestMatchBatch at worker counts 1..GOMAXPROCS,
// verifies the answers are identical at every count, and writes the
// machine-readable report to -parallel-out. The "shard" experiment sweeps
// the intra-dataset sharded engine at shard counts 1/2/4/8 the same way
// (build + query/batch/k-NN latency, per-shard index footprint, built-in
// unsharded-equivalence check), writing to -shard-out. The "load"
// experiment boots a live in-process onex-server and drives it with
// closed-loop mixed traffic (sync queries, uniform batches, async jobs) at
// client counts 1..16, writing latency-vs-offered-load to -load-out. The
// "kernel" experiment is the single-goroutine DTW microbench: the fused
// cache-blocked kernel against the verbatim pre-optimization two-row
// kernel, with a built-in bitwise equivalence check, writing to
// -kernel-out. (The worker-served shard transport is measured by the
// repository's benchmark, `bash benchmark/run.sh -workload remote`.)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"onex/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "onex-bench:", err)
		os.Exit(1)
	}
}

// emitReport prints a sweep's tables, writes its JSON report to path and
// summarizes — the shared tail of the report-emitting experiments.
func emitReport(stdout io.Writer, tables []bench.Table, path string,
	write func(io.Writer) error, summary string) error {

	for _, t := range tables {
		if err := t.Format(stdout); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "wrote %s (%s)\n", path, summary)
	return err
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("onex-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id (fig2..fig8, table1..table4, all)")
		datasets = fs.String("datasets", "", "comma-separated dataset subset")
		st       = fs.Float64("st", 0.2, "similarity threshold")
		scale    = fs.Float64("scale", 1, "dataset scale multiplier")
		lengths  = fs.Int("lengths", 16, "number of indexed lengths")
		queries  = fs.Int("queries", 20, "queries per dataset")
		repeats  = fs.Int("repeats", 3, "timing repetitions per query")
		seed     = fs.Int64("seed", 1, "RNG seed")
		full     = fs.Bool("full", false, "paper-scale datasets and all lengths")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		parOut   = fs.String("parallel-out", "BENCH_parallel.json",
			"output path of the -exp parallel JSON report")
		streamOut = fs.String("stream-out", "BENCH_stream.json",
			"output path of the -exp stream JSON report")
		shardOut = fs.String("shard-out", "BENCH_shard.json",
			"output path of the -exp shard JSON report")
		loadOut = fs.String("load-out", "BENCH_load.json",
			"output path of the -exp load JSON report")
		kernelOut = fs.String("kernel-out", "BENCH_kernel.json",
			"output path of the -exp kernel JSON report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %v", *scale)
	}

	cfg := bench.Config{
		ST:          *st,
		Seed:        *seed,
		Scale:       *scale,
		Full:        *full,
		LengthCount: *lengths,
		Queries:     *queries,
		Repeats:     *repeats,
	}
	if !*quiet {
		cfg.Progress = stderr
	}
	if *datasets != "" {
		for _, d := range strings.Split(*datasets, ",") {
			if d = strings.TrimSpace(d); d != "" {
				cfg.Datasets = append(cfg.Datasets, d)
			}
		}
	}
	if *exp == "stream" {
		rep, tables, err := bench.RunStreamSweep(cfg)
		if err != nil {
			return err
		}
		return emitReport(stdout, tables, *streamOut,
			func(w io.Writer) error { return bench.WriteStreamReport(rep, w) },
			fmt.Sprintf("best sweep point: incremental append %.1fx cheaper than per-batch rebuilds",
				rep.LargestSpeedup))
	}
	if *exp == "load" {
		rep, tables, err := bench.RunServeLoad(cfg)
		if err != nil {
			return err
		}
		return emitReport(stdout, tables, *loadOut,
			func(w io.Writer) error { return bench.WriteLoadReport(rep, w) },
			fmt.Sprintf("gomaxprocs=%d, peak %.0f req/s with p99 %.2fms",
				rep.GOMAXPROCS, rep.PeakThroughput, rep.P99AtPeak))
	}
	if *exp == "kernel" {
		rep, tables, err := bench.RunKernelSweep(cfg)
		if err != nil {
			return err
		}
		return emitReport(stdout, tables, *kernelOut,
			func(w io.Writer) error { return bench.WriteKernelReport(rep, w) },
			fmt.Sprintf("bit-identical=%v, min speedup %.2fx, geomean %.2fx",
				rep.Equivalent, rep.MinSpeedup, rep.GeoMeanSpeedup))
	}
	if *exp == "shard" {
		rep, tables, err := bench.RunShardSweep(cfg)
		if err != nil {
			return err
		}
		return emitReport(stdout, tables, *shardOut,
			func(w io.Writer) error { return bench.WriteShardReport(rep, w) },
			fmt.Sprintf("gomaxprocs=%d, answers unsharded-equivalent=%v, best query speedup %.2fx, best build speedup %.2fx",
				rep.GOMAXPROCS, rep.Equivalent, rep.BestQuerySpeedup, rep.BestBuildSpeedup))
	}
	if *exp == "parallel" {
		rep, tables, err := bench.RunParallelSweep(cfg)
		if err != nil {
			return err
		}
		return emitReport(stdout, tables, *parOut,
			func(w io.Writer) error { return bench.WriteParallelReport(rep, w) },
			fmt.Sprintf("gomaxprocs=%d, best query speedup %.2fx, best batch speedup %.2fx",
				rep.GOMAXPROCS, rep.BestQuerySpeedup, rep.BestBatchSpeedup))
	}

	session, err := bench.NewSession(cfg)
	if err != nil {
		return err
	}

	if *exp == "all" {
		return bench.RunAll(session, stdout)
	}
	e, ok := bench.ByID(*exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q (have: %s, all)", *exp, strings.Join(bench.IDs(), ", "))
	}
	tables, err := e.Run(session)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Format(stdout); err != nil {
			return err
		}
	}
	return nil
}
