// Command onex-bench regenerates the paper's evaluation tables and figures
// (Sec. 6) on this implementation.
//
// Usage:
//
//	onex-bench [flags]
//
//	-exp string      experiment id: fig2..fig8, table1..table4, or "all" (default "all")
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
//
// Performance claims about this implementation come from the repository's
// benchmark (`bash benchmark/run.sh`), not from this command.
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
