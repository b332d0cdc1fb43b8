// Command benchmark is the one benchmark of this repository: five
// workloads, each measured end to end with tracing off and, in a separate
// traced run, layer by layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "run one workload (scan, refine, serve, ingest, remote) and print its result as one JSON object on the last line; empty runs all five")
	seed := flag.Int64("seed", 1, "seed of every generated input (2 is the hold-out for later claims)")
	seconds := flag.Float64("seconds", 0, "how long the timed passes of a workload go on; 0 makes exactly the size table's passes")
	trace := flag.Int("trace", 0, "1 makes the traced run: per-layer metrics, spans written to <outdir>/trace-<workload>.json")
	tiny := flag.Bool("tiny", false, "self-test sizes; the numbers mean nothing")
	outDir := flag.String("outdir", "benchmark/out", "where trace files and scratch snapshots go")
	out := flag.String("out", "", "append this run to a result-set file (for -compare)")
	compare := flag.Bool("compare", false, "compare two result-set files: -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	sz := fullSizes
	if *tiny {
		sz = tinySizes
	}
	env := newEnvelope(*seed, *tiny, *trace == 1)
	run := runRecord{Workloads: map[string]*result{}}
	failed := false
	for _, name := range names {
		rc := &runCtx{seed: *seed, seconds: *seconds, traced: *trace == 1, sz: sz, outDir: *outDir}
		if rc.traced {
			rc.tr = newTracer()
		}
		res, err := runWorkload(rc, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		rc.tr.finish()
		if err := rc.tr.write(*outDir, name, env); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printResult(os.Stdout, res, rc.traced)
		run.Workloads[name] = res
		failed = failed || res.Failed > 0
	}
	if *out != "" {
		if err := appendRun(*out, env, run); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if *workload != "" {
		printContractLine(run.Workloads[*workload], *trace == 1)
	}
	if failed {
		os.Exit(1)
	}
}

// printResult prints every metric of one workload by name, with its unit
// and the sample count behind it.
func printResult(w *os.File, res *result, traced bool) {
	note := ""
	if res.Noisy {
		note = "  NOISY: the calibration loop ran " + fmt.Sprintf("%.1f ms before, %.1f ms after", res.CalibBefore, res.CalibAfter)
	}
	fmt.Fprintf(w, "== %s  wall %.1f s  GOMAXPROCS %d  attempted %d  failed %d%s\n",
		res.Workload, res.WallS, runtime.GOMAXPROCS(0), res.Attempted, res.Failed, note)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	show := func(m map[string]value) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Slice(names, func(a, b int) bool { return defIndex(names[a]) < defIndex(names[b]) })
		for _, n := range names {
			v := m[n]
			fmt.Fprintf(w, "   %-32s %14.4f %-6s n=%d\n", n, v.Value, v.Unit, v.Samples)
		}
	}
	show(res.Metrics)
	fmt.Fprintf(w, "   %-32s %14.4f %-6s n=%d\n", "failed_share", res.failedShare(), "share", res.Attempted)
	if traced {
		show(res.Layers)
		fams := make([]string, 0, len(res.Work))
		for f := range res.Work {
			fams = append(fams, f)
		}
		sort.Strings(fams)
		for _, f := range fams {
			var parts []string
			for _, k := range []string{"queries", "repsExamined", "prunedByKim", "prunedByKeogh", "dtwComputed", "membersTested", "lengthsVisited"} {
				parts = append(parts, fmt.Sprintf("%s=%d", k, res.Work[f][k]))
			}
			fmt.Fprintf(w, "   work[%s] %s\n", f, strings.Join(parts, " "))
		}
	}
}

func defIndex(name string) int {
	for i := range metricDefs {
		if metricDefs[i].name == name {
			return i
		}
	}
	return len(metricDefs)
}

// printContractLine prints the one JSON object BENCHMARK.json's driver
// reads from the last line: with tracing off every end_to_end metric, in
// the traced run every per_layer metric. A metric this workload does not
// measure reads 0 there (only per_layer metrics can be unmeasured).
func printContractLine(res *result, traced bool) {
	type contractValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]contractValue{}
	for i := range metricDefs {
		d := &metricDefs[i]
		switch {
		case !traced && d.kind == universal, traced && d.kind == specific:
			metrics[d.name] = contractValue{res.Metrics[d.name].Value, d.unit}
		case traced && d.kind == layer:
			metrics[d.name] = contractValue{res.Layers[d.name].Value, d.unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}
