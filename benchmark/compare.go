package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// runRecord is one run: the result of each workload it ran.
type runRecord struct {
	Workloads map[string]*result `json:"workloads"`
}

// resultSet is what -out writes and -compare reads: runs of one program
// under one envelope.
type resultSet struct {
	Envelope envelope    `json:"envelope"`
	Runs     []runRecord `json:"runs"`
}

// comparable reports why two envelopes cannot be compared, or "".
func comparable(a, b envelope) string {
	switch {
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS differs: %d and %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed differs: %d and %d", a.Seed, b.Seed)
	case a.SizesHash != b.SizesHash || a.Tiny != b.Tiny:
		return fmt.Sprintf("sizes differ: %s (tiny %v) and %s (tiny %v)", a.SizesHash, a.Tiny, b.SizesHash, b.Tiny)
	case a.Traced != b.Traced:
		return "one set is traced, the other is not"
	}
	return ""
}

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &rs, nil
}

// appendRun adds one run to the result-set file at path, creating it when
// it does not exist. A run made under another envelope is refused: one set
// holds runs that may be pooled.
func appendRun(path string, env envelope, run runRecord) error {
	rs := &resultSet{Envelope: env}
	if old, err := loadSet(path); err == nil {
		if why := comparable(old.Envelope, env); why != "" {
			return fmt.Errorf("%s holds runs this run cannot join: %s", path, why)
		}
		rs = old
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rs.Runs = append(rs.Runs, run)
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// quartiles are Python's statistics.quantiles(values, n=4) (the exclusive
// method), which the driver of BENCHMARK.json uses too. One value is its own
// quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// minCleanRuns is how many runs of a set must be free of the noisy mark
// for the marked ones to be left out; with fewer the metric is unresolved.
const minCleanRuns = 3

// collect gathers one metric of one workload over a set's runs. Runs the
// calibration loop marked noisy are left out when minCleanRuns others
// remain; otherwise every run counts and noisy is reported.
func (rs *resultSet) collect(workload, metric string, layers bool) (values []float64, noisy bool) {
	var marked []float64
	for _, run := range rs.Runs {
		res := run.Workloads[workload]
		if res == nil {
			continue
		}
		m := res.Metrics
		if layers {
			m = res.Layers
		}
		if v, ok := m[metric]; ok {
			if res.Noisy {
				marked = append(marked, v.Value)
			} else {
				values = append(values, v.Value)
			}
		}
	}
	if len(marked) > 0 && len(values) < minCleanRuns {
		return append(values, marked...), true
	}
	return values, false
}

// compareFiles prints, workload by workload, each end-to-end metric's
// median and quartiles in both sets and a verdict against the metric's
// bound: ok, REGRESSION when B's median is worse than A's by more than the
// bound, unresolved when either set's own spread exceeds the bound or the
// calibration loop marked too many runs noisy. Traced sets are compared on
// their exact counts only: end-to-end metrics are taken with tracing off.
// It returns the exit code: 2 when the sets cannot be compared, 1 on a
// regression or a higher failed share.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	if why := comparable(a.Envelope, b.Envelope); why != "" {
		fmt.Fprintf(w, "refusing to compare: %s\n", why)
		return 2
	}
	return compareSets(w, a, b)
}

func compareSets(w io.Writer, a, b *resultSet) int {
	fmt.Fprintf(w, "A: %d runs at %s   B: %d runs at %s   seed %d  GOMAXPROCS %d  sizes %s\n",
		len(a.Runs), a.Envelope.GitSHA, len(b.Runs), b.Envelope.GitSHA, a.Envelope.Seed, a.Envelope.GOMAXPROCS, a.Envelope.SizesHash)
	fmt.Fprintf(w, "%-7s %-20s %-6s %34s %34s %8s %6s  %s\n", "", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	regressions, unresolved, inexact := 0, 0, 0
	for _, wl := range workloadNames {
		for i := range metricDefs {
			d := &metricDefs[i]
			if d.kind == layer || a.Envelope.Traced {
				continue
			}
			va, noisyA := a.collect(wl, d.name, false)
			vb, noisyB := b.collect(wl, d.name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2 // share of A's median by which B is worse
			if d.higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case noisyA || noisyB:
				verdict = "unresolved (noisy runs)"
				unresolved++
			case (a3-a1)/a2 > d.bound || (b3-b1)/b2 > d.bound:
				verdict = "unresolved (spread exceeds bound)"
				unresolved++
			case worse > d.bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-7s %-20s %-6s %34s %34s %+7.1f%% %5.1f%%  %s\n", wl, d.name, d.unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", a2, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3),
				(b2-a2)/a2*100, d.bound*100, verdict)
		}
		// Counts that repeat exactly for a seed must agree over every run
		// of both sets.
		for i := range metricDefs {
			d := &metricDefs[i]
			if !d.exactOn(wl) {
				continue
			}
			va, _ := a.collect(wl, d.name, d.kind == layer)
			vb, _ := b.collect(wl, d.name, d.kind == layer)
			all := append(append([]float64(nil), va...), vb...)
			for _, v := range all {
				if v != all[0] {
					fmt.Fprintf(w, "%-7s %-20s does not repeat exactly: %v\n", wl, d.name, all)
					inexact++
					break
				}
			}
		}
		fa, fb := a.failedShare(wl), b.failedShare(wl)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-7s %-20s %-6s %34.6f %34.6f %8s %6s  %s\n", wl, "failed_share", "share", fa, fb, "", "", verdict)
	}
	fmt.Fprintf(w, "%d regressions, %d unresolved, %d counts that do not repeat exactly\n", regressions, unresolved, inexact)
	if regressions > 0 {
		return 1
	}
	return 0
}

// failedShare pools a workload's failed and attempted operations over the
// set's runs.
func (rs *resultSet) failedShare(workload string) float64 {
	var failed, attempted int
	for _, run := range rs.Runs {
		if res := run.Workloads[workload]; res != nil {
			failed += res.Failed
			attempted += res.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
