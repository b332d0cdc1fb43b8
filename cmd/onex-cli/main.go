// Command onex-cli is an interactive terminal explorer for ONEX — the
// reproduction of the paper's analyst-facing tool. It loads a UCR-format
// file or generates a synthetic paper dataset, builds the ONEX base, and
// answers the three query classes interactively.
//
// Usage:
//
//	onex-cli [-data file.tsv | -generate ItalyPower] [-st 0.2] [-lengths 16] [-scale 0.25]
//	         [-parallelism 0] [-rebuild-drift 0] [-shards 0]
//
// Commands at the prompt:
//
//	match <len> <v1,v2,...|series:start>   best match, any length (Q1)
//	matchx <v1,v2,...|series:start:len>    best match, exact length
//	seasonal <seriesID> <len>              recurring patterns of a series (Q2)
//	seasonalall <len>                      dataset-wide recurring patterns
//	recommend <S|M|L> [len]                threshold ranges (Q3)
//	threshold <st'>                        adapt the base to a new threshold
//	stats                                  base statistics
//	help, quit
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"onex"
	"onex/internal/dataset"
	"onex/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "onex-cli:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	var (
		dataPath     string
		genName      = "ItalyPower"
		st           = 0.2
		lengths      = 16
		scale        = 0.25
		seed         = int64(1)
		parallelism  = 0
		rebuildDrift = 0.0
		shards       = 0
	)
	// Minimal flag parsing so the binary stays self-contained.
	for i := 0; i < len(args); i++ {
		need := func() (string, error) {
			if i+1 >= len(args) {
				return "", fmt.Errorf("flag %s needs a value", args[i])
			}
			i++
			return args[i], nil
		}
		var err error
		var v string
		switch args[i] {
		case "-data":
			if dataPath, err = need(); err != nil {
				return err
			}
		case "-generate":
			if genName, err = need(); err != nil {
				return err
			}
		case "-st":
			if v, err = need(); err != nil {
				return err
			}
			if st, err = strconv.ParseFloat(v, 64); err != nil {
				return err
			}
		case "-lengths":
			if v, err = need(); err != nil {
				return err
			}
			if lengths, err = strconv.Atoi(v); err != nil {
				return err
			}
		case "-scale":
			if v, err = need(); err != nil {
				return err
			}
			if scale, err = strconv.ParseFloat(v, 64); err != nil {
				return err
			}
		case "-seed":
			if v, err = need(); err != nil {
				return err
			}
			if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				return err
			}
		case "-parallelism":
			// Build/query worker fan-out, mirroring onex-server's flag
			// (0 = GOMAXPROCS; answers identical at every value).
			if v, err = need(); err != nil {
				return err
			}
			if parallelism, err = strconv.Atoi(v); err != nil {
				return err
			}
		case "-rebuild-drift":
			// Amortized-rebuild threshold of incremental maintenance
			// (0 = default 0.25, negative disables), as onex-server exposes.
			if v, err = need(); err != nil {
				return err
			}
			if rebuildDrift, err = strconv.ParseFloat(v, 64); err != nil {
				return err
			}
		case "-shards":
			// Intra-dataset shard count (0/1 = unsharded).
			if v, err = need(); err != nil {
				return err
			}
			if shards, err = strconv.Atoi(v); err != nil {
				return err
			}
		case "-h", "-help", "--help":
			fmt.Fprintln(stdout, "usage: onex-cli [-data file | -generate name] [-st 0.2] [-lengths 16] [-scale 0.25] [-seed 1] [-parallelism 0] [-rebuild-drift 0] [-shards 0]")
			return nil
		default:
			return fmt.Errorf("unknown flag %q", args[i])
		}
	}

	series, name, err := loadSeries(dataPath, genName, scale, seed)
	if err != nil {
		return err
	}
	maxLen := 0
	for _, s := range series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	fmt.Fprintf(stdout, "building ONEX base over %q: %d series, ST=%.2f…\n", name, len(series), st)
	base, err := onex.Build(name, series, onex.Options{
		ST:           st,
		Lengths:      spread(maxLen, lengths),
		Seed:         seed,
		Parallelism:  parallelism,
		RebuildDrift: rebuildDrift,
		Shards:       shards,
	})
	if err != nil {
		return err
	}
	bs := base.Stats()
	fmt.Fprintf(stdout, "ready: %d representatives over %d subsequences (%.2f MB) in %v\n",
		bs.Representatives, bs.Subsequences, float64(bs.IndexBytes)/(1<<20), bs.BuildTime)
	fmt.Fprintln(stdout, `type "help" for commands`)

	return repl(base, series, parallelism, stdin, stdout)
}

func loadSeries(dataPath, genName string, scale float64, seed int64) ([]onex.Series, string, error) {
	if dataPath != "" {
		d, err := dataset.LoadUCRFile(dataPath)
		if err != nil {
			return nil, "", err
		}
		out := make([]onex.Series, 0, d.N())
		for _, s := range d.Series {
			out = append(out, onex.Series{Label: s.Label, Values: s.Values})
		}
		return out, d.Name, nil
	}
	sp, ok := dataset.ByName(genName)
	if !ok {
		return nil, "", fmt.Errorf("unknown dataset %q (have %s)", genName, strings.Join(dataset.Names(), ", "))
	}
	d := sp.Scaled(scale).Generate(seed)
	out := make([]onex.Series, 0, d.N())
	for _, s := range d.Series {
		out = append(out, onex.Series{Label: s.Label, Values: s.Values})
	}
	return out, sp.Name, nil
}

func spread(max, count int) []int {
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

// repl serves the interactive commands over base; parallelism is the
// -parallelism flag, which a base loaded by the load command keeps.
func repl(base *onex.Base, series []onex.Series, parallelism int, stdin io.Reader, stdout io.Writer) error {
	sc := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(stdout, "onex> ")
		if !sc.Scan() {
			fmt.Fprintln(stdout)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, rest := fields[0], fields[1:]
		var err error
		switch cmd {
		case "quit", "exit", "q":
			return nil
		case "help":
			printHelp(stdout)
		case "stats":
			printStats(base, stdout)
		case "match":
			err = doMatch(base, series, rest, onex.MatchAny, stdout)
		case "matchx":
			err = doMatch(base, series, rest, onex.MatchExact, stdout)
		case "knn":
			err = doKNN(base, series, rest, stdout)
		case "range":
			err = doRange(base, series, rest, stdout)
		case "seasonal":
			err = doSeasonal(base, rest, stdout)
		case "seasonalall":
			err = doSeasonalAll(base, rest, stdout)
		case "recommend":
			err = doRecommend(base, rest, stdout)
		case "spspace":
			err = doSPSpace(base, stdout)
		case "plot":
			err = doPlot(series, rest, stdout)
		case "threshold":
			base, err = doThreshold(base, rest, stdout)
		case "save":
			err = doSave(base, rest, stdout)
		case "load":
			var loaded *onex.Base
			if loaded, err = doLoad(rest, parallelism, stdout); err == nil {
				base = loaded
			}
		default:
			err = fmt.Errorf("unknown command %q (try help)", cmd)
		}
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
		}
	}
}

func printHelp(w io.Writer) {
	fmt.Fprint(w, `commands:
  match <series:start:len | v1,v2,...>    best match of any length (Q1)
  matchx <series:start:len | v1,v2,...>   best match of the query's length
  knn <k> <series:start:len | v1,...>     k nearest matches of any length
  range <radius> <series:start:len|v1,..> all matches within radius
  seasonal <seriesID> <len>               recurring patterns of one series (Q2)
  seasonalall <len>                       dataset-wide recurring patterns
  recommend <S|M|L> [len]                 similarity threshold ranges (Q3)
  spspace                                 per-length ST_half/ST_final table (Fig 1)
  plot <series:start:len | v1,v2,...>     render a sequence in the terminal
  threshold <st'>                         adapt base to a new threshold (Sec 5.2)
  save <file>                             persist the base
  load <file>                             reopen a persisted base
  stats                                   base statistics
  quit
`)
}

func printStats(base *onex.Base, w io.Writer) {
	s := base.Stats()
	fmt.Fprintf(w, "ST=%.3f  representatives=%d  subsequences=%d  index=%.2f MB\n",
		base.ST(), s.Representatives, s.Subsequences, float64(s.IndexBytes)/(1<<20))
	if s.Shards > 1 {
		fmt.Fprintf(w, "shards: %d", s.Shards)
		for _, sh := range s.PerShard {
			fmt.Fprintf(w, "  [%d: %d series, %d groups]", sh.Shard, sh.Series, sh.Groups)
		}
		fmt.Fprintln(w)
	}
	if s.Drift > 0 || s.Rebuilds > 0 {
		fmt.Fprintf(w, "drift=%.3f  rebuilds=%d  lastRebuild=%v\n", s.Drift, s.Rebuilds, s.LastRebuild)
	}
	// Medium's global range is [ST_half, ST_final].
	if m, err := base.RecommendThreshold(onex.Medium, -1); err == nil {
		fmt.Fprintf(w, "SP-Space: ST_half=%.4f  ST_final=%.4f  build=%v\n", m.Low, m.High, s.BuildTime)
	}
	ls := base.Lengths()
	fmt.Fprintf(w, "indexed lengths (%d): %v\n", len(ls), ls)
}

// parseQuery accepts "series:start:len" (a subsequence reference) or a
// comma-separated value list (an analyst-designed sequence, Sec. 1.1).
func parseQuery(series []onex.Series, arg string) ([]float64, error) {
	if strings.Contains(arg, ":") {
		parts := strings.Split(arg, ":")
		if len(parts) != 3 {
			return nil, errors.New("subsequence reference must be series:start:len")
		}
		sid, err1 := strconv.Atoi(parts[0])
		start, err2 := strconv.Atoi(parts[1])
		length, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, errors.New("subsequence reference must be integers series:start:len")
		}
		if sid < 0 || sid >= len(series) {
			return nil, fmt.Errorf("series %d out of range", sid)
		}
		v := series[sid].Values
		if start < 0 || length < 1 || start+length > len(v) {
			return nil, fmt.Errorf("window [%d,%d+%d) out of range", start, start, length)
		}
		return append([]float64(nil), v[start:start+length]...), nil
	}
	var q []float64
	for _, f := range strings.Split(arg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		q = append(q, v)
	}
	return q, nil
}

func doMatch(base *onex.Base, series []onex.Series, args []string, mode onex.MatchMode, w io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: match <series:start:len | v1,v2,...>")
	}
	q, err := parseQuery(series, args[0])
	if err != nil {
		return err
	}
	m, err := base.BestMatch(q, mode)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "best match: series %d [%d:%d) length %d, normalized DTW %.4f\n",
		m.SeriesID, m.Start, m.Start+m.Length, m.Length, m.Distance)
	fmt.Fprint(w, viz.Compare(q, m.Values, m.Distance))
	return nil
}

func doKNN(base *onex.Base, series []onex.Series, args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: knn <k> <series:start:len | v1,v2,...>")
	}
	k, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	q, err := parseQuery(series, args[1])
	if err != nil {
		return err
	}
	ms, err := base.BestKMatches(q, onex.MatchAny, k)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d nearest matches:\n", len(ms))
	for i, m := range ms {
		fmt.Fprintf(w, "  %2d. series %d [%d:%d) len %d  dist %.4f  %s\n",
			i+1, m.SeriesID, m.Start, m.Start+m.Length, m.Length, m.Distance,
			viz.Sparkline(m.Values))
	}
	return nil
}

func doRange(base *onex.Base, series []onex.Series, args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: range <radius> <series:start:len | v1,v2,...>")
	}
	radius, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return err
	}
	q, err := parseQuery(series, args[1])
	if err != nil {
		return err
	}
	ms, err := base.RangeSearch(q, len(q), radius)
	if err != nil {
		return err
	}
	guaranteed := 0
	for _, m := range ms {
		if m.Guaranteed {
			guaranteed++
		}
	}
	fmt.Fprintf(w, "%d matches within %.4f (%d admitted wholesale via Lemma 2)\n",
		len(ms), radius, guaranteed)
	for i, m := range ms {
		if i >= 10 {
			fmt.Fprintf(w, "  … %d more\n", len(ms)-10)
			break
		}
		tag := ""
		if m.Guaranteed {
			tag = " [guaranteed]"
		}
		fmt.Fprintf(w, "  series %d [%d:%d) dist ≤ %.4f%s\n",
			m.SeriesID, m.Start, m.Start+m.Length, m.Distance, tag)
	}
	return nil
}

func doSave(base *onex.Base, args []string, w io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: save <file>")
	}
	f, err := os.Create(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	if err := base.Save(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "saved %d bytes to %s\n", info.Size(), args[0])
	return nil
}

func doLoad(args []string, parallelism int, w io.Writer) (*onex.Base, error) {
	if len(args) != 1 {
		return nil, errors.New("usage: load <file>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base, err := onex.LoadDistributed(f, parallelism, nil)
	if err != nil {
		return nil, err
	}
	st := base.Stats()
	fmt.Fprintf(w, "loaded base: %d representatives, ST=%.3f, parallelism %d\n",
		st.Representatives, base.ST(), st.Parallelism)
	return base, nil
}

func doSeasonal(base *onex.Base, args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: seasonal <seriesID> <len>")
	}
	sid, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	length, err := strconv.Atoi(args[1])
	if err != nil {
		return err
	}
	ps, err := base.Seasonal(sid, length)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d recurring pattern(s) of length %d in series %d\n", len(ps), length, sid)
	for i, p := range ps {
		fmt.Fprintf(w, "  pattern %d: %d occurrences at starts", i, len(p.Occurrences))
		for _, o := range p.Occurrences {
			fmt.Fprintf(w, " %d", o.Start)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func doSeasonalAll(base *onex.Base, args []string, w io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: seasonalall <len>")
	}
	length, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	ps, err := base.SeasonalAll(length)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d recurring pattern(s) of length %d across the dataset\n", len(ps), length)
	for i, p := range ps {
		if i >= 10 {
			fmt.Fprintf(w, "  … %d more\n", len(ps)-10)
			break
		}
		fmt.Fprintf(w, "  pattern %d: %d occurrences\n", i, len(p.Occurrences))
	}
	return nil
}

func doRecommend(base *onex.Base, args []string, w io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return errors.New("usage: recommend <S|M|L> [len]")
	}
	var deg onex.Degree
	switch strings.ToUpper(args[0]) {
	case "S":
		deg = onex.Strict
	case "M":
		deg = onex.Medium
	case "L":
		deg = onex.Loose
	default:
		return fmt.Errorf("unknown degree %q (want S, M or L)", args[0])
	}
	length := -1
	if len(args) == 2 {
		var err error
		if length, err = strconv.Atoi(args[1]); err != nil {
			return err
		}
	}
	r, err := base.RecommendThreshold(deg, length)
	if err != nil {
		return err
	}
	scope := "globally"
	if length >= 0 {
		scope = fmt.Sprintf("for length %d", length)
	}
	fmt.Fprintf(w, "%s similarity %s: thresholds in %s\n", deg, scope, r)
	return nil
}

// doSPSpace prints the Similarity Parameter Space (Fig. 1): the per-length
// critical thresholds and the global S/M/L boundaries they induce.
func doSPSpace(base *onex.Base, w io.Writer) error {
	fmt.Fprintln(w, "length  ST_half  ST_final")
	for _, l := range base.Lengths() {
		m, err := base.RecommendThreshold(onex.Medium, l)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d  %.4f   %.4f\n", l, m.Low, m.High)
	}
	m, err := base.RecommendThreshold(onex.Medium, -1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "global  ST_half=%.4f ST_final=%.4f  (S < %.4f ≤ M < %.4f ≤ L)\n",
		m.Low, m.High, m.Low, m.High)
	return nil
}

func doPlot(series []onex.Series, args []string, w io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: plot <series:start:len | v1,v2,...>")
	}
	q, err := parseQuery(series, args[0])
	if err != nil {
		return err
	}
	fmt.Fprint(w, viz.Plot(q, 72, 10))
	return nil
}

func doThreshold(base *onex.Base, args []string, w io.Writer) (*onex.Base, error) {
	if len(args) != 1 {
		return base, errors.New("usage: threshold <st'>")
	}
	st, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return base, err
	}
	adapted, err := base.WithThreshold(st)
	if err != nil {
		return base, err
	}
	fmt.Fprintf(w, "adapted to ST'=%.3f: %d representatives (was %d)\n",
		st, adapted.Stats().Representatives, base.Stats().Representatives)
	return adapted, nil
}
