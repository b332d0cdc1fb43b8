package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"onex"
)

func runScript(t *testing.T, args []string, script string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func tinyArgs() []string {
	return []string{"-generate", "ItalyPower", "-scale", "0.2", "-lengths", "6", "-st", "0.25"}
}

func TestCLISession(t *testing.T) {
	out := runScript(t, tinyArgs(), "stats\nhelp\nquit\n")
	for _, want := range []string{"representatives=", "SP-Space", "commands:", "onex>"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestCLIMatchAndSeasonal(t *testing.T) {
	out := runScript(t, tinyArgs(), "match 0:2:10\nseasonalall 10\nrecommend S\nrecommend M 10\nquit\n")
	if !strings.Contains(out, "best match: series") {
		t.Errorf("match output missing: %q", out)
	}
	if !strings.Contains(out, "recurring pattern") {
		t.Error("seasonalall output missing")
	}
	if strings.Count(out, "similarity") < 2 {
		t.Error("recommend outputs missing")
	}
}

func TestCLIDesignedQuery(t *testing.T) {
	out := runScript(t, tinyArgs(), "match 0.1,0.2,0.3,0.4,0.5,0.4,0.3,0.2,0.1,0.0\nquit\n")
	if !strings.Contains(out, "best match: series") {
		t.Errorf("designed query failed: %q", out)
	}
}

func TestCLIThresholdAdaptation(t *testing.T) {
	out := runScript(t, tinyArgs(), "threshold 0.5\nstats\nquit\n")
	if !strings.Contains(out, "adapted to ST'=0.500") {
		t.Errorf("threshold output missing: %q", out)
	}
	if !strings.Contains(out, "ST=0.500") {
		t.Error("stats after adaptation should show the new threshold")
	}
}

func TestCLIErrors(t *testing.T) {
	script := strings.Join([]string{
		"match",          // missing arg
		"match 0:1",      // malformed ref
		"match 0:0:9999", // out of range
		"match a,b",      // unparsable values
		"seasonal x 5",   // bad series id
		"recommend X",    // bad degree
		"threshold -3",   // bad threshold
		"definitely-not-a-command",
		"quit",
	}, "\n") + "\n"
	out := runScript(t, tinyArgs(), script)
	if got := strings.Count(out, "error:"); got < 8 {
		t.Errorf("expected ≥8 error lines, got %d in %q", got, out)
	}
}

func TestCLIUnknownFlagAndDataset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown flag: want error")
	}
	if err := run([]string{"-generate", "Nope"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown dataset: want error")
	}
	if err := run([]string{"-st"}, strings.NewReader(""), &out); err == nil {
		t.Error("flag without value: want error")
	}
}

func TestCLIKNNAndRange(t *testing.T) {
	out := runScript(t, tinyArgs(), "knn 3 0:2:10\nrange 0.5 0:2:10\nquit\n")
	if !strings.Contains(out, "3 nearest matches") {
		t.Errorf("knn output missing: %q", out)
	}
	if !strings.Contains(out, "matches within 0.5") {
		t.Errorf("range output missing: %q", out)
	}
	// Error paths.
	out = runScript(t, tinyArgs(), "knn x 0:2:10\nknn 3\nrange abc 0:2:10\nquit\n")
	if strings.Count(out, "error:") < 3 {
		t.Errorf("knn/range error handling: %q", out)
	}
}

func TestCLISPSpaceAndPlot(t *testing.T) {
	out := runScript(t, tinyArgs(), "spspace\nplot 0:0:12\nplot 1,2,3,2,1\nquit\n")
	if !strings.Contains(out, "ST_half") || !strings.Contains(out, "global") {
		t.Errorf("spspace output missing: %q", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("plot output missing points: %q", out)
	}
	out = runScript(t, tinyArgs(), "plot\nquit\n")
	if !strings.Contains(out, "error:") {
		t.Error("plot without args should error")
	}
}

func TestCLISaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.onex")
	out := runScript(t, tinyArgs(),
		"save "+path+"\nload "+path+"\nstats\nmatch 0:2:10\nquit\n")
	if !strings.Contains(out, "saved ") {
		t.Errorf("save output missing: %q", out)
	}
	if !strings.Contains(out, "loaded base:") {
		t.Errorf("load output missing: %q", out)
	}
	if !strings.Contains(out, "best match: series") {
		t.Error("loaded base cannot answer queries")
	}
	// Load failure keeps the session alive with the old base.
	out = runScript(t, tinyArgs(), "load /no/such/file\nstats\nquit\n")
	if !strings.Contains(out, "error:") || !strings.Contains(out, "representatives=") {
		t.Errorf("failed load should keep session usable: %q", out)
	}
}

// TestCLILoadKeepsParallelism: a base reloaded by the load command serves
// at the session's -parallelism, not at GOMAXPROCS.
func TestCLILoadKeepsParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	path := filepath.Join(t.TempDir(), "base.onex")
	args := append(tinyArgs(), "-parallelism", "1")
	out := runScript(t, args, "save "+path+"\nload "+path+"\nquit\n")
	if !strings.Contains(out, "loaded base:") || !strings.Contains(out, ", parallelism 1\n") {
		t.Errorf("reloaded base does not keep -parallelism 1: %q", out)
	}
}

func TestCLILoadUCRFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.tsv")
	content := "1\t0.1\t0.2\t0.3\t0.4\t0.5\t0.6\t0.7\t0.8\n2\t0.8\t0.7\t0.6\t0.5\t0.4\t0.3\t0.2\t0.1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runScript(t, []string{"-data", path, "-lengths", "4", "-st", "0.3"}, "stats\nquit\n")
	if !strings.Contains(out, `building ONEX base over "toy"`) {
		t.Errorf("UCR load failed: %q", out)
	}
}

func TestParseQuery(t *testing.T) {
	series := []onex.Series{{Values: []float64{1, 2, 3, 4, 5}}}
	q, err := parseQuery(series, "0:1:3")
	if err != nil || len(q) != 3 || q[0] != 2 {
		t.Errorf("ref parse = %v, %v", q, err)
	}
	q, err = parseQuery(series, "1.5, 2.5,3.5")
	if err != nil || len(q) != 3 || q[2] != 3.5 {
		t.Errorf("list parse = %v, %v", q, err)
	}
	for _, bad := range []string{"9:0:2", "0:9:2", "0:0:0", "x:y:z", "0:1", "a,b"} {
		if _, err := parseQuery(series, bad); err == nil {
			t.Errorf("parseQuery(%q): want error", bad)
		}
	}
}

func TestSpreadHelper(t *testing.T) {
	ls := spread(24, 6)
	if len(ls) == 0 || ls[0] != 2 || ls[len(ls)-1] != 24 {
		t.Errorf("spread(24,6) = %v", ls)
	}
	if got := spread(1, 4); got != nil {
		t.Errorf("spread(1,4) = %v, want nil", got)
	}
	if got := spread(24, 0); got != nil {
		t.Errorf("spread(24,0) = %v, want nil", got)
	}
}

// TestCLIShardedFlags drives a session with the serving knobs the server
// already exposes — -parallelism, -rebuild-drift and -shards — and checks
// the sharded base builds, reports its layout, and answers queries.
func TestCLIShardedFlags(t *testing.T) {
	args := append(tinyArgs(), "-parallelism", "2", "-rebuild-drift", "-1", "-shards", "3")
	out := runScript(t, args, "stats\nmatch 0:2:10\nknn 2 1:0:10\nquit\n")
	if !strings.Contains(out, "shards: 3") {
		t.Errorf("stats output missing shard layout: %q", out)
	}
	if !strings.Contains(out, "best match: series") {
		t.Errorf("sharded match failed: %q", out)
	}
	if !strings.Contains(out, "nearest matches") {
		t.Errorf("sharded knn failed: %q", out)
	}
}

// TestCLIFlagValidation pins the new flags' error handling.
func TestCLIFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-parallelism"}, strings.NewReader(""), &out); err == nil {
		t.Error("-parallelism without value: want error")
	}
	if err := run([]string{"-rebuild-drift", "x"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad -rebuild-drift: want error")
	}
	if err := run([]string{"-shards", "-2"}, strings.NewReader(""), &out); err == nil {
		t.Error("negative -shards: want build error")
	}
}
