package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"onex/internal/stats"
)

// percentile is stats.Percentile (linear interpolation between closest
// ranks) for samples the caller knows are not empty; an empty one reads 0.
func percentile(xs []float64, p float64) float64 {
	v, _ := stats.Percentile(xs, p) // the only error is the empty sample
	return v
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// calibrate times a fixed arithmetic loop. It runs before and after each
// workload: if the two times differ by more than calibTolerance something
// else was using the machine, and the workload's numbers are marked noisy.
func calibrate() float64 {
	best := math.Inf(1)
	for r := 0; r < 7; r++ { // the best of seven: one undisturbed repetition is enough
		t0 := time.Now()
		x := uint64(88172645463325252)
		var acc float64
		for i := 0; i < 6_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += float64(x>>40) * 1e-9
		}
		calibSink = acc
		if d := ms(time.Since(t0)); d < best {
			best = d
		}
	}
	return best
}

var calibSink float64

const calibTolerance = 0.10

// heapLiveMB is the live heap after collection, in MB. Two collections: a
// sync.Pool (the engine's DTW workspaces) gives up its contents only at the
// second.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// envelope says where and on what a result was measured. compare refuses
// two results whose GOMAXPROCS, seed, sizes hash or size table differ.
type envelope struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	SizesHash  string `json:"sizes_hash"`
	Tiny       bool   `json:"tiny"`
	Traced     bool   `json:"traced"`
}

//go:embed sizes.go
var sizesSource []byte

func newEnvelope(seed int64, tiny, traced bool) envelope {
	sum := sha256.Sum256(sizesSource)
	return envelope{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		SizesHash:  hex.EncodeToString(sum[:8]),
		Tiny:       tiny,
		Traced:     traced,
	}
}

// gitSHA asks git for HEAD; a checkout that is not a repository (the
// driver's) reports "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
