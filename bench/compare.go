package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// readSpec reads BENCHMARK.json from the repository root, which is the
// working directory or its parent (when run from bench/).
func readSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values lists a metric's values over a set's runs of one workload, in
// run order.
func (s *setFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// Verdicts of a comparison.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares a metric's runs on the base and the new commit, run i
// of one paired with run i of the other. The new side is better when it
// wins at least 9 of 10 pairs (at least 10 pairs, ties count for
// neither) and the medians differ by more than the base's interquartile
// range; worse when its median is worse than the base's by more than
// bound (a share of the base median). When the base's own spread
// exceeds bound, the metric is unresolved, unless every new run beats
// every base run.
func judge(base, next []float64, higherBetter bool, bound float64) (verdict string, change float64) {
	if len(base) == 0 || len(next) == 0 {
		return unresolved, math.NaN()
	}
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	mb, mn := median(base), median(next)
	q := quartiles(base)
	iqr := q[2] - q[0]
	change = sign * (mn - mb) / math.Abs(mb) // > 0 is an improvement
	pairs, wins := min(len(base), len(next)), 0
	for i := 0; i < pairs; i++ {
		if sign*(next[i]-base[i]) > 0 {
			wins++
		}
	}
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			allBetter = allBetter && sign*(n-b) > 0
		}
	}
	switch {
	case iqr/math.Abs(mb) > bound:
		if allBetter {
			return better, change
		}
		return unresolved, change
	case -change > bound:
		return worse, change
	case pairs >= 10 && 10*wins >= 9*pairs && math.Abs(mn-mb) > iqr:
		return better, change
	}
	return unchanged, change
}

// runCompare prints a verdict per (metric, workload) for the
// end-to-end metrics BENCHMARK.json declares. It exits 1 when any is
// worse.
func runCompare(basePath, newPath string, stdout, stderr io.Writer) int {
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: read BENCHMARK.json: %v\n", err)
		return 2
	}
	base, err := readSet(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	next, err := readSet(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "base median", "new median", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			b, n := base.values(w.name, m.Name), next.values(w.name, m.Name)
			v, change := judge(b, n, m.Better == "higher", m.Bound)
			if v == worse {
				status = 1
			}
			mb, mn := math.NaN(), math.NaN()
			if len(b) > 0 && len(n) > 0 {
				mb, mn = median(b), median(n)
			}
			fmt.Fprintf(stdout, "%-14s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (%d vs %d runs)\n",
				w.name, m.Name, mb, mn, 100*change, 100*m.Bound, v, len(b), len(n))
		}
	}
	return status
}

// topology describes the box a set was recorded on.
func topology() map[string]any {
	t := map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				t["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	caches, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range caches {
		level, err1 := os.ReadFile(filepath.Join(dir, "level"))
		size, err2 := os.ReadFile(filepath.Join(dir, "size"))
		if err1 == nil && err2 == nil && strings.TrimSpace(string(level)) != "1" {
			t["l"+strings.TrimSpace(string(level))] = strings.TrimSpace(string(size))
		}
	}
	return t
}
