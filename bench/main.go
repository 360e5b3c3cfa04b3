// Command bench is the repository's benchmark. It drives four
// workloads through the library's public API at 1 and 2 workers,
// checks every result, and prints each end-to-end metric by name with
// its unit. With --trace 1 it also times each layer's public functions
// at the workloads' shapes, attributes a traced run to the layers, and
// writes the spans.
//
// From the root of the repository:
//
//	bash bench/run.sh                                   # every workload, one child process each
//	bash bench/run.sh --workload large-monte --seed 3   # one workload, in this process
//	bash bench/run.sh --trace 1                         # per-layer metrics and spans
//	bash bench/run.sh --runs 10 --out set.json          # record a set of runs
//	bash bench/run.sh --compare base.json new.json      # verdict per (metric, workload)
//
// From bench/, `go run . <flags>` does the same. The last line a
// single-workload run prints is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is what one workload run reports, printed as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the flags a workload run takes.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	scale   float64
	spans   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (each in its own child process)")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "seconds of timed 1W/2W pairs per workload")
	trace := fs.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones, and write spans")
	spans := fs.String("spans", ".bench_build", "directory traced runs write spans-<workload>.json to")
	scale := fs.Float64("scale", 1, "workload size factor; tests use a tiny one")
	runs := fs.Int("runs", 1, "with --workload all: runs per workload, at seeds seed, seed+1, ...")
	out := fs.String("out", "", "with --workload all: write every run's result and the box topology to this set file")
	compare := fs.String("compare", "", "set file of the base; compare it with the set file given as the argument")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: --compare BASE.json takes the new set file as its one argument")
			return 2
		}
		return runCompare(*compare, fs.Arg(0), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *scale <= 0 || *seconds < 0 || *runs < 1 {
		fs.Usage()
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale, spans: *spans}
	if *name == "all" {
		return runAll(opt, *runs, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(w, opt, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload measures one workload in this process and prints its
// metrics, one per line.
func runWorkload(w workload, opt options, stdout, stderr io.Writer) (*result, error) {
	m, err := measure(w, opt.seed, opt.scale, opt.seconds)
	if err != nil {
		return nil, err
	}
	reported := m.endToEnd()
	printMetrics(stdout, w.name, reported)
	if opt.trace {
		file := filepath.Join(opt.spans, "spans-"+w.name+".json")
		if reported, err = traced(w, m, opt.seed, opt.scale, file); err != nil {
			return nil, err
		}
		printMetrics(stdout, w.name, reported)
		fmt.Fprintf(stdout, "%-14s spans written to %s\n", w.name, file)
	}
	rn := m.runner
	fmt.Fprintf(stdout, "%-14s %-42s %14.6g %s (%d runs attempted, %d failed)\n",
		w.name, "error_rate", float64(rn.failed)/float64(rn.attempted), "fraction", rn.attempted, rn.failed)
	raw := func(s sample) float64 { return s.seconds }
	speed := func(s sample) float64 { return calibRef / s.calib }
	fmt.Fprintf(stdout, "%-14s timed runs: %d at 1W, %d at 2W; run_s_p75 is over the 2W runs\n",
		w.name, len(m.one), len(m.two))
	fmt.Fprintf(stdout, "%-14s measured medians %.6g s at 1W, %.6g s at 2W; box speed %.3f at 1W, %.3f at 2W (1 = reference)\n",
		w.name, median(field(m.one, raw)), median(field(m.two, raw)), median(field(m.one, speed)), median(field(m.two, speed)))
	for _, e := range rn.errs {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, e)
	}
	res := &result{Correct: rn.failed == 0, Attempted: rn.attempted, Failed: rn.failed, Metrics: map[string]value{}}
	for _, mt := range reported {
		res.Metrics[mt.name] = value{mt.value, mt.unit}
	}
	return res, nil
}

func printMetrics(w io.Writer, workload string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-14s %-42s %14.6g %s\n", workload, m.name, m.value, m.unit)
	}
}

// setFile records a set of workload runs: the input of --compare.
type setFile struct {
	Topology map[string]any `json:"_topology,omitempty"`
	Seconds  float64        `json:"seconds"`
	Scale    float64        `json:"scale"`
	Trace    bool           `json:"trace"`
	Runs     []setRun       `json:"runs"`
}

type setRun struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Result   *result `json:"result"`
}

// runAll runs every workload, runs times each, one fresh child process
// at a time; the parent only waits.
func runAll(opt options, runs int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	set := setFile{Seconds: opt.seconds, Scale: opt.scale, Trace: opt.trace}
	status := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			seed := opt.seed + uint64(r)
			res, err := runChild(exe, w.name, seed, opt, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s at seed %d: %v\n", w.name, seed, err)
				status = 1
				continue
			}
			if !res.Correct {
				status = 1
			}
			set.Runs = append(set.Runs, setRun{w.name, seed, res})
		}
	}
	if out != "" {
		set.Topology = topology()
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: write %s: %v\n", out, err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process, passing its output
// through, and parses the result from its last line.
func runChild(exe, name string, seed uint64, opt options, stdout, stderr io.Writer) (*result, error) {
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	var buf bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", trace,
		"--scale", strconv.FormatFloat(opt.scale, 'g', -1, 64), "--spans", opt.spans)
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	return &res, nil
}
