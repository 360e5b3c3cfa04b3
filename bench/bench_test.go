package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	balls "repro"
)

// tinyScale shrinks every workload so a run takes milliseconds.
const tinyScale = 0.01

// runCLI runs the benchmark's command line and returns the printed
// metric units by name and the result on the last line.
func runCLI(t *testing.T, args ...string) (map[string]string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) >= 4 && f[0] == args[1] {
			units[f[1]] = f[3]
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("bench %v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return units, res
}

func TestEveryWorkloadPrintsEveryDeclaredMetric(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			units, res := runCLI(t, "--workload", w.name, "--seconds", "0", "--scale", "0.01",
				"--trace", trace, "--spans", t.TempDir())
			if !res.Correct || res.Failed != 0 || res.Attempted < 2*(setupReps+minPairs) {
				t.Errorf("%s trace %s: correct %v, %d of %d runs failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if units["error_rate"] != "fraction" {
				t.Errorf("%s trace %s: error_rate not printed", w.name, trace)
			}
			reported := sp.EndToEnd
			if trace == "1" {
				reported = sp.PerLayer
			}
			if len(res.Metrics) != len(reported) {
				t.Errorf("%s trace %s: result has %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(reported))
			}
			for _, m := range reported {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: result metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			for _, m := range append(slices.Clone(sp.EndToEnd), reported...) {
				if units[m.Name] != m.Unit {
					t.Errorf("%s trace %s: printed %s with unit %q, want %q", w.name, trace, m.Name, units[m.Name], m.Unit)
				}
			}
		}
	}
}

func TestSpecDeclaresTheWorkloads(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, want %q: %q", i, sp.Workloads[i], w.name, w.why)
		}
	}
}

// firstResult builds a workload at tiny scale and returns one checked
// result.
func firstResult(t *testing.T, name string) (*benchCase, any) {
	t.Helper()
	w, _ := findWorkload(name)
	c, err := w.build(1, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.run(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.check(res); err != nil {
		t.Fatalf("%s: untampered result fails its check: %v", name, err)
	}
	return c, res
}

func TestCheckersRejectTamperedResults(t *testing.T) {
	cases := []struct {
		workload string
		tamper   func(res any)
	}{
		{"paper-classic", func(r any) { r.(*balls.SimResult).Balls-- }},
		{"paper-classic", func(r any) { r.(*balls.SimResult).MeanDeviation = 10 }},
		{"large-monte", func(r any) { r.(*balls.MonteLargeResult).Balls++ }},
		{"large-monte", func(r any) {
			h := r.(*balls.MonteLargeResult).Heights
			h[len(h)-1].MeanBins = h[0].MeanBins + 1
		}},
		{"stream-churn", func(r any) { r.(*balls.StreamResult).Balls-- }},
		{"stream-churn", func(r any) { r.(*balls.StreamResult).ShardBalls[0]++ }},
		{"cluster-serve", func(r any) { r.(*balls.ClusterResult).Completed-- }},
		{"cluster-serve", func(r any) { r.(*balls.ClusterResult).Shed++ }},
	}
	for _, tc := range cases {
		c, res := firstResult(t, tc.workload)
		tc.tamper(res)
		if _, _, err := c.check(res); err == nil {
			t.Errorf("%s: tampered result passes its check", tc.workload)
		}
	}
}

func TestRunnerRejectsANonIdenticalRerun(t *testing.T) {
	c, res := firstResult(t, "paper-classic")
	rn := &runner{c: c}
	rn.record(res, nil)
	other := *res.(*balls.SimResult)
	other.WorstMaxLoad++ // still passes the checks, but is not the same result
	rn.record(&other, nil)
	if rn.attempted != 2 || rn.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2, 1", rn.attempted, rn.failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([3, 1], n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += d
		}
		return out
	}
	for _, tc := range []struct {
		next         []float64
		higherBetter bool
		want         string
	}{
		{shift(20), true, better},
		{shift(20), false, worse},
		{shift(-20), true, worse},
		{shift(0.5), true, unchanged},
		{shift(5), true, better},
		{shift(5), false, unchanged}, // 5% worse, inside the 10% bound
		{base[:5], true, unchanged},  // too few pairs to call better
	} {
		if got, _ := judge(base, tc.next, tc.higherBetter, 0.10); got != tc.want {
			t.Errorf("judge(base, %v, higherBetter=%v) = %s, want %s", tc.next, tc.higherBetter, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if got, _ := judge(noisy, shift(1), true, 0.10); got != unresolved {
		t.Errorf("judge on a base spread wider than the bound = %s, want unresolved", got)
	}
}
