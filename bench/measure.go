package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run sets the workload up at least setupReps times, and more (up to
// maxSetupReps) until setupSeconds (scaled down with the workload) have
// passed, so that a set-up of a tenth of a second still has a steady
// median; setup_s is the median.
const (
	setupReps    = 5
	setupSeconds = 1.0
	maxSetupReps = 20
)

// minPairs is the fewest timed 1W/2W pairs a run makes, however short
// --seconds is.
const minPairs = 2

// checkSeeds is how many seeds after --seed the workload is also built
// from and checked at, untimed.
const checkSeeds = 2

// sample is one timed run.
type sample struct {
	workers   int
	seconds   float64
	calib     float64 // the calibration kernel's mean time just before and just after the run
	mallocs   float64
	bytes     float64
	gcCycles  float64
	gcPauseNs float64 // the forced collection before the run included, so never 0
}

// runner calls a workload, checks every result and keeps the tally
// behind attempted, failed and error_rate.
type runner struct {
	c         *benchCase
	ref       string // digest of the first checked result
	counts    counts
	attempted int
	failed    int
	errs      []string
}

// once runs the workload untimed and checks the result.
func (r *runner) once(workers int) {
	res, err := r.c.run(workers)
	r.record(res, err)
}

// timed collects garbage and calibrates, then times one run and
// records its allocation and GC deltas; the check runs after the clock
// stops. The sample's calib is the calibration before the run; measure
// averages it with the one after.
func (r *runner) timed(workers int) sample {
	var pre, before, after runtime.MemStats
	runtime.ReadMemStats(&pre)
	runtime.GC()
	cal := calibrate()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := r.c.run(workers)
	dt := time.Since(t0)
	runtime.ReadMemStats(&after)
	r.record(res, err)
	return sample{
		workers:   workers,
		seconds:   dt.Seconds(),
		calib:     cal,
		mallocs:   float64(after.Mallocs - before.Mallocs),
		bytes:     float64(after.TotalAlloc - before.TotalAlloc),
		gcCycles:  float64(after.NumGC - before.NumGC),
		gcPauseNs: float64(after.PauseTotalNs - pre.PauseTotalNs),
	}
}

// record checks one result, which must also be bit-identical to the
// first one: every run of a workload instance computes the same thing,
// whatever its worker count.
func (r *runner) record(res any, err error) {
	r.attempted++
	if err == nil {
		var digest string
		var c counts
		digest, c, err = r.c.check(res)
		switch {
		case err != nil:
		case r.ref == "":
			r.ref, r.counts = digest, c
		case digest != r.ref:
			err = fmt.Errorf("result differs from the first run of the same inputs (1W/2W determinism)")
		}
	}
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// measurement is what one benchmark run of a workload observed.
type measurement struct {
	speedExp [2]float64 // the workload's speedExp
	setup    []float64  // reference-speed seconds per set-up
	one, two []sample   // timed runs at 1 and 2 workers
	rss      []float64  // peak RSS in MB of each memory run
	runner   *runner
}

// memRuns is how many untimed 2W runs measure the peak RSS, each from a
// heap returned to the OS; peak_rss_mb is their median.
const memRuns = 5

// measure sets the workload up repeatedly, runs alternating 1W/2W pairs
// for at least the given duration, measures the peak RSS of memRuns
// more runs, then checks the workload at checkSeeds further seeds.
func measure(w workload, seed uint64, scale float64, seconds float64) (*measurement, error) {
	m := &measurement{speedExp: w.speedExp, runner: &runner{}}
	rn := m.runner
	setupExp := (w.speedExp[0] + w.speedExp[1]) / 2 // a set-up runs one 1W and one 2W run
	before := calibrate()
	setupStart, setupMin := time.Now(), setupSeconds*min(1, scale)
	for i := 0; i < setupReps || (i < maxSetupReps && time.Since(setupStart).Seconds() < setupMin); i++ {
		t0 := time.Now()
		c, err := w.build(seed, scale)
		if err != nil {
			return nil, fmt.Errorf("%s: build inputs: %w", w.name, err)
		}
		rn.c = c
		rn.once(1)
		rn.once(2)
		took := time.Since(t0).Seconds()
		after := calibrate()
		m.setup = append(m.setup, atReference(took, (before+after)/2, setupExp))
		before = after
	}
	var runs []sample
	start := time.Now()
	for i := 0; i < minPairs || time.Since(start).Seconds() < seconds; i++ {
		if i%2 == 0 {
			runs = append(runs, rn.timed(1), rn.timed(2))
		} else {
			runs = append(runs, rn.timed(2), rn.timed(1))
		}
	}
	runtime.GC()
	after := calibrate()
	for i := len(runs) - 1; i >= 0; i-- {
		before := runs[i].calib
		runs[i].calib = (before + after) / 2
		after = before
	}
	for _, s := range runs {
		if s.workers == 1 {
			m.one = append(m.one, s)
		} else {
			m.two = append(m.two, s)
		}
	}
	for i := 0; i < memRuns; i++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		rn.once(2)
		m.rss = append(m.rss, peakRSSMB())
	}
	for k := uint64(1); k <= checkSeeds; k++ {
		c, err := w.build(seed+k, scale)
		if err != nil {
			return nil, fmt.Errorf("%s: build inputs at seed %d: %w", w.name, seed+k, err)
		}
		other := runner{c: c}
		other.once(2)
		rn.attempted += other.attempted
		rn.failed += other.failed
		rn.errs = append(rn.errs, other.errs...)
	}
	return m, nil
}

// refSeconds are the run times of samples at the box's reference speed.
func (m *measurement) refSeconds(ss []sample) []float64 {
	return field(ss, func(s sample) float64 { return atReference(s.seconds, s.calib, m.speedExp[s.workers-1]) })
}

// endToEnd computes the end-to-end metrics of a measurement.
func (m *measurement) endToEnd() []metric {
	work := float64(m.runner.counts.Work)
	two := m.refSeconds(m.two)
	return []metric{
		{"balls_per_s", work / median(two), "balls/s"},
		{"balls_per_s_1w", work / median(m.refSeconds(m.one)), "balls/s"},
		{"run_s_p75", quartiles(two)[2], "s"},
		{"allocs_per_run", median(field(m.two, func(s sample) float64 { return s.mallocs })), "count"},
		{"bytes_per_run", median(field(m.two, func(s sample) float64 { return s.bytes })) / 1e6, "MB"},
		{"peak_rss_mb", median(m.rss), "MB"},
		{"setup_s", median(m.setup), "s"},
	}
}

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three quartiles by the exclusive method of
// Python's statistics.quantiles(xs, n=4); a single value is its own
// quartiles.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// resetPeakRSS restarts the kernel's peak-RSS record (VmHWM) from the
// current RSS. Where /proc does not offer that, peakRSSMB reads the
// process's lifetime peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MB since the
// last resetPeakRSS: VmHWM from /proc/self/status, else ru_maxrss.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
