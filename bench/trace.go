package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded only
// by the benchmark, around its calls into the library.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a root
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"` // duration minus the part its children cover
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until write.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int, attrs map[string]float64) {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Attrs = attrs
}

// write computes self times and writes every span as one JSON array.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		s := &t.spans[i]
		var kids [][2]int64
		for _, c := range t.spans {
			if c.Parent == s.ID {
				kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
			}
		}
		s.Self = s.End - s.Start - covered(kids)
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, end int64
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// traced runs the workload once more at 1 worker under a root span,
// times every layer probe in a child span, and returns the per-layer
// metrics: probe costs, this workload's 1W/2W and GC figures, its exact
// per-run counts, and the attribution of the traced run to layers.
func traced(w workload, m *measurement, seed uint64, scale float64, spanFile string) ([]metric, error) {
	tr := &tracer{t0: time.Now()}
	root := tr.begin("workload/"+w.name, 0)

	c := m.runner.counts
	id := tr.begin("run/1w", root)
	runtime.GC()
	before := calibrate()
	t0 := time.Now()
	res, err := m.runner.c.run(1)
	runNs := float64(time.Since(t0).Nanoseconds())
	cal := (before + calibrate()) / 2
	m.runner.record(res, err)
	tr.end(id, countAttrs(c))

	id = tr.begin("fixtures", root)
	fx, err := newFixtures(seed, scale)
	if err != nil {
		return nil, fmt.Errorf("probe fixtures: %w", err)
	}
	tr.end(id, nil)
	var out []metric
	cost := map[string]float64{}
	for _, p := range probes(fx, seed) {
		id := tr.begin("probe/"+p.name, root)
		v, ops, err := p.measure(scale)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		tr.end(id, map[string]float64{"value": v, "timed_ops": ops})
		cost[p.name] = v
		out = append(out, metric{p.name, v, p.unit})
	}
	tr.end(root, nil)

	one := median(m.refSeconds(m.one))
	out = append(out,
		metric{"sim.speedup_2w", one / median(m.refSeconds(m.two)), "x"},
		metric{"sim.gc_cycles_per_run", median(field(m.two, func(s sample) float64 { return s.gcCycles })), "count"},
		metric{"sim.gc_pause_ms_per_run", median(field(m.two, func(s sample) float64 { return s.gcPauseNs })) / 1e6, "ms"},
	)
	shares := attribute(w.name, c, cost)
	rest := 1.0
	for _, layer := range layers {
		s := shares[layer] / runNs
		rest -= s
		out = append(out, metric{layer + ".share", s, "fraction"})
	}
	out = append(out, metric{"sim.self_share", rest, "fraction"})
	out = append(out, countMetrics(c)...)
	out = append(out, metric{"trace.overhead_pct", (atReference(runNs/1e9, cal, m.speedExp[0]) - one) / one * 100, "%"})
	return out, tr.write(spanFile)
}

// countMetrics are a run's exact counts under their metric names.
func countMetrics(c counts) []metric {
	return []metric{
		{"sim.placements_per_run", float64(c.Placements), "count"},
		{"sim.routing_blocks_per_run", float64(c.RoutingBlocks), "count"},
		{"sim.deletions_per_run", float64(c.Deletions), "count"},
		{"sim.moved_per_run", float64(c.Moved), "count"},
		{"sim.snapshots_per_run", float64(c.Snapshots), "count"},
		{"sim.ticks_per_run", float64(c.Ticks), "count"},
		{"sim.churn_events_per_run", float64(c.ChurnEvents), "count"},
		{"sim.retried_per_run", float64(c.Retried), "count"},
		{"sim.redistributed_per_run", float64(c.Redistributed), "count"},
		{"sim.shed_per_run", float64(c.Shed), "count"},
	}
}

func countAttrs(c counts) map[string]float64 {
	a := map[string]float64{}
	for _, k := range countMetrics(c) {
		a[k.name] = k.value
	}
	return a
}

// layers are the modules a run's time is attributed to, bottom-up;
// whatever they do not account for is sim's own (sim.self_share).
var layers = []string{"xrand", "sampling", "protocol", "bins", "obs", "chash"}

// attribute estimates, in nanoseconds, the self time each layer spends
// in one 1W run of the workload: each term is a probe's unit cost times
// the run's exact count of that operation. Costs nest — a PlaceBatch
// ball contains a SampleBatch ball, which contains two xrand draws — so
// each layer is charged its probe minus the probe of the layer below.
func attribute(name string, c counts, p map[string]float64) map[string]float64 {
	draw := p["xrand.draw_ns"]
	sample := p["sampling.sample_batch_ns_per_ball"]
	alias := p["sampling.alias_build_ns_per_bin"]
	place := p["protocol.place_batch_ns_per_ball.shard"]
	// Full-array O(n) scans: the final max per repetition (paper), the
	// shard max at every cut (large), the final fused pass (stream), and
	// the before/after queue scans around each tick's placement (cluster).
	var scans float64
	switch name {
	case "paper-classic":
		place = p["protocol.place_batch_ns_per_ball.paper"]
		scans = float64(c.Reps)
	case "large-monte":
		scans = float64(c.Reps * c.Cuts)
	case "stream-churn":
		scans = 1
	case "cluster-serve":
		place = p["protocol.place_batch_ns_per_ball.queue"]
		scans = 2 * float64(c.Ticks)
	}
	f := func(x int64) float64 { return float64(x) }
	pl, rb, n := f(c.Placements), f(c.RoutingBlocks), f(c.Bins)
	// A deletion or a rebalance move-out takes one ball from a shard's
	// count tree and removes it from the bin; a deletion's shard comes
	// from one more draw on a 64-leaf tree. Every round rebuilds the
	// shards' count trees over all n bins.
	takes := f(c.Deletions + c.Moved)
	ns := map[string]float64{
		"xrand": pl*2*draw + rb*p["xrand.block_stream_ns"] + (takes+f(c.Deletions))*draw,
		"sampling": pl*(sample-2*draw) + rb*p["sampling.multinomial_block_us"]*1e3 +
			f(c.PlacerBins)*alias + f(c.Rounds)*n*p["sampling.counttree_build_ns_per_bin"] +
			takes*(p["sampling.counttree_take_ns"]-draw),
		"protocol": pl*(place-sample) + f(c.PlacerBins)*(p["protocol.new_placer_ns_per_bin"]-alias),
		"bins": scans*n*p["bins.max_load_scan_ns_per_bin"] + f(c.Snapshots)*(n*p["bins.histogram_ns_per_bin"]+p["bins.hist_merge_us"]*1e3) +
			takes*p["bins.add_remove_ns"]/2,
		"obs": f(c.Snapshots)*p["obs.snapshot_us"]*1e3 + f(c.Ticks)*n*p["obs.latency_observe_ns"],
	}
	if c.Ticks > 0 {
		// Each crash or recovery splices the ring once; each tick with
		// churn (at most one per event) recomputes the arc lengths once.
		ns["chash"] = p["chash.ring_build_ms"]*1e6 + (f(c.ChurnEvents)*p["chash.peer_churn_us"]/2+
			f(min(c.Ticks, c.ChurnEvents))*p["chash.arc_lengths_us"])*1e3
	}
	return ns
}
