package experiments

import (
	"fmt"

	"repro/internal/bins"
	"repro/internal/chash"
	"repro/internal/dist"
	"repro/internal/loadvec"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/tune"
	"repro/internal/xrand"
)

// extHeights measures the distribution of ball *heights* (§2: the load
// of the receiving bin right after the allocation) for a two-class array
// and for uniform bins — not a paper figure, but the quantity the
// analysis of Observation 1 reasons about.
func extHeights(p Params) ([]*table.Table, error) {
	reps := p.reps(300)
	n := p.scaledN(1000, 100)
	const heightBins, heightMax = 32, 4.0

	configs := []struct {
		label string
		caps  *bins.Array
	}{}
	uni, err := bins.Uniform(n, 1)
	if err != nil {
		return nil, err
	}
	mix, err := bins.TwoClass(n/2, 1, n/2, 10)
	if err != nil {
		return nil, err
	}
	configs = append(configs,
		struct {
			label string
			caps  *bins.Array
		}{"uniform_c1", uni},
		struct {
			label string
			caps  *bins.Array
		}{"mix_1_and_10", mix},
	)

	cols := []string{"height_bin_center"}
	for _, c := range configs {
		cols = append(cols, "frac_"+c.label)
	}
	tab := table.New(fmt.Sprintf("Extension: ball height distribution (m=C, d=2, n=%d, %d reps)", n, reps), cols...)
	var series [][]float64
	for _, c := range configs {
		res, err := p.sim(sim.Config{
			Array: c.caps, Reps: reps, Seed: p.seed(), Workers: p.Workers,
			ObsOptions: sim.ObsOptions{HeightBins: heightBins, HeightMax: heightMax},
		})
		if err != nil {
			return nil, err
		}
		total := float64(res.Heights.Total() + res.Heights.Overflow + res.Heights.Underflow)
		fr := make([]float64, heightBins+1)
		for i, cnt := range res.Heights.Counts {
			fr[i] = float64(cnt) / total
		}
		fr[heightBins] = float64(res.Heights.Overflow) / total
		series = append(series, fr)
	}
	ref, err := stats.NewHistogram(0, heightMax, heightBins)
	if err != nil {
		return nil, err
	}
	for i := 0; i <= heightBins; i++ {
		center := heightMax + 1 // sentinel for the overflow row
		if i < heightBins {
			center = ref.BinCenter(i)
		}
		row := []float64{center}
		for _, s := range series {
			row = append(row, s[i])
		}
		tab.MustAddRow(row...)
	}
	tab.Comment = "last row aggregates heights above the histogram range"
	return []*table.Table{tab}, nil
}

// extBatch sweeps the batch size of the parallel batch-arrival model:
// how gracefully does Algorithm 1 degrade when balls in a round see only
// round-start loads?
func extBatch(p Params) ([]*table.Table, error) {
	reps := p.reps(300)
	n := p.scaledN(1000, 100)
	arr, err := bins.TwoClass(n/2, 1, n/2, 10)
	if err != nil {
		return nil, err
	}
	tab := table.New(fmt.Sprintf("Extension: batched arrivals, max load vs batch size (n=%d, m=C, d=2, %d reps)", n, reps),
		"batch_size", "max_load_mean", "max_load_ci95")
	m := arr.TotalCapacity()
	for _, batch := range []int{1, 4, 16, 64, 256, 1024, int(m)} {
		res, err := p.sim(sim.Config{
			Array:   arr,
			Placer:  protocol.BatchedFactory(2, batch),
			Reps:    reps,
			Seed:    p.seed(),
			Workers: p.Workers,
		})
		if err != nil {
			return nil, err
		}
		tab.MustAddRow(float64(batch), res.MaxLoad.Mean(), res.MaxLoad.CI95())
	}
	tab.Comment = "batch = 1 is the sequential Algorithm 1; batch = m is fully oblivious"
	return []*table.Table{tab}, nil
}

// extHeavyHet probes the paper's stated future work: the heavily loaded
// case for heterogeneous arrays. We track (max − avg) load at m = k·C
// for growing k on a strongly mixed array; the conjecture suggested by
// Figure 16 is that it stays bounded in m.
func extHeavyHet(p Params) ([]*table.Table, error) {
	reps := p.reps(50)
	n := p.scaledN(1000, 100)
	arr, err := bins.TwoClass(n/2, 1, n/2, 10)
	if err != nil {
		return nil, err
	}
	c := arr.TotalCapacity()
	ks := []int64{1, 2, 5, 10, 20, 50, 100}
	checkpoints := make([]int64, len(ks))
	for i, k := range ks {
		checkpoints[i] = k * c
	}
	res, err := p.sim(sim.Config{
		Array:      arr,
		Balls:      ks[len(ks)-1] * c,
		Reps:       reps,
		Seed:       p.seed(),
		Workers:    p.Workers,
		ObsOptions: sim.ObsOptions{Checkpoints: checkpoints},
	})
	if err != nil {
		return nil, err
	}
	tab := table.New(fmt.Sprintf("Extension (paper future work): heavily loaded heterogeneous bins (n=%d, 50/50 caps 1 and 10, %d reps)", n, reps),
		"balls_over_C", "deviation_max_minus_avg", "max_load_mean")
	for i, cp := range res.Checkpoints {
		tab.MustAddRow(float64(ks[i]), cp.Deviation.Mean(), cp.MaxLoad.Mean())
	}
	tab.Comment = "flat deviation = the Fig 16 invariance extends to heterogeneous arrays"
	return []*table.Table{tab}, nil
}

// extMigration compares re-allocating from scratch after every expansion
// (the paper's §4.3 setup) with keeping the old balls in place and only
// routing the *new* balls with Algorithm 1 — the no-migration regime of
// a real storage system that cannot afford to reshuffle.
func extMigration(p Params) ([]*table.Table, error) {
	reps := p.reps(200)
	tab := table.New(fmt.Sprintf("Extension: scale-out with vs without re-allocation (linear a=4 growth, %d reps)", reps),
		"bins", "scratch_max_load", "no_migration_max_load")

	sizes := []int{2, 102, 202, 302, 402}
	maxBins := p.scaledN(402, 42)
	for _, size := range sizes {
		if size > maxBins {
			break
		}
		batches := bins.LinearBatches(2, 20, size, 2, 4)
		arr, err := bins.Generations(batches)
		if err != nil {
			return nil, err
		}
		// From scratch: standard m = C run.
		scratch, err := p.sim(sim.Config{
			Array: arr, Reps: reps, Seed: p.seed(), Workers: p.Workers,
		})
		if err != nil {
			return nil, err
		}
		// No migration: replay the growth history; at each stage only
		// the capacity delta arrives as new balls, placed on the grown
		// array that still holds all previous balls.
		var acc float64
		for rep := 0; rep < reps; rep++ {
			r := xrand.NewStream(p.seed()+1, uint64(rep))
			ml, err := noMigrationRun(batches, r)
			if err != nil {
				return nil, err
			}
			acc += ml
		}
		tab.MustAddRow(float64(size), scratch.MaxLoad.Mean(), acc/float64(reps))
	}
	tab.Comment = "no-migration keeps old balls where they are; only growth-delta balls use Algorithm 1"
	return []*table.Table{tab}, nil
}

// noMigrationRun replays the growth history of `batches` without ever
// moving a placed ball, returning the final max load.
func noMigrationRun(batches []bins.Batch, r *xrand.Rand) (float64, error) {
	// Build the final capacity vector once; stage s uses the prefix of
	// bins existing at stage s, implemented with per-stage weight
	// masking (absent bins get weight 0).
	full, err := bins.Generations(batches)
	if err != nil {
		return 0, err
	}
	n := full.N()
	weights := make([]float64, n)
	var placedBalls int64
	binsSoFar := 0
	var capSoFar int64
	for _, b := range batches {
		for i := 0; i < b.Count; i++ {
			weights[binsSoFar+i] = float64(b.Capacity)
		}
		binsSoFar += b.Count
		capSoFar += int64(b.Count) * b.Capacity
		placer, err := protocol.NewGreedy(full, weights[:n], 2)
		if err != nil {
			return 0, err
		}
		// ship the capacity delta as new balls
		newBalls := capSoFar - placedBalls
		for i := int64(0); i < newBalls; i++ {
			placer.Place(full, r)
		}
		placedBalls = capSoFar
	}
	return full.MaxLoad(), nil
}

// extWieder demonstrates the related-work contrast the paper builds on
// (Wieder, SPAA 2007): with *skewed selection probabilities over uniform
// unit bins* — consistent-hashing arcs — the deviation of the max load
// grows with m for d = 2 but is tamed by larger d. The paper's
// capacity-aware model avoids this because loads are normalised by
// capacity.
func extWieder(p Params) ([]*table.Table, error) {
	reps := p.reps(100)
	n := p.scaledN(500, 100)
	// Arc weights from one fixed ring (the skew is the point).
	ring, err := chash.NewRing(n, 1, xrand.New(p.seed()))
	if err != nil {
		return nil, err
	}
	arcs := ring.ArcLengths()
	arr, err := bins.Uniform(n, 1)
	if err != nil {
		return nil, err
	}
	ks := []int64{1, 2, 5, 10, 20, 50}
	checkpoints := make([]int64, len(ks))
	for i, k := range ks {
		checkpoints[i] = k * int64(n)
	}
	cols := []string{"balls_over_n", "dev_d2_skewed", "dev_d4_skewed", "dev_d2_uniformprobs"}
	tab := table.New(fmt.Sprintf("Extension (related work, Wieder 2007): skewed selection over unit bins (n=%d, %d reps)", n, reps), cols...)
	series := make([][]float64, 3)
	run := func(d int, dd dist.Distribution) ([]float64, error) {
		res, err := p.sim(sim.Config{
			Array:      arr,
			Dist:       dd,
			Placer:     protocol.StandardFactory(d),
			Balls:      ks[len(ks)-1] * int64(n),
			Reps:       reps,
			Seed:       p.seed(),
			Workers:    p.Workers,
			ObsOptions: sim.ObsOptions{Checkpoints: checkpoints},
		})
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(res.Checkpoints))
		for i, cp := range res.Checkpoints {
			out[i] = cp.Deviation.Mean()
		}
		return out, nil
	}
	skew := dist.Custom{W: arcs, Desc: "arcs"}
	if series[0], err = run(2, skew); err != nil {
		return nil, err
	}
	if series[1], err = run(4, skew); err != nil {
		return nil, err
	}
	if series[2], err = run(2, dist.Uniform{}); err != nil {
		return nil, err
	}
	for i, k := range ks {
		tab.MustAddRow(float64(k), series[0][i], series[1][i], series[2][i])
	}
	tab.Comment = "skewed d=2 deviation grows with m; uniform d=2 stays flat; larger d tames the skew"
	return []*table.Table{tab}, nil
}

// extVnodes sweeps virtual-node counts on the consistent-hashing ring:
// how many vnodes does it take to tame the Θ(log n) arc imbalance that
// motivates the paper, and how does the d-point game's max load respond?
func extVnodes(p Params) ([]*table.Table, error) {
	n := p.scaledN(1000, 100)
	reps := p.reps(50)
	tab := table.New(fmt.Sprintf("Extension: consistent-hashing vnodes vs arc imbalance (n=%d peers, %d rings)", n, reps),
		"vnodes", "max_over_avg_arc", "d1_max_load", "d2_max_load")
	for _, v := range []int{1, 2, 4, 8, 16, 32} {
		var imb, d1, d2 float64
		for rep := 0; rep < reps; rep++ {
			r := xrand.NewStream(p.seed(), uint64(rep))
			ring, err := chash.NewRing(n, v, r)
			if err != nil {
				return nil, err
			}
			imb += ring.Stats().MaxOverAvg
			l1, err := ring.DChoiceLoads(int64(n), 1, r)
			if err != nil {
				return nil, err
			}
			l2, err := ring.DChoiceLoads(int64(n), 2, r)
			if err != nil {
				return nil, err
			}
			d1 += float64(chash.MaxLoad(l1))
			d2 += float64(chash.MaxLoad(l2))
		}
		f := float64(reps)
		tab.MustAddRow(float64(v), imb/f, d1/f, d2/f)
	}
	tab.Comment = "two choices (d2) already fix what vnodes fix expensively — Byers et al.'s point"
	return []*table.Table{tab}, nil
}

// extTune runs the distribution optimiser (the paper's future work) on a
// few arrays and reports the best power exponent and the best per-class
// weights found.
func extTune(p Params) ([]*table.Table, error) {
	reps := p.reps(800)
	tab := table.New(fmt.Sprintf("Extension (paper future work): optimised selection distributions (m=C, d=2, %d reps/eval)", reps),
		"big_capacity", "best_exponent", "load_at_best_t", "load_at_t1",
		"classdescent_load", "classdescent_implied_t")
	for _, x := range []int64{2, 3, 5, 10} {
		caps := make([]int64, 100)
		for i := range caps {
			if i < 50 {
				caps[i] = 1
			} else {
				caps[i] = x
			}
		}
		cfg := tune.Config{Reps: reps, Seed: p.seed(), Workers: p.Workers, Engine: p.Engine, Shards: p.Shards}
		er, err := tune.OptimalExponent(caps, 0.5, 3.5, cfg)
		if err != nil {
			return nil, err
		}
		cw, err := tune.OptimalClassWeights(caps, cfg)
		if err != nil {
			return nil, err
		}
		tab.MustAddRow(float64(x), er.T, er.MaxLoad, er.AtProportional,
			cw.MaxLoad, tune.ImpliedExponent(cw.Classes, cw.Weights))
	}
	return []*table.Table{tab}, nil
}

// extFairness re-runs the Figure 6 sweep but reports whole-distribution
// imbalance metrics (Gini coefficient, normalised entropy, peak/average)
// on the mean sorted load vector — the max load tells only the tail's
// story.
func extFairness(p Params) ([]*table.Table, error) {
	n := p.scaledN(1000, 100)
	reps := p.reps(300)
	tab := table.New(fmt.Sprintf("Extension: load fairness across the Figure 6 sweep (n=%d, m=C, %d reps)", n, reps),
		"pct_large", "gini", "entropy_norm", "peak_over_avg")
	for pct := 0; pct <= 100; pct += 10 {
		nLarge := n * pct / 100
		arr, err := bins.TwoClass(n-nLarge, 1, nLarge, 10)
		if err != nil {
			return nil, err
		}
		res, err := p.sim(sim.Config{
			Array: arr, Reps: reps, Seed: p.seed(), Workers: p.Workers,
			CollectLoadVector: true,
		})
		if err != nil {
			return nil, err
		}
		g, err := loadvec.Gini(res.MeanSortedLoads)
		if err != nil {
			return nil, err
		}
		e, err := loadvec.Entropy(res.MeanSortedLoads)
		if err != nil {
			return nil, err
		}
		tab.MustAddRow(float64(pct), g, e, loadvec.PeakToAverage(res.MeanSortedLoads))
	}
	tab.Comment = "metrics computed on the repetition-averaged sorted load vector"
	return []*table.Table{tab}, nil
}

// extCluster sweeps utilisation in the serving engine (sim.Dispatch
// with RunSpec.Cluster: one shard, no churn) and compares dispatch
// policies on mean response time and worst queue load. The per-tick
// trajectory (a checkpoint at every tick) yields the worst queue load.
func extCluster(p Params) ([]*table.Table, error) {
	ticks := p.scaledN(2000, 300)
	arr, err := bins.TwoClass(8, 1, 2, 10) // C = 28
	if err != nil {
		return nil, err
	}
	everyTick := make([]int64, ticks)
	for t := range everyTick {
		everyTick[t] = int64(t + 1)
	}
	tab := table.New(fmt.Sprintf("Extension: queueing cluster, response time by dispatch policy (%d ticks)", ticks),
		"utilization_pct", "greedy_resp", "oblivious_resp", "single_resp",
		"greedy_maxq", "oblivious_maxq", "single_maxq")
	for _, arrivals := range []int64{7, 14, 21, 25, 27} {
		row := []float64{100 * float64(arrivals) / 28}
		var resp, maxq []float64
		for _, f := range []protocol.Factory{
			protocol.GreedyFactory(2), protocol.StandardFactory(2), protocol.SingleFactory(),
		} {
			res, err := sim.Dispatch(sim.RunSpec{
				Config: sim.Config{
					Array: arr, Placer: f, Seed: p.seed(), Workers: p.Workers,
					ObsOptions: sim.ObsOptions{Checkpoints: everyTick},
				},
				Shards:  1,
				Cluster: &sim.ClusterParams{Ticks: ticks, ArrivalsPerTick: arrivals},
			})
			if err != nil {
				return nil, err
			}
			worst := 0.0
			for i := range res.Checkpoints {
				worst = max(worst, res.Checkpoints[i].MaxLoad.Max())
			}
			resp = append(resp, res.Cluster.Latency.Mean())
			maxq = append(maxq, worst)
		}
		row = append(row, resp...)
		row = append(row, maxq...)
		tab.MustAddRow(row...)
	}
	return []*table.Table{tab}, nil
}

func init() {
	register(Experiment{ID: "ext-fairness", Title: "Extension: Gini/entropy fairness across the Fig 6 sweep", Run: extFairness})
	register(Experiment{ID: "ext-cluster", Title: "Extension: queueing cluster response times by dispatch policy", Run: extCluster})
	register(Experiment{ID: "ext-heights", Title: "Extension: ball height distribution (paper §2 definition)", Run: extHeights})
	register(Experiment{ID: "ext-batch", Title: "Extension: batched arrivals with stale load information", Run: extBatch})
	register(Experiment{ID: "ext-heavyhet", Title: "Extension (future work): heavily loaded heterogeneous bins", Run: extHeavyHet})
	register(Experiment{ID: "ext-migration", Title: "Extension: scale-out without re-allocating old balls", Run: extMigration})
	register(Experiment{ID: "ext-wieder", Title: "Extension (related work): skewed probabilities over uniform bins", Run: extWieder})
	register(Experiment{ID: "ext-vnodes", Title: "Extension: consistent-hashing vnodes vs the d-point game", Run: extVnodes})
	register(Experiment{ID: "ext-tune", Title: "Extension (future work): optimised selection distributions", Run: extTune})
}
