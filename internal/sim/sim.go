// Package sim is the Monte-Carlo simulation engine: it runs a configured
// balls-into-bins game for many independent repetitions in parallel and
// aggregates the metrics the paper's figures report.
//
// # Determinism
//
// Repetition i of a run with base seed s draws every random decision
// (random capacities, bin choices, tie breaks) from the dedicated stream
// xrand.NewStream(s, i). Repetitions are processed in fixed-size chunks;
// chunk partial aggregates are merged in chunk order. The result is
// bit-identical for any worker count, including 1.
package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bins"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// chunkSize is the number of repetitions aggregated into one mergeable
// partial. It is a constant (not tunable) so that results do not depend
// on the execution environment.
const chunkSize = 8

// Config describes one experiment: the bin array (fixed or per-repetition
// random), the selection probability distribution, the protocol, the
// number of balls, and what to collect.
type Config struct {
	// Array supplies fixed capacities; it is cloned per worker and reset
	// between repetitions. Ignored when ArrayFn is set.
	Array *bins.Array
	// ArrayFn builds a fresh (possibly random) array per repetition.
	// All repetitions must produce the same number of bins.
	ArrayFn func(r *xrand.Rand) (*bins.Array, error)
	// Dist chooses bin selection weights. Nil defaults to
	// dist.Proportional{} — the paper's standard assumption.
	Dist dist.Distribution
	// Placer builds the allocation protocol. Nil defaults to the paper's
	// Algorithm 1 with d = 2.
	Placer protocol.Factory
	// Balls fixes the number of balls per repetition. When 0, the count
	// is BallsFactor·C (rounded), and when BallsFactor is also 0 it
	// defaults to exactly C — the paper's m = C baseline.
	Balls int64
	// BallsFactor scales the realised total capacity into a ball count:
	// finite, >= 0, and with BallsFactor·C rounded at most MaxInt64.
	BallsFactor float64
	// Reps is the number of independent repetitions (>= 1).
	Reps int
	// Seed is the base RNG seed.
	Seed uint64
	// Workers caps parallelism; 0 means GOMAXPROCS.
	Workers int
	// Context, when non-nil, arms cooperative cancellation: the engine
	// polls it at task boundaries and, once it fires, returns a
	// *CancelledError together with a deterministic partial result
	// covering a contiguous prefix of repetitions (rounds, ticks) —
	// bit-identical to a run configured with that many. Nil behaves
	// like context.Background().
	Context context.Context

	// CollectLoadVector requests the element-wise mean of the sorted
	// (non-increasing) load vector across repetitions — the "load
	// distribution" curves of Figs 1-5 and 10-11.
	CollectLoadVector bool
	// ClassLoadVectors requests per-capacity-class mean sorted load
	// vectors (Figs 12-13). Requires a fixed Array (class sizes must not
	// vary across repetitions).
	ClassLoadVectors []int64
	// TrackClasses requests, per capacity class, the fraction of
	// repetitions in which a bin of that class attains the maximum load
	// (Figs 7 and 9).
	TrackClasses []int64
	// ClassMaxLoads requests, per listed capacity class, an accumulator
	// of the per-repetition maximum load among the bins of that class —
	// the Observation 1 observable (mean and worst big-bin load).
	ClassMaxLoads []int64
	// ObsOptions is the shared observation-option block (checkpoints,
	// height levels, height histogram — see obsoptions.go). In the
	// classic engine Checkpoints are exact ball counts (Fig 16), and
	// every option is supported.
	ObsOptions
}

// CheckpointStat aggregates one checkpoint across repetitions. It is
// the obs.CheckpointRow of the unified observation subsystem; Reps()
// reports how many repetitions actually observed the cut (checkpoints
// beyond a repetition's ball count are skipped, not zero-filled).
type CheckpointStat = obs.CheckpointRow

// Result aggregates a run.
type Result struct {
	// N is the number of bins (identical across repetitions).
	N int
	// Shards is the realised shard count of the sharded, stream and
	// cluster engines (0 for classic and closed-form).
	Shards int
	// Engine records which engine produced the result.
	Engine Engine
	// Balls aggregates the per-repetition ball count (constant unless the
	// array is random and BallsFactor scaling is used).
	Balls stats.Accumulator
	// TotalCapacity aggregates the realised C per repetition.
	TotalCapacity stats.Accumulator
	// MaxLoad aggregates the final maximum load.
	MaxLoad stats.Accumulator
	// AvgLoad aggregates the final average load m/C.
	AvgLoad stats.Accumulator
	// Deviation aggregates final (max − average) load.
	Deviation stats.Accumulator
	// MeanSortedLoads is the element-wise mean of the sorted load vector
	// (only when CollectLoadVector).
	MeanSortedLoads []float64
	// ClassMaxFraction maps capacity class → fraction of repetitions in
	// which that class attains the maximum load (only for TrackClasses).
	ClassMaxFraction map[int64]float64
	// ClassMaxLoad maps capacity class → accumulator of the
	// per-repetition maximum load among bins of that class (only for
	// ClassMaxLoads).
	ClassMaxLoad map[int64]*stats.Accumulator
	// ClassMeanSortedLoads maps class → mean sorted load vector over the
	// bins of that class (only for ClassLoadVectors).
	ClassMeanSortedLoads map[int64][]float64
	// Checkpoints holds per-checkpoint aggregates in ascending ball
	// order (only when Checkpoints were requested).
	Checkpoints []CheckpointStat
	// HeightCounts holds per-level bins-at-load>=k aggregates (only
	// when HeightLevels was requested).
	HeightCounts []obs.HeightRow
	// Heights is the aggregated ball-height histogram (only when
	// HeightBins was requested).
	Heights *stats.Histogram
	// Stream holds the streaming engine's own counters (only when
	// Dispatch ran a streaming spec): completed rounds, arrivals,
	// deletions, moves and the final shard occupancies. The
	// round-indexed trajectory is in Checkpoints; a completed run's
	// final state is one observation of MaxLoad, AvgLoad, Deviation,
	// Balls (the occupancy) and TotalCapacity, plus HeightCounts.
	Stream *StreamResult
	// Cluster holds the cluster engine's own counters (only when
	// Dispatch ran a cluster spec): request and churn accounting, the
	// availability trace and the latency histogram. The tick-indexed
	// trajectory is in Checkpoints; a completed run's final queue state
	// is one observation of MaxLoad and AvgLoad (queue-relative load),
	// Deviation, Balls (the queued requests) and TotalCapacity, plus
	// HeightCounts.
	Cluster *ClusterResult
	// ShardStats holds the sharded engine's per-shard aggregates (only
	// when RunSpec.ShardStats was requested).
	ShardStats *obs.ShardStats
}

type chunkPartial struct {
	balls, totalCap, maxLoad, avgLoad, deviation stats.Accumulator
	loads                                        *obs.SortedLoads
	classMaxCount                                map[int64]int64
	classMaxLoad                                 map[int64]*stats.Accumulator
	classLoadSum                                 map[int64][]float64
	cp                                           *obs.Checkpoints
	hl                                           *obs.Heights
	heights                                      *stats.Histogram
	err                                          error
	// reps counts the repetitions completed and folded into this
	// partial — the chunk runs its repetitions in order, so a chunk
	// abandoned by cancellation holds exactly its leading reps, which
	// is what makes the cancelled partial a contiguous prefix.
	reps int
}

func (c *Config) distribution() dist.Distribution {
	if c.Dist == nil {
		return dist.Proportional{}
	}
	return c.Dist
}

func (c *Config) factory() protocol.Factory {
	if c.Placer == nil {
		return protocol.GreedyFactory(2)
	}
	return c.Placer
}

// BallCount is the number of balls one repetition over an array of the
// given total capacity places: Balls, else BallsFactor·C rounded (at
// least 1), else exactly C.
func (c *Config) BallCount(totalCapacity int64) int64 {
	if c.Balls > 0 {
		return c.Balls
	}
	if c.BallsFactor > 0 {
		m := int64(c.BallsFactor*float64(totalCapacity) + 0.5)
		if m < 1 {
			m = 1
		}
		return m
	}
	return totalCapacity
}

// ballCountErr reports a BallsFactor whose ball count over total
// capacity C does not fit an int64: converting a rounded product of
// 2^63 or more is implementation-defined (MinInt64 on amd64), which
// would silently change the game.
func (c *Config) ballCountErr(totalCapacity int64) error {
	if c.Balls == 0 && c.BallsFactor*float64(totalCapacity)+0.5 >= math.MaxInt64 {
		return fmt.Errorf("sim: BallsFactor = %v: %v·C balls (C = %d) exceed MaxInt64", c.BallsFactor, c.BallsFactor, totalCapacity)
	}
	return nil
}

// workerScratch holds per-worker reusable buffers so the repetition
// loop does not allocate: the one-pass load histogram every
// distribution-shaped observable derives from. It is reused across all
// repetitions a worker processes; partial aggregates stay per chunk so
// merging remains deterministic.
type workerScratch struct {
	hist *bins.LoadHistogram
}

// histogram rebuilds the worker's reusable load histogram from arr in
// one pass. Random per-repetition arrays (ArrayFn) may change the
// class skeleton between repetitions; a skeleton miss rebuilds it once
// and retries — fixed-array runs never hit that path.
func (sc *workerScratch) histogram(arr *bins.Array) (*bins.LoadHistogram, error) {
	if sc.hist == nil {
		sc.hist = arr.NewLoadHistogram()
	}
	if err := arr.HistogramInto(sc.hist); err != nil {
		sc.hist = arr.NewLoadHistogram()
		if err := arr.HistogramInto(sc.hist); err != nil {
			return nil, err
		}
	}
	return sc.hist, nil
}

// needsHistogram reports whether the run requests any
// distribution-shaped observable — the collectors that derive from the
// one-pass load histogram. Max/avg-only runs keep the direct exact
// scan (and its allocation profile).
func (c *Config) needsHistogram() bool {
	return c.CollectLoadVector || c.HeightLevels > 0 ||
		len(c.TrackClasses) > 0 || len(c.ClassMaxLoads) > 0 || len(c.ClassLoadVectors) > 0
}

// snapshotCheckpoint folds checkpoint cut index cut at the given
// realised ball count. Runs that also request distribution-shaped
// observables route through the worker's reusable histogram — the
// same pairs that feed the final fold; checkpoint-only runs keep the
// direct exact scan, which is the same O(n) without the buffer.
// Both paths rank the argmax by cross-multiplied rationals, so the
// rows are bit-identical.
func snapshotCheckpoint(cfg *Config, p *chunkPartial, scratch *workerScratch, arr *bins.Array, cut int, balls int64) error {
	if !cfg.needsHistogram() {
		return p.cp.Snapshot(cut, arr, balls)
	}
	h, err := scratch.histogram(arr)
	if err != nil {
		return err
	}
	return p.cp.SnapshotHist(cut, h, balls)
}

// runRep is the chunk engines' repetition kernel (see chunkRun): it
// plays one repetition on the worker's state and folds its metrics
// into the partial. Classic and closed form differ only in how the
// balls of a checkpoint segment are placed (repWorker.advance).
func (r *chunkRun) runRep(rep uint64, w *repWorker, p *chunkPartial) error {
	cfg, checkpoints := r.cfg, r.checkpoints
	rng := xrand.NewStream(cfg.Seed, rep)
	if cfg.ArrayFn != nil {
		arr, err := cfg.ArrayFn(rng)
		if err != nil {
			return fmt.Errorf("sim: rep %d array: %w", rep, err)
		}
		if err := cfg.ballCountErr(arr.TotalCapacity()); err != nil {
			return err
		}
		weights, err := cfg.distribution().Weights(arr)
		if err != nil {
			return fmt.Errorf("sim: rep %d weights: %w", rep, err)
		}
		w.arr = arr
		if err := r.build(w, weights); err != nil {
			return fmt.Errorf("sim: rep %d placer: %w", rep, err)
		}
	} else {
		w.arr.Reset()
		// Stateful placers (e.g. the batched protocol's round snapshot)
		// must forget the previous repetition.
		if rp, ok := w.placer.(interface{ Reset() }); ok {
			rp.Reset()
		}
	}
	arr := w.arr
	m := cfg.BallCount(arr.TotalCapacity())

	if len(checkpoints) > 0 && p.cp == nil {
		p.cp = obs.NewCheckpoints(checkpoints)
	}
	if cfg.HeightLevels > 0 && p.hl == nil {
		p.hl = obs.NewHeights(cfg.HeightLevels)
	}
	if cfg.HeightBins > 0 && p.heights == nil {
		hiMax := cfg.HeightMax
		if hiMax <= 0 {
			hiMax = 8
		}
		h, err := stats.NewHistogram(0, hiMax, cfg.HeightBins)
		if err != nil {
			return err
		}
		p.heights = h
	}
	nextCp := 0
	if p.heights != nil {
		// Ball heights need the receiving bin of every single ball, so
		// this path stays per-ball (classic only). The draw sequence is
		// identical to the batch path below.
		for k := int64(1); k <= m; k++ {
			idx := w.placer.Place(arr, rng)
			p.heights.Add(arr.Load(idx))
			for nextCp < len(checkpoints) && checkpoints[nextCp] == k {
				if err := snapshotCheckpoint(cfg, p, &w.scratch, arr, nextCp, k); err != nil {
					return err
				}
				nextCp++
			}
		}
	} else {
		// One kernel call per checkpoint segment instead of one per
		// ball.
		placed := int64(0)
		for nextCp < len(checkpoints) && checkpoints[nextCp] <= m {
			cut := checkpoints[nextCp]
			w.advance(rng, cut-placed)
			placed = cut
			if err := snapshotCheckpoint(cfg, p, &w.scratch, arr, nextCp, cut); err != nil {
				return err
			}
			nextCp++
		}
		w.advance(rng, m-placed)
	}
	// Checkpoints beyond m stay unrecorded for this repetition: their
	// rows end up with Reps() < cfg.Reps (0 when no repetition reaches
	// them), which is how callers see the shortfall.

	return foldFinal(cfg, arr, m, rep, &w.scratch, p)
}

// foldFinal folds one repetition's final array state into the chunk
// partial. It is the shared endpoint of the classic and closed-form
// engines: both converge on the same observables once the balls are
// placed, however they got there. When any distribution-shaped
// observable is requested, ONE histogram build replaces the per-
// collector scans and sorts: max load, heights, the sorted load
// vector and every class observable all derive from the same pairs
// (bit-identical to the scans they replace — pinned by equivalence
// tests); max/avg-only runs keep the direct exact scan.
func foldFinal(cfg *Config, arr *bins.Array, m int64, rep uint64, scratch *workerScratch, p *chunkPartial) error {
	var h *bins.LoadHistogram
	var max float64
	if cfg.needsHistogram() {
		var err error
		h, err = scratch.histogram(arr)
		if err != nil {
			return fmt.Errorf("sim: rep %d histogram: %w", rep, err)
		}
		max = h.MaxLoad()
	} else {
		max = arr.MaxLoad()
	}
	avg := arr.AverageLoad()
	p.balls.Add(float64(m))
	p.totalCap.Add(float64(arr.TotalCapacity()))
	p.maxLoad.Add(max)
	p.avgLoad.Add(avg)
	p.deviation.Add(max - avg)

	if p.hl != nil {
		if err := p.hl.SnapshotHist(obs.Final, h, m); err != nil {
			return fmt.Errorf("sim: rep %d heights: %w", rep, err)
		}
	}
	if cfg.CollectLoadVector {
		if p.loads == nil {
			p.loads = obs.NewSortedLoads()
		}
		if err := p.loads.SnapshotHist(obs.Final, h, m); err != nil {
			return fmt.Errorf("sim: rep %d: %w", rep, err)
		}
	}
	if len(cfg.TrackClasses) > 0 {
		if p.classMaxCount == nil {
			p.classMaxCount = make(map[int64]int64, len(cfg.TrackClasses))
		}
		for _, class := range cfg.TrackClasses {
			if h.ClassAttainsMax(class) {
				p.classMaxCount[class]++
			}
		}
	}
	if len(cfg.ClassMaxLoads) > 0 {
		if p.classMaxLoad == nil {
			p.classMaxLoad = make(map[int64]*stats.Accumulator, len(cfg.ClassMaxLoads))
		}
		for _, class := range cfg.ClassMaxLoads {
			acc := p.classMaxLoad[class]
			if acc == nil {
				acc = &stats.Accumulator{}
				p.classMaxLoad[class] = acc
			}
			acc.Add(h.MaxLoadOfClass(class))
		}
	}
	if len(cfg.ClassLoadVectors) > 0 {
		if p.classLoadSum == nil {
			p.classLoadSum = make(map[int64][]float64, len(cfg.ClassLoadVectors))
		}
		for _, class := range cfg.ClassLoadVectors {
			sum, ok := p.classLoadSum[class]
			if !ok {
				sum = make([]float64, h.ClassBins(class))
				p.classLoadSum[class] = sum
			}
			// Within one class load order is ball-count order, so the
			// histogram emits the non-increasing vector with no sort.
			if err := h.AddClassLoadsDesc(class, sum); err != nil {
				return fmt.Errorf("sim: rep %d class %d: %w", rep, class, err)
			}
		}
	}
	return nil
}

// reduce merges chunk partials in deterministic (chunk index) order.
// It merges the longest contiguous prefix of complete chunks plus the
// leading repetitions of the first incomplete chunk, and reports how
// many repetitions that prefix covers: an uncancelled run always
// yields completed == cfg.Reps, a cancelled one the deterministic
// prefix the partial result covers (chunks a worker claimed after
// cancellation hold zero repetitions and end the prefix). Any chunk
// error — including errors in chunks beyond the prefix — fails the
// whole run: a panic is never masked by a concurrent cancellation.
func reduce(cfg *Config, checkpoints []int64, partials []chunkPartial) (*Result, int, error) {
	for ci := range partials {
		if partials[ci].err != nil {
			return nil, 0, partials[ci].err
		}
	}
	res := &Result{}
	var cp *obs.Checkpoints
	if len(checkpoints) > 0 {
		cp = obs.NewCheckpoints(checkpoints)
	}
	var hl *obs.Heights
	if cfg.HeightLevels > 0 {
		hl = obs.NewHeights(cfg.HeightLevels)
	}
	completed := 0
	loads := obs.NewSortedLoads()
	for ci := range partials {
		p := &partials[ci]
		lo := ci * chunkSize
		hi := lo + chunkSize
		if hi > cfg.Reps {
			hi = cfg.Reps
		}
		completed += p.reps
		incomplete := p.reps < hi-lo
		res.Balls.Merge(&p.balls)
		res.TotalCapacity.Merge(&p.totalCap)
		res.MaxLoad.Merge(&p.maxLoad)
		res.AvgLoad.Merge(&p.avgLoad)
		res.Deviation.Merge(&p.deviation)
		if p.loads != nil {
			if err := loads.Merge(p.loads); err != nil {
				return nil, 0, fmt.Errorf("sim: inconsistent bin counts across repetitions: %w", err)
			}
		}
		if p.cp != nil {
			if err := cp.Merge(p.cp); err != nil {
				return nil, 0, fmt.Errorf("sim: %w", err)
			}
		}
		if p.hl != nil {
			if err := hl.Merge(p.hl); err != nil {
				return nil, 0, fmt.Errorf("sim: %w", err)
			}
		}
		if p.classMaxCount != nil {
			if res.ClassMaxFraction == nil {
				res.ClassMaxFraction = make(map[int64]float64)
			}
			for class, count := range p.classMaxCount {
				res.ClassMaxFraction[class] += float64(count)
			}
		}
		if p.classMaxLoad != nil {
			if res.ClassMaxLoad == nil {
				res.ClassMaxLoad = make(map[int64]*stats.Accumulator, len(p.classMaxLoad))
			}
			for class, acc := range p.classMaxLoad {
				dst := res.ClassMaxLoad[class]
				if dst == nil {
					dst = &stats.Accumulator{}
					res.ClassMaxLoad[class] = dst
				}
				dst.Merge(acc)
			}
		}
		if p.classLoadSum != nil {
			if res.ClassMeanSortedLoads == nil {
				res.ClassMeanSortedLoads = make(map[int64][]float64)
			}
			for class, sum := range p.classLoadSum {
				dst := res.ClassMeanSortedLoads[class]
				if dst == nil {
					dst = make([]float64, len(sum))
					res.ClassMeanSortedLoads[class] = dst
				}
				for i, v := range sum {
					dst[i] += v
				}
			}
		}
		if p.heights != nil {
			if res.Heights == nil {
				h, err := stats.NewHistogram(p.heights.Lo, p.heights.Hi, len(p.heights.Counts))
				if err != nil {
					return nil, 0, err
				}
				res.Heights = h
			}
			if err := res.Heights.Merge(p.heights); err != nil {
				return nil, 0, err
			}
		}
		if incomplete {
			// The first incomplete chunk ends the prefix: later chunks
			// may have run out of order and would punch holes in it.
			break
		}
	}
	res.MeanSortedLoads = loads.Mean()
	if cp != nil {
		res.Checkpoints = cp.Rows()
	}
	if hl != nil {
		res.HeightCounts = hl.Rows()
	}
	// Fractions normalise by the repetitions actually folded, so a
	// cancelled partial reports the same fractions a Reps = completed
	// run would.
	if res.ClassMaxFraction != nil && completed > 0 {
		for class := range res.ClassMaxFraction {
			res.ClassMaxFraction[class] /= float64(completed)
		}
	}
	if res.ClassMeanSortedLoads != nil && completed > 0 {
		for _, sum := range res.ClassMeanSortedLoads {
			for i := range sum {
				sum[i] /= float64(completed)
			}
		}
	}
	if res.Balls.N() > 0 {
		n, err := nBins(cfg)
		if err != nil {
			return nil, 0, err
		}
		res.N = n
	}
	return res, completed, nil
}

func nBins(cfg *Config) (int, error) {
	if cfg.Array != nil {
		return cfg.Array.N(), nil
	}
	// ArrayFn: rebuild rep 0's array cheaply to read n. The builder is
	// deterministic in the stream, so this matches what the run used.
	// A builder error here would mean the run itself should already
	// have failed, but it must not be swallowed into N = 0: an ArrayFn
	// that succeeds only on some streams would otherwise silently
	// corrupt the result.
	r := xrand.NewStream(cfg.Seed, 0)
	a, err := cfg.ArrayFn(r)
	if err != nil {
		return 0, fmt.Errorf("sim: probing bin count from ArrayFn: %w", err)
	}
	return a.N(), nil
}
