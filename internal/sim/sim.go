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
	"cmp"
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

// collectors is the one collector set a repetition's final state folds
// into — a chunk's partial, the sharded Monte-Carlo run, a trajectory's
// end — and the one place sets merge and become a *Result.
type collectors struct {
	balls, totalCap, maxLoad, avgLoad, deviation stats.Accumulator

	loads   *obs.SortedLoads // CollectLoadVector
	cp      *obs.Checkpoints // Checkpoints
	hl      *obs.Heights     // HeightLevels
	heights *stats.Histogram // HeightBins: per-ball heights, fed by the classic engine
	classes obs.Classes      // TrackClasses, ClassMaxLoads, ClassLoadVectors
}

// newCollectors builds the set c requests over its normalised cuts.
func newCollectors(c *Config, cuts []int64) (collectors, error) {
	s := collectors{classes: obs.NewClasses(c.TrackClasses, c.ClassMaxLoads, c.ClassLoadVectors)}
	if len(cuts) > 0 {
		s.cp = obs.NewCheckpoints(cuts)
	}
	if c.HeightLevels > 0 {
		s.hl = obs.NewHeights(c.HeightLevels)
	}
	if c.CollectLoadVector {
		s.loads = obs.NewSortedLoads()
	}
	if c.HeightBins > 0 {
		var err error
		if s.heights, err = stats.NewHistogram(0, cmp.Or(c.HeightMax, 8), c.HeightBins); err != nil {
			return s, err
		}
	}
	return s, nil
}

// final folds the final state of arr, holding balls balls. h, when
// non-nil, is arr's load histogram: ONE pass from which the max load
// and every distribution-shaped observable derive (bit-identical to
// the scans it replaces — pinned by equivalence tests); without it the
// max load is a direct exact scan.
func (s *collectors) final(arr *bins.Array, h *bins.LoadHistogram, balls int64) error {
	var max float64
	if h != nil {
		max = h.MaxLoad()
	} else {
		max = arr.MaxLoad()
	}
	return s.observe(max, arr.AverageLoad(), balls, arr.TotalCapacity(), h)
}

// observe folds one final state: its max and average load, ball count
// and total capacity, and from h every distribution-shaped observable
// the set holds (h may be nil when it holds none).
func (s *collectors) observe(max, avg float64, balls, totalCap int64, h *bins.LoadHistogram) error {
	if s.hl != nil {
		if err := s.hl.SnapshotHist(obs.Final, h, balls); err != nil {
			return err
		}
	}
	if s.loads != nil {
		if err := s.loads.SnapshotHist(obs.Final, h, balls); err != nil {
			return err
		}
	}
	if err := s.classes.Observe(h); err != nil {
		return err
	}
	s.balls.Add(float64(balls))
	s.totalCap.Add(float64(totalCap))
	s.maxLoad.Add(max)
	s.avgLoad.Add(avg)
	s.deviation.Add(max - avg)
	return nil
}

// reps is the number of repetitions folded into the set: each adds
// one max-load observation, after every other observable.
func (s *collectors) reps() int { return int(s.maxLoad.N()) }

// merge folds another set of the same shape into s. Sets merge in
// chunk order, so every float sum runs in chunk order and, within a
// chunk, in repetition order.
func (s *collectors) merge(o *collectors) error {
	s.balls.Merge(&o.balls)
	s.totalCap.Merge(&o.totalCap)
	s.maxLoad.Merge(&o.maxLoad)
	s.avgLoad.Merge(&o.avgLoad)
	s.deviation.Merge(&o.deviation)
	var err error
	if s.loads != nil {
		err = s.loads.Merge(o.loads)
	}
	if s.cp != nil && err == nil {
		err = s.cp.Merge(o.cp)
	}
	if s.hl != nil && err == nil {
		err = s.hl.Merge(o.hl)
	}
	if s.heights != nil && err == nil {
		err = s.heights.Merge(o.heights)
	}
	if err == nil {
		err = s.classes.Merge(&o.classes)
	}
	if err != nil {
		return fmt.Errorf("sim: inconsistent bin counts across repetitions: %w", err)
	}
	return nil
}

// result moves the set into res: the accumulators and every
// collector's rows, plus — once a repetition was folded — the per-ball
// heights and the class observables over the folded repetitions. res
// shares the set's rows, so the set is spent.
func (s *collectors) result(res *Result) *Result {
	res.Balls, res.TotalCapacity = s.balls, s.totalCap
	res.MaxLoad, res.AvgLoad, res.Deviation = s.maxLoad, s.avgLoad, s.deviation
	if s.loads != nil {
		res.MeanSortedLoads = s.loads.Mean()
	}
	if s.cp != nil {
		res.Checkpoints = s.cp.Rows()
	}
	if s.hl != nil {
		res.HeightCounts = s.hl.Rows()
	}
	if reps := s.reps(); reps > 0 {
		res.Heights = s.heights
		res.ClassMaxFraction, res.ClassMaxLoad, res.ClassMeanSortedLoads = s.classes.Rows(int64(reps))
	}
	return res
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
		m := int64(float64(c.BallsFactor*float64(totalCapacity)) + 0.5)
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
	if c.Balls == 0 && float64(c.BallsFactor*float64(totalCapacity))+0.5 >= math.MaxInt64 {
		return fmt.Errorf("sim: BallsFactor = %v: %v·C balls (C = %d) exceed MaxInt64", c.BallsFactor, c.BallsFactor, totalCapacity)
	}
	return nil
}

// histogram returns the load histogram of the worker's array, rebuilt
// in one pass into the worker's reusable buffer, or nil when the run
// requests no distribution-shaped observable: max/avg-only runs keep
// the direct exact scans (and their allocation profile). Random
// per-repetition arrays (ArrayFn) may change the class skeleton
// between repetitions; a skeleton miss rebuilds the buffer once and
// retries — fixed-array runs never hit that path.
func (w *repWorker) histogram(c *Config) (*bins.LoadHistogram, error) {
	if !c.CollectLoadVector && c.HeightLevels == 0 && len(c.TrackClasses)+len(c.ClassMaxLoads)+len(c.ClassLoadVectors) == 0 {
		return nil, nil
	}
	if w.hist == nil {
		w.hist = w.arr.NewLoadHistogram()
	}
	if err := w.arr.HistogramInto(w.hist); err != nil {
		w.hist = w.arr.NewLoadHistogram()
		if err := w.arr.HistogramInto(w.hist); err != nil {
			return nil, err
		}
	}
	return w.hist, nil
}

// runRep is the chunk engines' repetition kernel (see chunkRun): it
// plays one repetition on the worker's state and folds its metrics
// into the chunk's collector set. Classic and closed form differ only
// in how the balls of a checkpoint segment are placed
// (repWorker.advance).
func (r *chunkRun) runRep(rep uint64, w *repWorker, s *collectors) error {
	cfg, checkpoints := &r.cfg, r.checkpoints
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
		w.placer.newRep()
	}
	arr := w.arr
	m := cfg.BallCount(arr.TotalCapacity())

	// A checkpoint reads the same one-pass histogram as the final fold
	// when the run builds one, else scans the array directly (the same
	// O(n) without the buffer); both rank the argmax by
	// cross-multiplied rationals, so the rows are bit-identical.
	snapshot := func(cut int, balls int64) error {
		switch h, err := w.histogram(cfg); {
		case err != nil:
			return err
		case h == nil:
			return s.cp.Snapshot(cut, arr, balls)
		default:
			return s.cp.SnapshotHist(cut, h, balls)
		}
	}
	nextCp := 0
	if s.heights != nil {
		// Ball heights need the receiving bin of every single ball, so
		// this path stays per-ball (classic only). The draw sequence is
		// identical to the batch path below.
		for k := int64(1); k <= m; k++ {
			idx := w.placer.Place(arr, rng)
			s.heights.Add(arr.Load(idx))
			for nextCp < len(checkpoints) && checkpoints[nextCp] == k {
				if err := snapshot(nextCp, k); err != nil {
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
			if err := snapshot(nextCp, cut); err != nil {
				return err
			}
			nextCp++
		}
		w.advance(rng, m-placed)
	}
	// Checkpoints beyond m stay unrecorded for this repetition: their
	// rows end up with Reps() < cfg.Reps (0 when no repetition reaches
	// them), which is how callers see the shortfall.

	h, err := w.histogram(cfg)
	if err == nil {
		err = s.final(arr, h, m)
	}
	if err != nil {
		return fmt.Errorf("sim: rep %d: %w", rep, err)
	}
	return nil
}

// reduce merges the chunk partials, in chunk order, into the first
// one and reports how many repetitions the result covers: the longest
// run of complete chunks plus the leading repetitions of the first
// incomplete one. An uncancelled run always yields completed ==
// cfg.Reps, a cancelled one the deterministic prefix its partial
// covers (a chunk claimed after cancellation holds zero repetitions
// and ends the prefix; later chunks may have run out of order and
// would punch holes in it).
func reduce(cfg *Config, partials []collectors) (*Result, int, error) {
	s := &partials[0]
	for ci := range partials {
		if ci > 0 {
			if err := s.merge(&partials[ci]); err != nil {
				return nil, 0, err
			}
		}
		if partials[ci].reps() < min(chunkSize, cfg.Reps-ci*chunkSize) {
			break
		}
	}
	res, completed := s.result(&Result{}), s.reps()
	if completed > 0 {
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
