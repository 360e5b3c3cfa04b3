package balls

import (
	"context"

	"repro/internal/bins"
	"repro/internal/sim"
)

// LargeConfig describes one sharded single run: one huge game (n up to
// 10^7 bins) whose bin array is partitioned into contiguous shards that
// place their balls in parallel. See SimulateLarge.
type LargeConfig struct {
	// Capacities of the bin array (required).
	Capacities []int64
	// Balls to place; 0 means BallsFactor·C, or exactly C when
	// BallsFactor is also 0.
	Balls int64
	// BallsFactor scales C into a ball count when Balls is 0 (e.g. 10
	// for the heavily loaded m = 10·C).
	BallsFactor float64
	// Seed is the base seed (default 1). Routing happens in fixed-size
	// routing blocks, block b drawing from substream (Seed, stream 0,
	// b); stream 1+s places shard s.
	Seed uint64
	// Shards is the number of contiguous shards (0 = engine default).
	// It is part of the model: changing it changes the result, exactly
	// like changing Seed.
	Shards int
	// Workers caps parallelism (0 = GOMAXPROCS). It never affects the
	// result, only the wall clock.
	Workers int
	// Distribution and Protocol default to Proportional / Greedy(2).
	Distribution Distribution
	Protocol     Protocol
	// Checkpoints requests running (max − average) observations at the
	// given global ball counts. A sharded run has no global ball
	// order, so a checkpoint at B is realised per shard — the balls
	// among the first B routed to each shard, aligned down to the
	// placement kernel's 256-ball block size — and the realised count
	// (CheckpointResult.MeanBalls <= B) reflects that. The cut rule is
	// part of the model, like Shards: it never depends on Workers, and
	// requesting checkpoints never changes the final state.
	Checkpoints []int64
	// Heights requests, for k = 1..Heights, the number of bins whose
	// final load is at least k.
	Heights int
	// Context, when non-nil, arms cooperative cancellation: the run
	// stops at the next routing-block or placement-block boundary and
	// returns a partial result alongside a *CancelledError. Nil runs
	// to completion.
	Context context.Context
}

// LargeLoads exposes the final state of a sharded run.
type LargeLoads struct {
	arr *bins.Array
}

// LargeResult aggregates one sharded single run.
type LargeResult struct {
	// N is the number of bins, Shards the realised shard count, Balls
	// the number of balls placed.
	N      int
	Shards int
	Balls  int64
	// MaxLoad, AverageLoad and Deviation are the final whole-array
	// statistics (deviation = max − average).
	MaxLoad     float64
	AverageLoad float64
	Deviation   float64
	// ShardBalls[s] is the number of balls routed to shard s.
	ShardBalls []int64
	// Checkpoints holds the run's checkpoint observations (only when
	// requested; Reps is 1 for every realised cut).
	Checkpoints []CheckpointResult
	// Heights holds bins-at-load>=k counts of the final state (only
	// when requested).
	Heights []HeightResult
	// Loads gives read access to the final per-bin state. On a
	// cancelled run whose placement phase never completed, no final
	// state exists and Loads is the zero value (its methods must not
	// be called).
	Loads LargeLoads
}

// Balls returns the final ball count of bin i.
func (l LargeLoads) Balls(i int) int64 { return l.arr.Balls(i) }

// Capacity returns the capacity of bin i.
func (l LargeLoads) Capacity(i int) int64 { return l.arr.Capacity(i) }

// Load returns the final load of bin i.
func (l LargeLoads) Load(i int) float64 { return l.arr.Load(i) }

// N returns the number of bins.
func (l LargeLoads) N() int { return l.arr.N() }

// SimulateLarge runs ONE game at large scale, sharded across workers:
// MonteCarloLarge with Reps = 1, keeping the final state. The bin
// array splits into cfg.Shards contiguous shards, balls are routed to
// shards with probability proportional to each shard's total
// selection weight — generated block-wise as exact multinomial count
// vectors, one deterministic substream per routing block, never ball
// by ball — and each shard runs the protocol over its own bins on its
// own RNG stream. Each candidate draw has exactly the configured
// marginal distribution; the relaxation is that one ball's d choices
// all land in the same shard. The final state is bit-identical for any
// Workers value — only (Capacities, Balls, Seed, Shards, Distribution,
// Protocol) determine it; routing blocks are part of the model, like
// Shards.
//
// When cfg.Context fires mid-run, SimulateLarge returns a partial
// result alongside a *CancelledError (CompletedReps = 0): the leading
// CancelledError.CompletedCuts checkpoint rows, each bit-identical to
// the corresponding row of an uninterrupted run. Final-state fields
// (MaxLoad, ShardBalls, Loads, …) are unset on a cancelled partial.
func SimulateLarge(cfg LargeConfig) (*LargeResult, error) {
	spec, err := buildSpec("SimulateLarge", &cfg)
	if err != nil {
		return nil, err
	}
	spec.Engine = sim.EngineSharded
	spec.Reps = 1
	spec.ShardStats = true
	res, err := sim.Dispatch(spec)
	if err != nil && cancelledPartial(err, res != nil) == nil {
		return nil, err
	}
	out := &LargeResult{
		N:           res.N,
		Shards:      res.Shards,
		Balls:       spec.BallCount(spec.Array.TotalCapacity()),
		Checkpoints: checkpointResults(res.Checkpoints),
	}
	if err != nil {
		return out, err
	}
	out.MaxLoad = res.MaxLoad.Mean()
	out.AverageLoad = res.AvgLoad.Mean()
	out.Deviation = res.Deviation.Mean()
	out.Heights = heightResults(res.HeightCounts)
	out.Loads = LargeLoads{arr: spec.Array}
	// One observation per shard: the mean is the exact routed count.
	rows := res.ShardStats.Rows()
	out.ShardBalls = make([]int64, len(rows))
	for s := range rows {
		out.ShardBalls[s] = int64(rows[s].Balls.Mean())
	}
	return out, nil
}

// MonteLargeConfig describes a Monte-Carlo aggregate over sharded
// single runs: Reps independent repetitions of the game a LargeConfig
// describes, streamed into summary statistics. See MonteCarloLarge.
type MonteLargeConfig struct {
	LargeConfig
	// Reps is the number of independent repetitions (default 100).
	Reps int
	// Resume continues a previously cancelled run from the ResumeState
	// its CancelledError carried (or ReadResumeState loaded). The rest
	// of the config must describe the same model — Capacities, Balls,
	// Seed, Shards, Checkpoints, Heights, SortedLoads, ShardStats —
	// or MonteCarloLarge rejects the checkpoint. A resumed run's final
	// aggregates are byte-identical to an uninterrupted one.
	Resume *ResumeState
	// CancelAfterReps, when positive, deterministically stops the run
	// after exactly that many repetitions — a timing-free stand-in for
	// an external cancellation (the returned CancelledError has a nil
	// Cause). Zero disables it.
	CancelAfterReps int
	// SortedLoads requests the element-wise mean of the non-increasing
	// sorted load vector across repetitions (one O(n) sort per
	// repetition; the per-repetition vectors are never retained).
	SortedLoads bool
	// ShardStats requests per-shard aggregates across repetitions
	// (balls routed, shard-local final max load) — the imbalance view
	// of the two-level protocol. The shard-local maxima are taken on
	// every run anyway, so this adds only the per-shard accumulators.
	ShardStats bool
}

// MonteLargeResult aggregates a sharded Monte-Carlo run. Only summary
// statistics are kept — every repetition is played on one bin array
// and summarised before the next starts, so memory stays O(n) for any
// Workers, never O(Reps · n).
type MonteLargeResult struct {
	// N is the number of bins, Shards the realised shard count, Reps
	// the number of repetitions aggregated, Balls the balls placed per
	// repetition.
	N      int
	Shards int
	Reps   int
	Balls  int64
	// AverageLoad is m/C (identical in every repetition).
	AverageLoad float64
	// MeanMaxLoad / MaxLoadCI95: final maximum load, mean and 95% CI
	// half-width; WorstMaxLoad is the largest final max load seen in
	// any repetition.
	MeanMaxLoad  float64
	MaxLoadCI95  float64
	WorstMaxLoad float64
	// MeanDeviation / DeviationCI95 aggregate (max − average), the
	// paper's gap.
	MeanDeviation float64
	DeviationCI95 float64
	// MeanSortedLoads is the element-wise mean of the non-increasing
	// load vector (only when SortedLoads was requested).
	MeanSortedLoads []float64
	// Checkpoints holds per-checkpoint aggregates across repetitions
	// (only when requested). Each repetition realises the cuts through
	// its own routing stream, so MeanBalls is an average over
	// block-aligned per-repetition counts.
	Checkpoints []CheckpointResult
	// Heights holds bins-at-load>=k aggregates (only when requested).
	Heights []HeightResult
	// ShardStats holds per-shard routing/load aggregates in shard
	// order (only when requested).
	ShardStats []ShardStatResult
}

// MonteCarloLarge runs cfg.Reps independent sharded games (each as
// SimulateLarge would) one after another, each with per-shard
// parallelism on one bounded worker pool, and aggregates them — the
// huge-n Monte-Carlo regime (n up to 10^7 with hundreds of
// repetitions) the classic Simulate engine cannot reach.
//
// Repetition 0 is the game SimulateLarge plays with the same config;
// repetition rep offsets the stream layout by rep·(Shards+1). The
// aggregate is bit-identical for any Workers value; Shards remains
// part of the model, exactly as in SimulateLarge.
//
// When cfg.Context fires (or CancelAfterReps triggers),
// MonteCarloLarge returns the aggregates over the completed-repetition
// prefix alongside a *CancelledError whose Checkpoint resumes the run
// (see MonteLargeConfig.Resume): interrupted-then-resumed aggregates
// are byte-identical to an uninterrupted run's.
func MonteCarloLarge(cfg MonteLargeConfig) (*MonteLargeResult, error) {
	spec, err := buildSpec("MonteCarloLarge", &cfg.LargeConfig)
	if err != nil {
		return nil, err
	}
	spec.Engine = sim.EngineSharded
	spec.Reps = cfg.Reps
	if spec.Reps == 0 {
		spec.Reps = 100
	}
	spec.CollectLoadVector = cfg.SortedLoads
	spec.ShardStats = cfg.ShardStats
	spec.Resume = cfg.Resume
	spec.CancelAfter = cfg.CancelAfterReps
	res, err := sim.Dispatch(spec)
	if err != nil && cancelledPartial(err, res != nil) == nil {
		return nil, err
	}
	return &MonteLargeResult{
		N:               res.N,
		Shards:          res.Shards,
		Reps:            int(res.MaxLoad.N()),
		Balls:           spec.BallCount(spec.Array.TotalCapacity()),
		AverageLoad:     res.AvgLoad.Mean(),
		MeanMaxLoad:     res.MaxLoad.Mean(),
		MaxLoadCI95:     res.MaxLoad.CI95(),
		WorstMaxLoad:    res.MaxLoad.Max(),
		MeanDeviation:   res.Deviation.Mean(),
		DeviationCI95:   res.Deviation.CI95(),
		MeanSortedLoads: res.MeanSortedLoads,
		Checkpoints:     checkpointResults(res.Checkpoints),
		Heights:         heightResults(res.HeightCounts),
		ShardStats:      shardStatResults(res.ShardStats),
	}, err
}
