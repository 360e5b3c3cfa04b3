package balls

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bins"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/theory"
)

// SimConfig describes a Monte-Carlo run: many independent repetitions of
// the same game, aggregated.
type SimConfig struct {
	// Capacities of the bin array (required).
	Capacities []int64
	// Balls per repetition; 0 means m = C (the paper's default).
	Balls int64
	// BallsFactor scales C into a ball count when Balls is 0 (e.g. 10
	// for the heavily loaded m = 10·C).
	BallsFactor float64
	// Reps is the number of repetitions (default 100).
	Reps int
	// Seed is the base seed (default 1); repetition i uses an
	// independent stream derived from (Seed, i).
	Seed uint64
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int
	// Distribution and Protocol default to Proportional / Greedy(2).
	Distribution Distribution
	Protocol     Protocol
	// SortedLoads requests the mean sorted load vector (the paper's
	// "load distribution" curves).
	SortedLoads bool
	// Checkpoints requests running (max − average) load measurements at
	// the given ball counts (the paper's §4.4 heavy-load series).
	// Checkpoints beyond the ball count are skipped, not zero-filled;
	// CheckpointResult.Reps counts the repetitions that observed each.
	Checkpoints []int64
	// Heights requests, for k = 1..Heights, the number of bins whose
	// final load is at least k — the concentration-bound observable.
	Heights int
	// Context, when non-nil, arms cooperative cancellation: when it
	// fires, Simulate stops at the next repetition boundary and returns
	// a partial result (the aggregates over the completed-repetition
	// prefix) alongside a *CancelledError. Nil runs to completion.
	Context context.Context
}

// CheckpointResult is one aggregated checkpoint. It is shared by every
// wrapper (Simulate, SimulateLarge, MonteCarloLarge, SimulateStream,
// SimulateCluster); the streaming and serving cuts are round and tick
// indices.
type CheckpointResult struct {
	// Balls is the requested cut (a global ball count).
	Balls int64
	// Reps is the number of repetitions that actually observed the
	// cut: checkpoints beyond a repetition's ball count — and, in the
	// sharded engines, cuts so small that their block-aligned
	// realisation is empty — are skipped, so Reps may be below the
	// run's repetition count (0 when no repetition observed the cut —
	// the Mean fields are NaN then).
	Reps int64
	// MeanBalls is the mean realised ball count at the cut. For
	// Simulate it equals Balls; for the sharded engines the cut is
	// realised per shard, aligned down to the placement kernel's
	// block size (see SimulateLarge), so MeanBalls <= Balls and can
	// vary with each repetition's routing stream.
	MeanBalls     float64
	MeanMaxLoad   float64
	MeanDeviation float64 // max − average at this point
}

// HeightResult aggregates, across repetitions, the number of bins at
// final load >= Level.
type HeightResult struct {
	Level    int64
	MeanBins float64
	BinsCI95 float64 // 95% CI half-width (NaN for a single run)
}

// checkpointResults converts the observation subsystem's rows into the
// public form.
func checkpointResults(rows []obs.CheckpointRow) []CheckpointResult {
	if len(rows) == 0 {
		return nil
	}
	out := make([]CheckpointResult, len(rows))
	for i := range rows {
		r := &rows[i]
		out[i] = CheckpointResult{
			Balls:         r.Balls,
			Reps:          r.Reps(),
			MeanBalls:     r.RealBalls.Mean(),
			MeanMaxLoad:   r.MaxLoad.Mean(),
			MeanDeviation: r.Deviation.Mean(),
		}
	}
	return out
}

// ShardStatResult aggregates one shard of a sharded Monte-Carlo run
// across repetitions — the imbalance view of the two-level protocol
// (only when MonteLargeConfig.ShardStats was requested).
type ShardStatResult struct {
	// Shard is the shard index (shards are contiguous bin ranges).
	Shard int
	// MeanBalls / BallsCI95: balls routed to the shard, mean and 95%
	// CI half-width across repetitions (NaN for a single repetition).
	MeanBalls float64
	BallsCI95 float64
	// MeanMaxLoad / WorstMaxLoad: the shard-local final maximum load,
	// mean and worst across repetitions.
	MeanMaxLoad  float64
	WorstMaxLoad float64
}

// shardStatResults converts the observation subsystem's rows into the
// public form.
func shardStatResults(ss *obs.ShardStats) []ShardStatResult {
	if ss == nil {
		return nil
	}
	rows := ss.Rows()
	out := make([]ShardStatResult, len(rows))
	for i := range rows {
		r := &rows[i]
		out[i] = ShardStatResult{
			Shard:        r.Shard,
			MeanBalls:    r.Balls.Mean(),
			BallsCI95:    r.Balls.CI95(),
			MeanMaxLoad:  r.MaxLoad.Mean(),
			WorstMaxLoad: r.MaxLoad.Max(),
		}
	}
	return out
}

// heightResults converts the observation subsystem's rows into the
// public form.
func heightResults(rows []obs.HeightRow) []HeightResult {
	if len(rows) == 0 {
		return nil
	}
	out := make([]HeightResult, len(rows))
	for i := range rows {
		out[i] = HeightResult{
			Level:    rows[i].Level,
			MeanBins: rows[i].Bins.Mean(),
			BinsCI95: rows[i].Bins.CI95(),
		}
	}
	return out
}

// SimResult aggregates a Monte-Carlo run.
type SimResult struct {
	// Reps is the number of repetitions aggregated.
	Reps int
	// Balls is the number of balls per repetition.
	Balls int64
	// MeanMaxLoad / MaxLoadCI95: final maximum load, mean and 95% CI
	// half-width.
	MeanMaxLoad float64
	MaxLoadCI95 float64
	// WorstMaxLoad is the largest final max load seen in any repetition.
	WorstMaxLoad float64
	// AverageLoad is m/C.
	AverageLoad float64
	// MeanDeviation is the mean of (max − average) final load.
	MeanDeviation float64
	// MeanSortedLoads is the element-wise mean of the non-increasing
	// load vector (only when SortedLoads was requested).
	MeanSortedLoads []float64
	// Checkpoints holds running aggregates (only when requested).
	Checkpoints []CheckpointResult
	// Heights holds bins-at-load>=k aggregates (only when requested).
	Heights []HeightResult
	// TheoryBound is ln ln(n)/ln(2), the paper's leading-order max-load
	// term for d = 2 and m = C, for orientation.
	TheoryBound float64
}

// Simulate runs cfg.Reps independent games and aggregates them. Results
// are deterministic in (Capacities, Balls, Seed, Distribution, Protocol)
// regardless of Workers.
//
// When cfg.Context fires mid-run, Simulate returns a partial result
// covering the completed-repetition prefix together with a
// *CancelledError (errors.Is(err, ErrCancelled)); the partial's
// aggregates are bit-identical to a run configured with that smaller
// Reps. Mean fields are NaN when no repetition completed.
func Simulate(cfg SimConfig) (*SimResult, error) {
	spec, err := buildSpec("Simulate", &LargeConfig{
		Capacities:   cfg.Capacities,
		Balls:        cfg.Balls,
		BallsFactor:  cfg.BallsFactor,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		Distribution: cfg.Distribution,
		Protocol:     cfg.Protocol,
		Checkpoints:  cfg.Checkpoints,
		Heights:      cfg.Heights,
		Context:      cfg.Context,
	})
	if err != nil {
		return nil, err
	}
	reps := cfg.Reps
	if reps == 0 {
		reps = 100
	}
	spec.Reps = reps
	spec.CollectLoadVector = cfg.SortedLoads
	// Classic explicitly: auto-selection would move n >= AutoScaleMinBins
	// off the paper's per-ball game.
	spec.Engine = sim.EngineClassic
	res, err := sim.Dispatch(spec)
	if err != nil {
		cancelled := cancelledPartial(err, res != nil)
		if cancelled == nil {
			return nil, err
		}
		reps = cancelled.CompletedReps
	}
	balls := res.Balls.Mean()
	if math.IsNaN(balls) {
		balls = 0 // cancelled before any repetition completed
	}
	return &SimResult{
		Reps:            reps,
		Balls:           int64(balls),
		MeanMaxLoad:     res.MaxLoad.Mean(),
		MaxLoadCI95:     res.MaxLoad.CI95(),
		WorstMaxLoad:    res.MaxLoad.Max(),
		AverageLoad:     res.AvgLoad.Mean(),
		MeanDeviation:   res.Deviation.Mean(),
		MeanSortedLoads: res.MeanSortedLoads,
		Checkpoints:     checkpointResults(res.Checkpoints),
		Heights:         heightResults(res.HeightCounts),
		TheoryBound:     theory.TwoChoiceBound(spec.Array.N(), 2),
	}, err
}

// buildSpec is the one mapping from the public configs to the engine
// spec. It takes the fields every public config shares, in their
// LargeConfig spelling: a private bin array over the capacities,
// adopted by the engine so no second O(n) copy is made; the seed
// default of 1; the selection distribution and protocol (unset ones
// stay nil, the engines' defaults); the observation requests; and the
// context. The wrapper then sets its engine's own fields.
func buildSpec(wrapper string, cfg *LargeConfig) (sim.RunSpec, error) {
	if len(cfg.Capacities) == 0 {
		return sim.RunSpec{}, fmt.Errorf("balls: %s needs capacities", wrapper)
	}
	arr, err := bins.New(cfg.Capacities)
	if err != nil {
		return sim.RunSpec{}, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return sim.RunSpec{
		Config: sim.Config{
			Array:       arr,
			Dist:        cfg.Distribution.inner,
			Placer:      cfg.Protocol.factory,
			Balls:       cfg.Balls,
			BallsFactor: cfg.BallsFactor,
			Seed:        seed,
			Workers:     cfg.Workers,
			ObsOptions: sim.ObsOptions{
				Checkpoints:  cfg.Checkpoints,
				HeightLevels: cfg.Heights,
			},
			Context: cfg.Context,
		},
		Shards:     cfg.Shards,
		AdoptArray: true,
	}, nil
}
