package balls

import (
	"context"

	"repro/internal/sim"
)

// StreamConfig describes one streaming run: balls arrive in rounds, a
// deterministic deletion stream expires balls, and an optional
// inter-round rebalance pass bounds cross-shard drift. See
// SimulateStream.
type StreamConfig struct {
	// Capacities of the bin array (required).
	Capacities []int64
	// Rounds is the number of rounds (>= 1). When Schedule is set and
	// Rounds is 0, Rounds defaults to len(Schedule). A run's arrivals
	// may total at most 2^62.
	Rounds int
	// Arrivals is the fixed per-round arrival count; 0 means
	// ArrivalsFactor·C, or exactly C when ArrivalsFactor is also 0 —
	// LargeConfig's ball-count rules, applied per round.
	Arrivals int64
	// ArrivalsFactor scales the total capacity C into a per-round
	// arrival count when Arrivals is 0.
	ArrivalsFactor float64
	// Schedule, when non-empty, gives every round's arrival count
	// explicitly (entries >= 0; length must equal Rounds when Rounds
	// is set). Mutually exclusive with Arrivals/ArrivalsFactor.
	Schedule []int64
	// Deletions is the number of balls deleted per round, clamped to
	// the current occupancy. The deletion stream is part of the model:
	// each round draws a multivariate-hypergeometric shard split and
	// then deletes uniformly without replacement within each shard —
	// exactly the law of deleting Deletions uniform balls globally.
	Deletions int64
	// RebalanceTol enables the inter-round rebalance pass when > 0:
	// after deletions, every shard holding more than
	// (1+RebalanceTol)·target balls sheds the excess to shards below
	// target, re-placing moved balls through the protocol. 0 disables
	// the pass; a tolerance so large that (1+RebalanceTol)·target
	// reaches 2^63 (+Inf included) never moves a ball.
	RebalanceTol float64
	// Seed is the base seed (default 1). Every round r consumes a
	// frozen window of 3·Shards+2 substreams starting at r·(3·Shards+2):
	// arrival routing, per-shard placement, deletion shard-routing,
	// per-shard deletions, and rebalance move-out draws.
	Seed uint64
	// Shards is the number of contiguous shards (0 = engine default).
	// Part of the model, like Seed.
	Shards int
	// Workers caps parallelism (0 = GOMAXPROCS). It never affects the
	// result, only the wall clock.
	Workers int
	// Distribution and Protocol default to Proportional / Greedy(2).
	Distribution Distribution
	Protocol     Protocol
	// Checkpoints requests trajectory observations at the given ROUND
	// indices (1-based, ascending): cut k observes the system at the
	// end of round Checkpoints[k]. Unlike the ball-count cuts of
	// SimulateLarge, round cuts are always realised exactly.
	Checkpoints []int64
	// Heights requests, for k = 1..Heights, the number of bins whose
	// final load is at least k.
	Heights int
	// Context, when non-nil, arms cooperative cancellation: the run
	// stops at the next task or phase boundary and returns the
	// completed-round prefix alongside a *CancelledError. Nil runs to
	// completion.
	Context context.Context
	// CancelAfterRounds, when positive, deterministically stops the
	// run after exactly that many completed rounds, as if Context had
	// fired there (the CancelledError has a nil Cause) — a timing-free
	// way to exercise the cancellation path. Zero disables it.
	CancelAfterRounds int
}

// StreamResult aggregates one streaming run.
type StreamResult struct {
	// N is the number of bins, Shards the realised shard count, Rounds
	// the number of COMPLETED rounds (== cfg.Rounds unless cancelled).
	N      int
	Shards int
	Rounds int
	// Arrived, Deleted and Moved count the balls that arrived, were
	// deleted and were rebalanced across the completed rounds. Balls
	// is the final occupancy (== Arrived − Deleted).
	Arrived int64
	Deleted int64
	Moved   int64
	Balls   int64
	// MaxLoad, AverageLoad and Deviation are the final whole-array
	// statistics (deviation = max − average). Zero on a cancelled run,
	// whose mid-round state is not a model state.
	MaxLoad     float64
	AverageLoad float64
	Deviation   float64
	// ShardBalls[s] is shard s's occupancy after the last completed
	// round.
	ShardBalls []int64
	// Checkpoints holds the round-indexed trajectory rows (only when
	// requested). CheckpointResult.Balls is the ROUND index of the
	// cut; MeanBalls is the occupancy at the end of that round. A
	// cancelled run keeps the leading CancelledError.CompletedCuts
	// rows, each bit-identical to an uninterrupted run's.
	Checkpoints []CheckpointResult
	// Heights holds bins-at-load>=k counts of the final state (only
	// when requested; nil on a cancelled run).
	Heights []HeightResult
	// Loads gives read access to the final per-bin state. On a
	// cancelled run no final state exists and Loads is the zero value
	// (its methods must not be called).
	Loads LargeLoads
}

// SimulateStream runs ONE streaming game: cfg.Rounds rounds, each
// routing its arrivals to shards block-wise (exact multinomial count
// vectors, as in SimulateLarge), placing them through the protocol on
// per-shard RNG streams, deleting cfg.Deletions uniform balls, and —
// when cfg.RebalanceTol > 0 — re-placing the excess of overfull
// shards. The trajectory and final state are bit-identical for any
// Workers value — only (Capacities, round structure, Seed, Shards,
// Distribution, Protocol) determine them — and a run with Rounds = 1,
// Deletions = 0 and RebalanceTol = 0 reproduces SimulateLarge bit for
// bit.
//
// When cfg.Context fires mid-round (or CancelAfterRounds triggers),
// SimulateStream returns a partial result alongside a
// *CancelledError: counters, shard occupancies and the leading
// CancelledError.CompletedCuts checkpoint rows cover the
// completed-round prefix and are bit-identical to a run configured
// with Rounds = CancelledError.CompletedRounds. Final-state fields
// (MaxLoad, Heights, Loads) are unset on a cancelled partial.
func SimulateStream(cfg StreamConfig) (*StreamResult, error) {
	spec, err := buildSpec("SimulateStream", &LargeConfig{
		Capacities:   cfg.Capacities,
		Balls:        cfg.Arrivals,
		BallsFactor:  cfg.ArrivalsFactor,
		Seed:         cfg.Seed,
		Shards:       cfg.Shards,
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
	spec.Engine = sim.EngineStream
	spec.CancelAfter = cfg.CancelAfterRounds
	spec.Stream = &sim.StreamParams{
		Rounds:       cfg.Rounds,
		Schedule:     cfg.Schedule,
		Deletions:    cfg.Deletions,
		RebalanceTol: cfg.RebalanceTol,
	}
	res, err := sim.Dispatch(spec)
	if err != nil && cancelledPartial(err, res != nil) == nil {
		return nil, err
	}
	sres := res.Stream
	out := &StreamResult{
		N:           res.N,
		Shards:      res.Shards,
		Rounds:      sres.Rounds,
		Arrived:     sres.Arrived,
		Deleted:     sres.Deleted,
		Moved:       sres.Moved,
		Balls:       sres.Balls,
		ShardBalls:  sres.ShardBalls,
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
	return out, nil
}
