package balls

import (
	"context"

	"repro/internal/sim"
)

// ChurnEvent is one scheduled membership change: server Peer crashes
// (Down) or recovers (!Down) at the start of tick Tick.
type ChurnEvent = sim.ChurnEvent

// ChurnPlan describes when servers crash and recover: a deterministic
// schedule plus optional per-tick Bernoulli crash/recover draws on a
// pinned substream. Neither path ever takes down the last live server.
type ChurnPlan = sim.ChurnPlan

// RetryPolicy is the per-request timeout/retry contract: requests
// queued longer than TimeoutTicks are pulled and re-dispatched up to
// MaxRetries times after a deterministic exponential backoff.
type RetryPolicy = sim.RetryPolicy

// ClusterConfig describes one churn-tolerant serving run: requests
// arrive in ticks, are routed onto live servers through a weighted
// consistent-hash ring and a d-choice placement kernel, queue FIFO, and
// survive server crashes through redistribution, timeouts, retries and
// load shedding. See SimulateCluster.
type ClusterConfig struct {
	// Capacities of the servers (required): Capacities[i] is server
	// i's per-tick service rate AND its ring weight.
	Capacities []int64
	// Ticks is the simulation horizon, in [1, 2^31−1].
	Ticks int
	// Arrivals is the number of requests offered per tick (>= 0);
	// Ticks·Arrivals may total at most 2^62.
	Arrivals int64
	// VnodesPerUnit is the ring density: virtual nodes per unit of
	// capacity (0 = engine default).
	VnodesPerUnit int
	// Churn is the crash/recover plan (zero value = no churn).
	Churn ChurnPlan
	// Retry is the timeout/retry policy (zero value = no timeouts).
	Retry RetryPolicy
	// ShedThreshold arms admission control when > 0: arrivals that
	// would push the cluster-wide queue total above
	// ShedThreshold·(live capacity) are shed at the door.
	ShedThreshold float64
	// LatencyMax is the latency histogram's top exact bucket in ticks
	// (0 = engine default, at most 65,536); longer latencies share one
	// overflow bucket.
	LatencyMax int
	// Seed is the base seed (default 1). Substream 0 builds the ring;
	// every tick consumes a frozen window of Shards+2 substreams
	// (churn draws, arrival routing, per-shard placement).
	Seed uint64
	// Shards is the number of contiguous server shards (0 = engine
	// default). Part of the model, like Seed.
	Shards int
	// Workers caps parallelism (0 = GOMAXPROCS). It never affects the
	// result, only the wall clock.
	Workers int
	// Checkpoints requests trajectory observations at the given TICK
	// indices (1-based, ascending): cut k observes the queues at the
	// end of tick Checkpoints[k].
	Checkpoints []int64
	// Heights requests, for k = 1..Heights, the number of servers
	// whose final queue depth is at least k.
	Heights int
	// Context, when non-nil, arms cooperative cancellation: the run
	// stops at the next tick boundary and returns the completed-tick
	// prefix alongside a *CancelledError. Nil runs to completion.
	Context context.Context
	// CancelAfterTicks, when positive, deterministically stops the run
	// after exactly that many completed ticks, as if Context had fired
	// there (the CancelledError has a nil Cause). Zero disables it.
	CancelAfterTicks int
}

// ClusterResult aggregates one serving run.
type ClusterResult struct {
	// N is the number of servers, Shards the realised shard count,
	// Ticks the number of COMPLETED ticks (== cfg.Ticks unless
	// cancelled).
	N      int
	Shards int
	Ticks  int
	// Request accounting over the completed ticks. Conservation:
	// Arrived = Shed + Admitted and
	// Admitted = Completed + Failed + PendingRetry + Queued.
	Arrived       int64 // offered requests
	Shed          int64 // rejected by admission control
	Admitted      int64 // accepted into the system
	Completed     int64 // serviced (the goodput)
	TimedOut      int64 // pulled from a queue after Retry.TimeoutTicks
	Retried       int64 // re-dispatched after a timeout
	Failed        int64 // timed out with retries exhausted
	Redistributed int64 // moved off crashed servers
	Queued        int64 // resident in queues at the horizon
	PendingRetry  int64 // timed out, waiting on backoff at the horizon
	// Churn accounting: crash and recovery events, the live-server
	// count during each completed tick, and Availability — the mean
	// live fraction over servers and ticks.
	Crashes      int
	Recoveries   int
	LivePerTick  []int
	Availability float64
	// MeanLatency and P99Latency summarise the response times (in
	// ticks, queueing included) of every completed request;
	// LatencyBuckets[k] counts requests with latency exactly k+1 ticks
	// for k < LatencyMax, with one overflow bucket at the end.
	MeanLatency    float64
	P99Latency     int64
	LatencyBuckets []int64
	// Checkpoints holds the tick-indexed trajectory rows (only when
	// requested): CheckpointResult.Balls is the TICK index of the cut,
	// MeanBalls the queued-request total at the end of that tick, and
	// MeanMaxLoad the maximum queue-relative load. A cancelled run
	// keeps the leading CancelledError.CompletedCuts rows.
	Checkpoints []CheckpointResult
	// Final-state fields, zero/nil on a cancelled run: the maximum and
	// average queue-relative load (queue/capacity) at the horizon, the
	// queue-depth height counts (when requested), and read access to
	// the final per-server queue depths (on a cancelled run Loads is
	// the zero value; its methods must not be called).
	MaxQueueLoad float64
	AvgQueueLoad float64
	Heights      []HeightResult
	Loads        LargeLoads
}

// SimulateCluster runs ONE churn-tolerant serving trajectory: each
// tick applies the churn plan (incrementally re-sharding the ring,
// redistributing queues resident on crashed servers), sheds or admits
// the tick's arrivals, routes admitted requests block-wise onto
// live-server ring weights, places them through a d-choice kernel on
// queue-relative load, services every live queue FIFO at its capacity,
// and times out / retries / fails overdue requests per cfg.Retry.
//
// The trajectory is bit-identical for any Workers value — only
// (Capacities, Ticks, Arrivals, churn, retry, shedding, Seed, Shards)
// determine it — including runs with mid-flight crashes, retries and
// shedding.
//
// When cfg.Context fires mid-tick (or CancelAfterTicks triggers),
// SimulateCluster returns a partial result alongside a
// *CancelledError: counters, the availability trace, latency
// histogram and the leading CancelledError.CompletedCuts checkpoint
// rows cover the completed-tick prefix and are bit-identical to a run
// configured with Ticks = CancelledError.CompletedTicks. Final-state
// fields (MaxQueueLoad, Heights, Loads) are unset on a cancelled
// partial.
func SimulateCluster(cfg ClusterConfig) (*ClusterResult, error) {
	spec, err := buildSpec("SimulateCluster", &LargeConfig{
		Capacities:  cfg.Capacities,
		Seed:        cfg.Seed,
		Shards:      cfg.Shards,
		Workers:     cfg.Workers,
		Checkpoints: cfg.Checkpoints,
		Heights:     cfg.Heights,
		Context:     cfg.Context,
	})
	if err != nil {
		return nil, err
	}
	spec.Engine = sim.EngineCluster
	spec.CancelAfter = cfg.CancelAfterTicks
	spec.Cluster = &sim.ClusterParams{
		Ticks:           cfg.Ticks,
		ArrivalsPerTick: cfg.Arrivals,
		VnodesPerUnit:   cfg.VnodesPerUnit,
		Churn:           cfg.Churn,
		Retry:           cfg.Retry,
		ShedThreshold:   cfg.ShedThreshold,
		LatencyMax:      cfg.LatencyMax,
	}
	res, err := sim.Dispatch(spec)
	if err != nil && cancelledPartial(err, res != nil) == nil {
		return nil, err
	}
	cres := res.Cluster
	out := &ClusterResult{
		N:              res.N,
		Shards:         res.Shards,
		Ticks:          cres.Ticks,
		Arrived:        cres.Arrived,
		Shed:           cres.Shed,
		Admitted:       cres.Admitted,
		Completed:      cres.Completed,
		TimedOut:       cres.TimedOut,
		Retried:        cres.Retried,
		Failed:         cres.Failed,
		Redistributed:  cres.Redistributed,
		Queued:         cres.FinalQueued,
		PendingRetry:   cres.PendingRetry,
		Crashes:        cres.Crashes,
		Recoveries:     cres.Recoveries,
		LivePerTick:    cres.LivePerTick,
		Availability:   cres.Availability,
		MeanLatency:    cres.Latency.Mean(),
		P99Latency:     cres.Latency.Quantile(0.99),
		LatencyBuckets: cres.Latency.Buckets(),
		Checkpoints:    checkpointResults(res.Checkpoints),
	}
	if err != nil {
		return out, err
	}
	out.MaxQueueLoad = res.MaxLoad.Mean()
	out.AvgQueueLoad = res.AvgLoad.Mean()
	out.Heights = heightResults(res.HeightCounts)
	out.Loads = LargeLoads{arr: spec.Array}
	return out, nil
}
