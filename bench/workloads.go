package main

import (
	"fmt"
	"hash/fnv"
	"math"

	balls "repro"
	"repro/internal/sim"
	"repro/internal/theory"
)

// A workload is one set of inputs the benchmark runs. Each is driven
// through the library's public API only.
type workload struct {
	name string
	// why says which layers the workload stresses and which it bypasses.
	why string
	// speedExp is the slope of log run time against log calibration
	// kernel time at 1 and at 2 workers (see calibrate.go), chosen on
	// the 2-core Xeon box over four sets of ten twenty-second runs per
	// workload, taken while the box ran at 0.45 to 1.2 times its
	// reference speed, to keep both the spread within a set and the
	// drift between sets small. The L2-resident per-ball path of
	// paper-classic slows as much as the kernel when the box is busy;
	// the sharded workloads slow less.
	speedExp [2]float64
	// build generates the inputs from seed at the given scale (1 is the
	// benchmark's shape; tests shrink it). The same seed gives the same
	// inputs.
	build func(seed uint64, scale float64) (*benchCase, error)
}

// benchCase is one workload instance.
type benchCase struct {
	// run calls the library once with the given worker count. It is the
	// only code inside the timer.
	run func(workers int) (any, error)
	// check validates a result of run. It returns a digest of the whole
	// result (equal digests mean bit-identical results) and the run's
	// exact work counts.
	check func(res any) (digest string, c counts, err error)
}

// counts are a run's exact work counts, derived from the spec and the
// result. The per-layer attribution multiplies them by probe costs.
type counts struct {
	Work          int64 // the numerator of balls_per_s
	Bins          int64
	Reps          int64
	Rounds        int64
	Cuts          int64 // checkpoint cuts per repetition
	Placements    int64 // balls through a PlaceBatch kernel
	RoutingBlocks int64 // multinomial routing blocks drawn
	Deletions     int64
	Moved         int64 // balls rebalanced across shards
	Snapshots     int64 // whole-array histogram snapshots
	Ticks         int64
	ChurnEvents   int64 // crashes plus recoveries
	Retried       int64
	Redistributed int64
	Shed          int64
	PlacerBins    int64 // bins covered by the placers a 1W run builds
}

// workloads is the benchmark's workload set, in run order.
var workloads = []workload{
	{
		name:     "paper-classic",
		why:      "the paper's experiment (n=10^4 two-class, Greedy(2), m=C, 100 reps): per-ball xrand, sampling and protocol only; no routing, histograms or ring",
		speedExp: [2]float64{1.2, 1.0},
		build:    buildPaperClassic,
	},
	{
		name:     "large-monte",
		why:      "sharded Monte Carlo at 100x paper n (10^6 binomial bins, 16 MB): multinomial routing, per-shard placers, histogram snapshots",
		speedExp: [2]float64{0.8, 0.7},
		build:    buildLargeMonte,
	},
	{
		name:     "stream-churn",
		why:      "streaming rounds at n=10^6 with exact deletions and rebalancing: the sharded placement path with writes mixed in",
		speedExp: [2]float64{0.75, 0.7},
		build:    buildStreamChurn,
	},
	{
		name:     "cluster-serve",
		why:      "serving ticks on a 10^4-server ring under crashes, retries and shedding: per-tick engine machinery dominates",
		speedExp: [2]float64{0.7, 0.75},
		build:    buildClusterServe,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a full-size count by scale, never below min.
func scaled(full int, scale float64, min int) int {
	v := int(math.Round(float64(full) * scale))
	if v < min {
		return min
	}
	return v
}

func totalCapacity(caps []int64) int64 {
	var c int64
	for _, v := range caps {
		c += v
	}
	return c
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// loadsDigest folds a final per-bin state into a digest and returns the
// ball total, so that checks cover every bin, not only the summaries.
func loadsDigest(l balls.LargeLoads) (string, int64) {
	h := fnv.New64a()
	var total int64
	var b [8]byte
	for i := 0; i < l.N(); i++ {
		v := l.Balls(i)
		total += v
		for k := range b {
			b[k] = byte(v >> (8 * k))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64()), total
}

func buildPaperClassic(seed uint64, scale float64) (*benchCase, error) {
	half := scaled(5000, scale, 8)
	cfg := balls.SimConfig{
		Capacities: balls.CapacitiesTwoClass(half, 1, half, 10),
		Reps:       scaled(100, scale, 2),
		Seed:       seed,
		Protocol:   balls.Greedy(2),
	}
	return &benchCase{
		run: func(workers int) (any, error) {
			c := cfg
			c.Workers = workers
			return balls.Simulate(c)
		},
		check: func(res any) (string, counts, error) {
			r := res.(*balls.SimResult)
			if err := checkPaper(cfg, r); err != nil {
				return "", counts{}, err
			}
			n := int64(len(cfg.Capacities))
			placed := int64(r.Reps) * r.Balls
			return fmt.Sprintf("%v", *r), counts{
				Work: placed, Bins: n, Reps: int64(r.Reps),
				Placements: placed, PlacerBins: n,
			}, nil
		},
	}, nil
}

// checkPaper checks a paper-classic result: every repetition placed
// exactly C balls, and the mean gap stays below the paper's bound.
func checkPaper(cfg balls.SimConfig, r *balls.SimResult) error {
	n := len(cfg.Capacities)
	c := totalCapacity(cfg.Capacities)
	switch {
	case r.Reps != cfg.Reps:
		return fmt.Errorf("paper-classic: %d reps, want %d", r.Reps, cfg.Reps)
	case r.Balls != c:
		return fmt.Errorf("paper-classic: %d balls per rep, want C = %d", r.Balls, c)
	case r.AverageLoad != 1:
		return fmt.Errorf("paper-classic: average load %v, want 1 at m = C", r.AverageLoad)
	case !(r.MeanMaxLoad >= r.AverageLoad):
		return fmt.Errorf("paper-classic: mean max load %v below the average %v", r.MeanMaxLoad, r.AverageLoad)
	}
	return checkGap("paper-classic", r.MeanDeviation, n)
}

// checkGap checks a mean gap (max − average load) against the paper's
// m = C bound ln ln n / ln 2 for Greedy(2).
func checkGap(name string, gap float64, n int) error {
	if bound := theory.TwoChoiceBound(n, 2); !(gap >= 0 && gap <= bound) {
		return fmt.Errorf("%s: mean gap %v outside [0, %v] (ln ln n / ln 2 at n = %d)", name, gap, bound, n)
	}
	return nil
}

func buildLargeMonte(seed uint64, scale float64) (*benchCase, error) {
	caps, err := balls.CapacitiesRandomBinomial(scaled(1_000_000, scale, 1024), 4, seed)
	if err != nil {
		return nil, err
	}
	c := totalCapacity(caps)
	cfg := balls.MonteLargeConfig{
		LargeConfig: balls.LargeConfig{
			Capacities:  caps,
			Seed:        seed,
			Shards:      64,
			Protocol:    balls.Greedy(2),
			Checkpoints: []int64{c / 4, c / 2, 3 * c / 4, c},
			Heights:     4,
		},
		Reps: 2,
	}
	return &benchCase{
		run: func(workers int) (any, error) {
			cf := cfg
			cf.Workers = workers
			return balls.MonteCarloLarge(cf)
		},
		check: func(res any) (string, counts, error) {
			r := res.(*balls.MonteLargeResult)
			if err := checkLarge(cfg, r); err != nil {
				return "", counts{}, err
			}
			n := int64(r.N)
			placed := int64(r.Reps) * r.Balls
			return fmt.Sprintf("%v", *r), counts{
				Work: placed, Bins: n, Reps: int64(r.Reps), Cuts: int64(len(cfg.Checkpoints)),
				Placements:    placed,
				RoutingBlocks: int64(r.Reps) * ceilDiv(r.Balls, sim.RoutingBlock),
				Snapshots:     int64(r.Reps),
				PlacerBins:    n,
			}, nil
		},
	}, nil
}

// checkLarge checks a large-monte result: C balls per repetition,
// height counts non-increasing in the level, every cut realised at or
// below its ball count, and the mean gap below the paper's bound.
func checkLarge(cfg balls.MonteLargeConfig, r *balls.MonteLargeResult) error {
	c := totalCapacity(cfg.Capacities)
	switch {
	case r.Reps != cfg.Reps:
		return fmt.Errorf("large-monte: %d reps, want %d", r.Reps, cfg.Reps)
	case r.Balls != c:
		return fmt.Errorf("large-monte: %d balls per rep, want C = %d", r.Balls, c)
	case r.N != len(cfg.Capacities):
		return fmt.Errorf("large-monte: %d bins, want %d", r.N, len(cfg.Capacities))
	case len(r.Heights) != cfg.Heights:
		return fmt.Errorf("large-monte: %d height levels, want %d", len(r.Heights), cfg.Heights)
	case len(r.Checkpoints) != len(cfg.Checkpoints):
		return fmt.Errorf("large-monte: %d checkpoints, want %d", len(r.Checkpoints), len(cfg.Checkpoints))
	}
	for k := 1; k < len(r.Heights); k++ {
		if r.Heights[k].MeanBins > r.Heights[k-1].MeanBins {
			return fmt.Errorf("large-monte: bins at load >= %d (%v) exceed bins at load >= %d (%v)",
				r.Heights[k].Level, r.Heights[k].MeanBins, r.Heights[k-1].Level, r.Heights[k-1].MeanBins)
		}
	}
	for _, cp := range r.Checkpoints {
		if cp.Reps != int64(cfg.Reps) || cp.MeanBalls > float64(cp.Balls) {
			return fmt.Errorf("large-monte: checkpoint %d realised %v balls over %d reps", cp.Balls, cp.MeanBalls, cp.Reps)
		}
	}
	return checkGap("large-monte", r.MeanDeviation, r.N)
}

func buildStreamChurn(seed uint64, scale float64) (*benchCase, error) {
	half := scaled(500_000, scale, 512)
	cfg := balls.StreamConfig{
		Capacities:   balls.CapacitiesTwoClass(half, 1, half, 10),
		Rounds:       4,
		Arrivals:     int64(scaled(500_000, scale, 1)),
		Deletions:    int64(scaled(400_000, scale, 1)),
		RebalanceTol: 0.2,
		Seed:         seed,
		Shards:       64,
		Protocol:     balls.Greedy(2),
	}
	return &benchCase{
		run: func(workers int) (any, error) {
			c := cfg
			c.Workers = workers
			return balls.SimulateStream(c)
		},
		check: func(res any) (string, counts, error) {
			r := res.(*balls.StreamResult)
			loads, total := loadsDigest(r.Loads)
			if err := checkStream(cfg, r, total); err != nil {
				return "", counts{}, err
			}
			summary := *r
			summary.Loads = balls.LargeLoads{}
			return fmt.Sprintf("%v %s", summary, loads), counts{
				Work: r.Arrived + r.Deleted, Bins: int64(r.N), Rounds: int64(r.Rounds),
				Placements:    r.Arrived + r.Moved,
				RoutingBlocks: int64(r.Rounds) * ceilDiv(cfg.Arrivals, sim.RoutingBlock),
				Deletions:     r.Deleted,
				Moved:         r.Moved,
				Snapshots:     1,
				PlacerBins:    int64(r.N),
			}, nil
		},
	}, nil
}

// checkStream checks a stream-churn result's ball conservation: every
// arrival and deletion happened, Balls = Arrived − Deleted, and both the
// per-shard occupancies and the per-bin loads (loadTotal) sum to Balls.
func checkStream(cfg balls.StreamConfig, r *balls.StreamResult, loadTotal int64) error {
	var shardSum int64
	for _, b := range r.ShardBalls {
		shardSum += b
	}
	rounds := int64(cfg.Rounds)
	switch {
	case r.Rounds != cfg.Rounds:
		return fmt.Errorf("stream-churn: %d rounds, want %d", r.Rounds, cfg.Rounds)
	case r.Arrived != rounds*cfg.Arrivals:
		return fmt.Errorf("stream-churn: %d arrivals, want %d", r.Arrived, rounds*cfg.Arrivals)
	case r.Deleted != rounds*cfg.Deletions:
		return fmt.Errorf("stream-churn: %d deletions, want %d", r.Deleted, rounds*cfg.Deletions)
	case r.Balls != r.Arrived-r.Deleted:
		return fmt.Errorf("stream-churn: Balls = %d, want Arrived − Deleted = %d", r.Balls, r.Arrived-r.Deleted)
	case shardSum != r.Balls:
		return fmt.Errorf("stream-churn: shard occupancies sum to %d, want Balls = %d", shardSum, r.Balls)
	case loadTotal != r.Balls:
		return fmt.Errorf("stream-churn: bin loads sum to %d, want Balls = %d", loadTotal, r.Balls)
	case !(r.MaxLoad >= r.AverageLoad):
		return fmt.Errorf("stream-churn: max load %v below the average %v", r.MaxLoad, r.AverageLoad)
	}
	return nil
}

func buildClusterServe(seed uint64, scale float64) (*benchCase, error) {
	half := scaled(5000, scale, 64)
	cfg := balls.ClusterConfig{
		Capacities:    balls.CapacitiesTwoClass(half, 1, half, 10),
		Ticks:         scaled(120, scale, 8),
		Arrivals:      int64(scaled(40_000, scale, 1)),
		Churn:         balls.ChurnPlan{CrashProb: 2e-4, RecoverProb: 0.05},
		Retry:         balls.RetryPolicy{TimeoutTicks: 2, MaxRetries: 2, BackoffBase: 1},
		ShedThreshold: 3,
		Seed:          seed,
		Shards:        64,
	}
	return &benchCase{
		run: func(workers int) (any, error) {
			c := cfg
			c.Workers = workers
			return balls.SimulateCluster(c)
		},
		check: func(res any) (string, counts, error) {
			r := res.(*balls.ClusterResult)
			loads, total := loadsDigest(r.Loads)
			if err := checkCluster(cfg, r, total); err != nil {
				return "", counts{}, err
			}
			summary := *r
			summary.Loads = balls.LargeLoads{}
			n := int64(r.N)
			churn := int64(r.Crashes + r.Recoveries)
			return fmt.Sprintf("%v %s", summary, loads), counts{
				Work: r.Arrived, Bins: n, Ticks: int64(r.Ticks),
				Placements:    r.Admitted + r.Retried + r.Redistributed,
				RoutingBlocks: int64(r.Ticks) * ceilDiv(cfg.Arrivals, sim.RoutingBlock),
				ChurnEvents:   churn,
				Retried:       r.Retried,
				Redistributed: r.Redistributed,
				Shed:          r.Shed,
				PlacerBins:    n + churn*ceilDiv(n, int64(r.Shards)),
			}, nil
		},
	}, nil
}

// checkCluster checks a cluster-serve result's request accounting:
// Arrived = Shed + Admitted, Admitted = Completed + Failed +
// PendingRetry + Queued, the latency histogram counts every completed
// request, and the final queue depths (loadTotal) sum to Queued.
func checkCluster(cfg balls.ClusterConfig, r *balls.ClusterResult, loadTotal int64) error {
	var latTotal int64
	for _, b := range r.LatencyBuckets {
		latTotal += b
	}
	switch {
	case r.Ticks != cfg.Ticks || len(r.LivePerTick) != cfg.Ticks:
		return fmt.Errorf("cluster-serve: %d ticks (%d live counts), want %d", r.Ticks, len(r.LivePerTick), cfg.Ticks)
	case r.Arrived != int64(cfg.Ticks)*cfg.Arrivals:
		return fmt.Errorf("cluster-serve: %d arrivals, want %d", r.Arrived, int64(cfg.Ticks)*cfg.Arrivals)
	case r.Arrived != r.Shed+r.Admitted:
		return fmt.Errorf("cluster-serve: Arrived = %d, want Shed + Admitted = %d", r.Arrived, r.Shed+r.Admitted)
	case r.Admitted != r.Completed+r.Failed+r.PendingRetry+r.Queued:
		return fmt.Errorf("cluster-serve: Admitted = %d, want Completed + Failed + PendingRetry + Queued = %d",
			r.Admitted, r.Completed+r.Failed+r.PendingRetry+r.Queued)
	case latTotal != r.Completed:
		return fmt.Errorf("cluster-serve: latency histogram holds %d requests, want Completed = %d", latTotal, r.Completed)
	case loadTotal != r.Queued:
		return fmt.Errorf("cluster-serve: queue depths sum to %d, want Queued = %d", loadTotal, r.Queued)
	}
	return nil
}
