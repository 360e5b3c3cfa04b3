package balls

// The benchmark harness: one benchmark per paper figure (BenchmarkFig01…
// BenchmarkFig18), benchmarks for the validation/ablation experiments,
// and micro-benchmarks for the allocation hot path.
//
// Figure benchmarks execute the full experiment pipeline at a reduced
// problem scale (the per-iteration cost must stay in milliseconds for
// `go test -bench`); to regenerate a figure at paper scale use
// `go run ./cmd/bnbfig -fig figNN`. The point of benching every figure is
// (a) a regression fence around the experiment pipeline and (b) a
// one-command demonstration that every figure's code path runs.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// benchParams keeps per-iteration cost low while exercising the entire
// experiment code path.
func benchParams() experiments.Params {
	return experiments.Params{Reps: 3, Seed: 1, Scale: 0.02, Workers: 1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tabs, err := e.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tabs) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkFig01(b *testing.B) { benchExperiment(b, "fig01") }
func BenchmarkFig02(b *testing.B) { benchExperiment(b, "fig02") }
func BenchmarkFig03(b *testing.B) { benchExperiment(b, "fig03") }
func BenchmarkFig04(b *testing.B) { benchExperiment(b, "fig04") }
func BenchmarkFig05(b *testing.B) { benchExperiment(b, "fig05") }
func BenchmarkFig06(b *testing.B) { benchExperiment(b, "fig06") }
func BenchmarkFig07(b *testing.B) { benchExperiment(b, "fig07") }
func BenchmarkFig08(b *testing.B) { benchExperiment(b, "fig08") }
func BenchmarkFig09(b *testing.B) { benchExperiment(b, "fig09") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }

func BenchmarkValidateObs1(b *testing.B)   { benchExperiment(b, "obs1") }
func BenchmarkValidateThm3(b *testing.B)   { benchExperiment(b, "thm3") }
func BenchmarkValidateThm5(b *testing.B)   { benchExperiment(b, "thm5") }
func BenchmarkValidateLemma1(b *testing.B) { benchExperiment(b, "lemma1") }
func BenchmarkLemma1Coupling(b *testing.B) { benchExperiment(b, "lemma1-coupling") }

func BenchmarkAblationTieBreak(b *testing.B) { benchExperiment(b, "ablation-tiebreak") }
func BenchmarkAblationDist(b *testing.B)     { benchExperiment(b, "ablation-dist") }
func BenchmarkExtOnePlusBeta(b *testing.B)   { benchExperiment(b, "ext-oneplusbeta") }
func BenchmarkExtHeights(b *testing.B)       { benchExperiment(b, "ext-heights") }
func BenchmarkExtBatch(b *testing.B)         { benchExperiment(b, "ext-batch") }
func BenchmarkExtHeavyHet(b *testing.B)      { benchExperiment(b, "ext-heavyhet") }
func BenchmarkExtMigration(b *testing.B)     { benchExperiment(b, "ext-migration") }
func BenchmarkExtWieder(b *testing.B)        { benchExperiment(b, "ext-wieder") }
func BenchmarkExtFairness(b *testing.B)      { benchExperiment(b, "ext-fairness") }
func BenchmarkExtCluster(b *testing.B)       { benchExperiment(b, "ext-cluster") }
func BenchmarkExtTune(b *testing.B)          { benchExperiment(b, "ext-tune") }

// --- hot-path micro-benchmarks -----------------------------------------

// benchSystem builds a mixed 1/10 array, the configuration where
// Algorithm 1's full tie-break logic is exercised.
func benchSystem(b *testing.B, p Protocol) *System {
	b.Helper()
	sys, err := NewSystem(CapacitiesTwoClass(5000, 1, 5000, 10),
		WithProtocol(p), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkPlaceGreedyD2(b *testing.B) {
	sys := benchSystem(b, Greedy(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Place()
	}
}

func BenchmarkPlaceGreedyD4(b *testing.B) {
	sys := benchSystem(b, Greedy(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Place()
	}
}

func BenchmarkPlaceStandardD2(b *testing.B) {
	sys := benchSystem(b, StandardDChoice(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Place()
	}
}

func BenchmarkPlaceSingle(b *testing.B) {
	sys := benchSystem(b, SingleChoice())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Place()
	}
}

func BenchmarkPlaceGoLeftD2(b *testing.B) {
	sys := benchSystem(b, AlwaysGoLeft(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Place()
	}
}

func BenchmarkSimulateSmall(b *testing.B) {
	cfg := SimConfig{
		Capacities: CapacitiesTwoClass(500, 1, 500, 10),
		Reps:       10,
		Seed:       1,
		Workers:    1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRunLarge measures ONE sharded million-bin repetition end to end
// (routing + parallel per-shard placement). The 1-worker/4-worker pair
// exposes the single-run scaling the sharded engine exists for; the
// final states are bit-identical by contract regardless of workers.
func benchRunLarge(b *testing.B, workers int) {
	b.Helper()
	caps := CapacitiesTwoClass(500000, 1, 500000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateLarge(LargeConfig{
			Capacities: caps,
			Balls:      1_000_000,
			Seed:       1,
			Shards:     64,
			Workers:    workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLargeSharded1W(b *testing.B) { benchRunLarge(b, 1) }
func BenchmarkRunLargeSharded4W(b *testing.B) { benchRunLarge(b, 4) }

// benchRunStream measures the streaming engine at n = 10^6: arrivals,
// deletions and rebalance every round, reported as rounds/sec. The
// alloc counters cover the whole run including setup; the engine's
// steady-state zero-allocation guarantee (no per-round allocations
// after warm-up) is asserted exactly by
// internal/sim.TestStreamSteadyStateAllocFree.
func benchRunStream(b *testing.B, workers int) {
	b.Helper()
	caps := CapacitiesTwoClass(500000, 1, 500000, 10)
	const rounds = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateStream(StreamConfig{
			Capacities:   caps,
			Rounds:       rounds,
			Arrivals:     250_000,
			Deletions:    100_000,
			RebalanceTol: 0.2,
			Seed:         1,
			Shards:       64,
			Workers:      workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*rounds)/b.Elapsed().Seconds(), "rounds/sec")
}

// The 2W variants match a 2-core box; the 4W ones oversubscribe it and
// keep their names for the benchmark history.
func BenchmarkRunStream1W(b *testing.B) { benchRunStream(b, 1) }
func BenchmarkRunStream2W(b *testing.B) { benchRunStream(b, 2) }
func BenchmarkRunStream4W(b *testing.B) { benchRunStream(b, 4) }

// benchClusterTick measures the churn-tolerant serving engine with all
// degraded-mode machinery armed — stochastic churn (so ring re-shards
// and queue redistribution fire), timeouts with retries, and admission
// control — reported as ticks/sec. Its allocations are the run's
// setup (ring, shard plan, views, placers, queue arenas): churn ticks
// reweight placers and rebuild the router in place, so steady-state
// ticks allocate almost nothing, churn or not (pinned by
// TestClusterSteadyStateAllocFree in internal/sim).
func benchClusterTick(b *testing.B, workers int) {
	b.Helper()
	caps := CapacitiesTwoClass(50_000, 1, 50_000, 10)
	const ticks = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateCluster(ClusterConfig{
			Capacities: caps,
			Ticks:      ticks,
			Arrivals:   400_000,
			Churn: ChurnPlan{
				CrashProb:   0.0002,
				RecoverProb: 0.05,
			},
			Retry:         RetryPolicy{TimeoutTicks: 2, MaxRetries: 2, BackoffBase: 1},
			ShedThreshold: 3,
			Seed:          1,
			Shards:        64,
			Workers:       workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*ticks)/b.Elapsed().Seconds(), "ticks/sec")
}

func BenchmarkClusterTick1W(b *testing.B) { benchClusterTick(b, 1) }
func BenchmarkClusterTick2W(b *testing.B) { benchClusterTick(b, 2) }
func BenchmarkClusterTick4W(b *testing.B) { benchClusterTick(b, 4) }

// benchClusterServe runs the serving engine at the repo benchmark's
// cluster-serve shape (bench/workloads.go): 5000 unit and 5000
// ten-unit servers on 64 shards, 120 ticks of 40,000 arrivals, with
// the same churn, retry and shedding settings, seed 1. Unlike
// benchClusterTick, whose 10^5-server ring build outweighs its 8
// ticks, its time is the per-tick machinery: churn draws, re-shards,
// retry apportionment and the shard phase. Reported as arrivals/sec,
// cluster-serve's balls_per_s.
func benchClusterServe(b *testing.B, workers int) {
	b.Helper()
	caps := CapacitiesTwoClass(5000, 1, 5000, 10)
	const ticks, arrivals = 120, 40_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateCluster(ClusterConfig{
			Capacities:    caps,
			Ticks:         ticks,
			Arrivals:      arrivals,
			Churn:         ChurnPlan{CrashProb: 2e-4, RecoverProb: 0.05},
			Retry:         RetryPolicy{TimeoutTicks: 2, MaxRetries: 2, BackoffBase: 1},
			ShedThreshold: 3,
			Seed:          1,
			Shards:        64,
			Workers:       workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*ticks*arrivals/b.Elapsed().Seconds(), "balls/sec")
}

func BenchmarkClusterServe1W(b *testing.B) { benchClusterServe(b, 1) }
func BenchmarkClusterServe2W(b *testing.B) { benchClusterServe(b, 2) }

// benchRunLargeMonte measures the sharded Monte-Carlo engine: several
// repetitions of a large sharded game per iteration, played in order
// with per-shard tasks on the engine's pool.
func benchRunLargeMonte(b *testing.B, workers int) {
	b.Helper()
	caps := CapacitiesTwoClass(100_000, 1, 100_000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloLarge(MonteLargeConfig{
			LargeConfig: LargeConfig{
				Capacities: caps,
				Balls:      200_000,
				Seed:       1,
				Shards:     64,
				Workers:    workers,
			},
			Reps: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLargeMonte1W(b *testing.B) { benchRunLargeMonte(b, 1) }
func BenchmarkRunLargeMonte4W(b *testing.B) { benchRunLargeMonte(b, 4) }

// BenchmarkRunLargeMonteThreshold2W measures the sharded Monte-Carlo
// engine at the smallest n auto-selection hands it (AutoScaleMinBins),
// where per-repetition fixed costs weigh most: default shards, m = C,
// 20 repetitions on two workers.
func BenchmarkRunLargeMonteThreshold2W(b *testing.B) {
	caps := CapacitiesTwoClass(sim.AutoScaleMinBins/2, 1, sim.AutoScaleMinBins/2, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloLarge(MonteLargeConfig{
			LargeConfig: LargeConfig{Capacities: caps, Seed: 1, Workers: 2},
			Reps:        20,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewSystem(b *testing.B) {
	caps := CapacitiesTwoClass(5000, 1, 5000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSystem(caps); err != nil {
			b.Fatal(err)
		}
	}
}
