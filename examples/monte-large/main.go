// Command monte-large demonstrates the sharded Monte-Carlo engine:
// many repetitions of a huge sharded game, played one after another
// with per-shard parallelism on one bounded worker pool. The aggregate
// (mean/worst max load, the paper's gap with a confidence interval)
// streams out of the engine without ever holding more than one bin
// array, whatever the worker count — the regime where the paper's
// greedy-d-choice gap bounds become empirically sharp.
//
//	go run ./examples/monte-large [-n 500000] [-reps 50] [-shards 64]
package main

import (
	"flag"
	"fmt"
	"log"
	"reflect"
	"runtime"
	"time"

	balls "repro"
)

func main() {
	n := flag.Int("n", 500_000, "number of bins (half capacity 1, half capacity 10)")
	reps := flag.Int("reps", 50, "independent repetitions")
	shards := flag.Int("shards", 64, "shard count (part of the model)")
	flag.Parse()

	caps := balls.CapacitiesTwoClass(*n/2, 1, *n-*n/2, 10)
	var total int64
	for _, c := range caps {
		total += c
	}
	// Mid-run observations ride along: checkpoints at C/4, C/2, C
	// (realised through block-aligned per-shard cuts) plus the final
	// bins-at-load>=k table. They are part of the bit-identity check.
	checkpoints := []int64{total / 4, total / 2, total}
	fmt.Printf("monte-carlo: n = %d bins, m = C balls, greedy d=2, %d shards × %d reps\n\n",
		*n, *shards, *reps)

	workerCounts := []int{1, 2, 4}
	if c := runtime.GOMAXPROCS(0); c > 4 {
		workerCounts = append(workerCounts, c)
	}

	var first *balls.MonteLargeResult
	var baseline time.Duration
	for _, w := range workerCounts {
		start := time.Now()
		res, err := balls.MonteCarloLarge(balls.MonteLargeConfig{
			LargeConfig: balls.LargeConfig{
				Capacities:  caps,
				Seed:        1,
				Shards:      *shards,
				Workers:     w,
				Checkpoints: checkpoints,
				Heights:     4,
			},
			Reps:       *reps,
			ShardStats: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if first == nil {
			first = res
			baseline = elapsed
		}
		fmt.Printf("workers=%d: max %.4f ± %.4f (worst %.4f)  gap %.4f  wall %8s  speedup %.2fx\n",
			w, res.MeanMaxLoad, res.MaxLoadCI95, res.WorstMaxLoad, res.MeanDeviation,
			elapsed.Round(time.Millisecond), float64(baseline)/float64(elapsed))
		if res.MeanMaxLoad != first.MeanMaxLoad || res.MeanDeviation != first.MeanDeviation ||
			res.WorstMaxLoad != first.WorstMaxLoad {
			log.Fatalf("DETERMINISM VIOLATION: aggregate differs at workers=%d", w)
		}
		if !reflect.DeepEqual(res.Checkpoints, first.Checkpoints) || !sameHeights(res.Heights, first.Heights) {
			log.Fatalf("DETERMINISM VIOLATION: observations differ at workers=%d", w)
		}
	}
	fmt.Printf("\nmid-run trajectory (mean over %d reps):\n", *reps)
	for _, cp := range first.Checkpoints {
		fmt.Printf("  after ~%9d balls (realised %9.0f): max %.4f, gap %.4f\n",
			cp.Balls, cp.MeanBalls, cp.MeanMaxLoad, cp.MeanDeviation)
	}
	fmt.Println("final bins at load >= k:")
	for _, h := range first.Heights {
		fmt.Printf("  k=%-3d %12.1f ± %.1f\n", h.Level, h.MeanBins, h.BinsCI95)
	}
	// The per-shard view: how evenly the two-level protocol spreads
	// work. Contiguous shards of a two-class array carry different
	// total weights, so routed counts differ BY DESIGN — the question
	// the stats answer is whether any shard's local game runs hot.
	lo, hi := first.ShardStats[0], first.ShardStats[0]
	worst := 0.0
	for _, s := range first.ShardStats {
		if s.MeanBalls < lo.MeanBalls {
			lo = s
		}
		if s.MeanBalls > hi.MeanBalls {
			hi = s
		}
		if s.WorstMaxLoad > worst {
			worst = s.WorstMaxLoad
		}
	}
	fmt.Printf("shard imbalance over %d shards:\n", len(first.ShardStats))
	fmt.Printf("  lightest shard %3d: %10.1f ± %.1f balls/rep (max load %.4f mean)\n",
		lo.Shard, lo.MeanBalls, lo.BallsCI95, lo.MeanMaxLoad)
	fmt.Printf("  heaviest shard %3d: %10.1f ± %.1f balls/rep (max load %.4f mean)\n",
		hi.Shard, hi.MeanBalls, hi.BallsCI95, hi.MeanMaxLoad)
	fmt.Printf("  worst shard-local max load anywhere: %.4f\n", worst)
	fmt.Printf("\naggregate AND observations bit-identical across all worker counts ✓\n")
	fmt.Printf("(repetition 0 reproduces balls.SimulateLarge exactly; each further\n")
	fmt.Printf("repetition offsets the stream layout by shards+1 — the topology of\n")
	fmt.Printf("workers over shards never touches a single bit)\n")
}

// sameHeights compares height rows on Level and MeanBins only: with a
// single repetition BinsCI95 is NaN, and NaN != NaN would turn a
// bit-identical result into a false determinism violation under
// reflect.DeepEqual.
func sameHeights(a, b []balls.HeightResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Level != b[i].Level || a[i].MeanBins != b[i].MeanBins {
			return false
		}
	}
	return true
}
